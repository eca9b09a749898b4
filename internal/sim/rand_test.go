package sim

import "testing"

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRandSeedZero(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestRandDifferentSeeds(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 matched on %d/100 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(9)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values in 10k draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / 10000
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUniformAroundMean(t *testing.T) {
	r := NewRand(5)
	const mean = 1000
	var sum uint64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.UniformAround(mean)
		if v < mean/2 || v >= mean/2+mean {
			t.Fatalf("UniformAround(%d) = %d out of range", mean, v)
		}
		sum += v
	}
	got := float64(sum) / n
	if got < 0.95*mean || got > 1.05*mean {
		t.Errorf("UniformAround mean = %v, want ~%d", got, mean)
	}
	if r.UniformAround(0) != 0 {
		t.Error("UniformAround(0) != 0")
	}
}
