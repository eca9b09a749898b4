package apps

import (
	"math"
	"testing"

	"fugu/internal/glaze"
)

// runStandalone executes an instance solo on an 8-node machine.
func runStandalone(t *testing.T, inst Instance) (*glaze.Machine, *glaze.Job) {
	t.Helper()
	cfg := glaze.DefaultConfig()
	cfg.NIConfig.OutputWords = 64 // apps ship bulk data (the paper used DMA)
	m := glaze.NewMachine(cfg)
	job := m.NewJob(inst.Name())
	inst.Start(m, job)
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(10_000_000_000, job)
	if !job.Done() {
		t.Fatalf("%s did not complete", inst.Name())
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	return m, job
}

// runMultiprogrammed executes an instance against a null job under a skewed
// gang schedule — the paper's experimental setup.
func runMultiprogrammed(t *testing.T, inst Instance, skew float64) (*glaze.Machine, *glaze.Job) {
	t.Helper()
	cfg := glaze.DefaultConfig()
	cfg.NIConfig.OutputWords = 64
	m := glaze.NewMachine(cfg)
	job := m.NewJob(inst.Name())
	null := m.NewJob("null")
	inst.Start(m, job)
	Null{}.Start(m, null)
	m.NewGang(500_000, skew, job, null).Start()
	m.RunUntilDone(20_000_000_000, job)
	if !job.Done() {
		t.Fatalf("%s did not complete under skew %.2f", inst.Name(), skew)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	return m, job
}

func TestBarrierApp(t *testing.T) {
	app := NewBarrierApp(50)
	m, job := runStandalone(t, app)
	_ = m
	d := job.Delivery()
	// Dissemination on 8 nodes: 24 messages per barrier.
	want := uint64(50 * 24)
	if d.Total() != want {
		t.Errorf("messages = %d, want %d", d.Total(), want)
	}
	if d.Buffered != 0 {
		t.Errorf("standalone run buffered %d messages, want 0", d.Buffered)
	}
}

func TestBarrierUnderSkew(t *testing.T) {
	app := NewBarrierApp(200)
	_, job := runMultiprogrammed(t, app, 0.05)
	d := job.Delivery()
	if d.Total() < 200*24 {
		t.Errorf("messages = %d, want >= %d", d.Total(), 200*24)
	}
}

func TestSynth(t *testing.T) {
	app := NewSynth(10, 5, 500)
	_, job := runStandalone(t, app)
	d := job.Delivery()
	// 4 nodes * 5 groups * 10 requests, each with a reply.
	if want := uint64(4 * 5 * 10 * 2); d.Total() != want {
		t.Errorf("messages = %d, want %d", d.Total(), want)
	}
}

func TestSynthLargeGroupUnderSkew(t *testing.T) {
	app := NewSynth(100, 3, 300)
	_, job := runMultiprogrammed(t, app, 0.01)
	if job.Delivery().Total() != 4*3*100*2 {
		t.Errorf("messages = %d", job.Delivery().Total())
	}
}

func TestEnumSmall(t *testing.T) {
	app := NewEnum(4)
	runStandalone(t, app)
	// Check (called inside) compares against the sequential enumeration.
	var exp uint64
	for _, e := range app.expanded {
		exp += e
	}
	if exp == 0 {
		t.Error("no states expanded")
	}
	// Work must actually have been distributed.
	active := 0
	for _, e := range app.expanded {
		if e > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d nodes expanded work", active)
	}
}

func TestEnumSide5UnderSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("side-5 enumeration is slow")
	}
	app := NewEnum(5)
	runMultiprogrammed(t, app, 0.02)
}

func TestLUSmall(t *testing.T) {
	app := NewLU(40, 8)
	runStandalone(t, app)
}

func TestLUUnderSkew(t *testing.T) {
	app := NewLU(40, 8)
	_, job := runMultiprogrammed(t, app, 0.04)
	_ = job
}

func TestWaterSmall(t *testing.T) {
	app := NewWater(64, 2)
	_, job := runStandalone(t, app)
	if job.Delivery().Total() == 0 {
		t.Error("water ran without communicating")
	}
}

func TestWaterUnderSkew(t *testing.T) {
	app := NewWater(64, 2)
	runMultiprogrammed(t, app, 0.04)
}

func TestBarnesSmall(t *testing.T) {
	app := NewBarnes(64, 2)
	_, job := runStandalone(t, app)
	if job.Delivery().Total() == 0 {
		t.Error("barnes ran without communicating")
	}
}

func TestBarnesUnderSkew(t *testing.T) {
	app := NewBarnes(64, 2)
	runMultiprogrammed(t, app, 0.04)
}

func TestOctreeMatchesDirectSum(t *testing.T) {
	// With theta=0 the Barnes-Hut force must equal the direct O(N^2) sum.
	pos := make([][3]float64, 32)
	for i := range pos {
		pos[i] = barnesInitial(i)
	}
	cells := buildOctree(pos)
	words := serializeTree(cells)
	tr := &memTreeReader{words: words}
	for i := range pos {
		approx := tr.force(pos[i], 0) // theta 0: always descend
		var exact [3]float64
		for j := range pos {
			if i == j {
				continue
			}
			f := waterForce(pos[i], pos[j]) // same kernel shape
			_ = f
			dx := pos[j][0] - pos[i][0]
			dy := pos[j][1] - pos[i][1]
			dz := pos[j][2] - pos[i][2]
			r2 := dx*dx + dy*dy + dz*dz + barnesSoft
			inv := 1 / (r2 * sqrt(r2))
			exact[0] += dx * inv
			exact[1] += dy * inv
			exact[2] += dz * inv
		}
		for d := 0; d < 3; d++ {
			if diff := approx[d] - exact[d]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("body %d dim %d: tree %g vs direct %g", i, d, approx[d], exact[d])
			}
		}
	}
}

func sqrt(x float64) float64 { return math.Sqrt(x) }
