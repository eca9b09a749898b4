package trace

import "testing"

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(1, 0, Mode, "ignored")
	if l.Enabled(Mode) {
		t.Error("nil log claims enabled")
	}
	if l.Total() != 0 || l.Events() != nil {
		t.Error("nil log recorded something")
	}
}

func TestDisabledCategoryDropped(t *testing.T) {
	l := New(8)
	l.Enable(Mode)
	l.Add(1, 0, Mode, "kept")
	l.Add(2, 0, Sched, "dropped")
	evs := l.Events()
	if len(evs) != 1 || evs[0].What != "kept" {
		t.Errorf("events = %v", evs)
	}
}

func TestRingKeepsNewest(t *testing.T) {
	l := New(3)
	l.Enable(Categories()...)
	for i := 0; i < 10; i++ {
		l.Add(uint64(i), 0, Mode, "e%d", i)
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	want := []string{"e7", "e8", "e9"}
	for i, w := range want {
		if evs[i].What != w {
			t.Errorf("evs[%d] = %s, want %s", i, evs[i].What, w)
		}
	}
	if l.Total() != 10 {
		t.Errorf("total = %d, want 10", l.Total())
	}
}

func TestDroppedCountsOverwritten(t *testing.T) {
	l := New(2)
	l.Enable(Categories()...)
	for i := 0; i < 5; i++ {
		l.Add(uint64(i), 1, Overflow, "x")
	}
	if l.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", l.Dropped())
	}
	if evs := l.Events(); len(evs) != 2 || evs[0].Cat != Overflow {
		t.Errorf("events = %v", evs)
	}
}

func TestExactCapacityKeepsAllInOrder(t *testing.T) {
	// Filling the ring to exactly its capacity must retain every event in
	// chronological order with nothing counted as dropped.
	const n = 4
	l := New(n)
	l.Enable(Categories()...)
	for i := 0; i < n; i++ {
		l.Add(uint64(i), 0, Mode, "e%d", i)
	}
	evs := l.Events()
	if len(evs) != n {
		t.Fatalf("retained %d, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.At != uint64(i) {
			t.Errorf("evs[%d].At = %d, want %d", i, e.At, i)
		}
	}
	if l.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", l.Dropped())
	}
}

func TestOneOverCapacityDropsExactlyOldest(t *testing.T) {
	// One event past capacity must drop exactly the oldest event and
	// account for exactly one drop.
	const n = 4
	l := New(n)
	l.Enable(Categories()...)
	for i := 0; i <= n; i++ {
		l.Add(uint64(i), 0, Sched, "e%d", i)
	}
	evs := l.Events()
	if len(evs) != n {
		t.Fatalf("retained %d, want %d", len(evs), n)
	}
	if evs[0].What != "e1" || evs[n-1].What != "e4" {
		t.Errorf("window = [%s .. %s], want [e1 .. e4]", evs[0].What, evs[n-1].What)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At <= evs[i-1].At {
			t.Errorf("out of order at %d: %v", i, evs)
		}
	}
	if l.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", l.Dropped())
	}
}

func TestChronologicalOrderBeforeWrap(t *testing.T) {
	l := New(10)
	l.Enable(Categories()...)
	l.Add(5, 0, Mode, "a")
	l.Add(6, 1, Sched, "b")
	evs := l.Events()
	if len(evs) != 2 || evs[0].What != "a" || evs[1].What != "b" {
		t.Errorf("events = %v", evs)
	}
	if evs[1].Node != 1 {
		t.Error("node lost")
	}
}
