package sim

import "testing"

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var times []uint64
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			times = append(times, p.Now())
		}
	})
	e.Run()
	want := []uint64{10, 20, 30}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("wake times = %v, want %v", times, want)
		}
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after completion, want 0", e.LiveProcs())
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			order = append(order, "a")
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(15)
			order = append(order, "b")
		}
	})
	e.Run()
	got := ""
	for _, s := range order {
		got += s
	}
	// a wakes at 10,20,30; b at 15,30,45. At the t=30 tie, b's wake was
	// scheduled earlier (when b parked at 15) so b runs first.
	if got != "ababab" {
		t.Errorf("interleave = %q, want ababab", got)
	}
}

func TestParkAndWake(t *testing.T) {
	e := NewEngine(1)
	var woke uint64
	p := e.Spawn("parker", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Schedule(100, func() { e.Wake(p) })
	e.Run()
	if woke != 100 {
		t.Errorf("woke at %d, want 100", woke)
	}
}

func TestDoubleWakePanics(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("p", func(p *Proc) { p.Park() })
	e.Schedule(5, func() {
		e.Wake(p)
		defer func() {
			if recover() == nil {
				t.Error("double wake did not panic")
			}
		}()
		e.Wake(p)
	})
	e.Run()
	_ = p
}

func TestYieldRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("y", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "proc-before")
		// An event queued for this same instant must run during the Yield.
		e.Schedule(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc-after")
	})
	e.Run()
	want := []string{"proc-before", "event", "proc-after"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLiveProcsLeakDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) { p.Park() }) // never woken
	e.Spawn("fine", func(p *Proc) { p.Sleep(5) })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1 (the stuck proc)", e.LiveProcs())
	}
}

func TestProcTagAndName(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("tagged", func(p *Proc) {})
	e.Run()
	if p.Name() != "tagged" {
		t.Errorf("Name = %q", p.Name())
	}
	if !p.Done() {
		t.Error("Done = false after run")
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine(1)
	var childRan uint64
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childRan != 15 {
		t.Errorf("child ran at %d, want 15", childRan)
	}
}

func TestCondFIFO(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	var order []int
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(uint64(i + 1)) // stagger arrival order
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Schedule(100, func() {
		if len(c.waiters) != 3 {
			t.Errorf("%d waiters, want 3", len(c.waiters))
		}
		c.Signal()
	})
	e.Schedule(200, func() { c.Broadcast() })
	e.Run()
	want := []int{0, 1, 2}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestCondSignalEmpty(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	if c.Signal() {
		t.Error("Signal on empty cond returned true")
	}
	if n := c.Broadcast(); n != 0 {
		t.Errorf("Broadcast on empty cond = %d, want 0", n)
	}
}

// TestProcPanicReachesRunCaller checks that a panic in proc code travels
// back to the caller of Run instead of killing the process. The faulty
// proc is dispatched from inside the steady proc's park loop, so the panic
// also crosses a link of the dispatch chain on its way out.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("steady", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(3)
		panic("proc fault at t=3")
	})
	defer func() {
		if r := recover(); r != "proc fault at t=3" {
			t.Fatalf("recovered %v, want the proc's panic value", r)
		}
		if e.Now() != 3 {
			t.Errorf("panic surfaced at t=%d, want 3", e.Now())
		}
	}()
	e.Run()
	t.Fatal("Run returned normally; the proc panic was lost")
}

// TestPrimedProcSwitchesAllocateNothing checks that a proc's first
// dispatch, its park and its wake allocate nothing once Spawn has primed
// the coroutine: the allocations of a proc start all happen in Spawn.
func TestPrimedProcSwitchesAllocateNothing(t *testing.T) {
	const runs = 50
	engines := make([]*Engine, runs+1) // AllocsPerRun adds a warm-up run
	procs := make([]*Proc, runs+1)
	for i := range engines {
		engines[i] = NewEngine(1)
		procs[i] = engines[i].Spawn("p", func(p *Proc) { p.Park() })
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e, p := engines[i], procs[i]
		i++
		e.Run() // first dispatch; the proc parks and yields with the queue empty
		e.Wake(p)
		e.Run() // resumes the parked proc, which returns
		if !p.Done() {
			t.Fatal("proc did not finish")
		}
	})
	if allocs != 0 {
		t.Errorf("first dispatch, park and wake allocate %.1f times, want 0", allocs)
	}
}
