package cpu

import (
	"testing"

	"fugu/internal/sim"
)

func TestSpendAccountsTime(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var end uint64
	c.NewTask("t", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		tk.Spend(50)
		end = tk.Now()
	})
	e.Run()
	if end != 150 {
		t.Errorf("task finished at %d, want 150", end)
	}
	if got := c.SpentCycles(DomainUser); got != 150 {
		t.Errorf("user cycles = %d, want 150", got)
	}
}

func TestTwoTasksSerialize(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var aEnd, bEnd uint64
	c.NewTask("a", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		aEnd = tk.Now()
	})
	c.NewTask("b", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		bEnd = tk.Now()
	})
	e.Run()
	if aEnd != 100 || bEnd != 200 {
		t.Errorf("aEnd=%d bEnd=%d, want 100 and 200 (same CPU serializes)", aEnd, bEnd)
	}
}

func TestPriorityOrder(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var order []string
	// Created low first, but high must run first once both are ready.
	// Use a gate so both are enqueued before either runs: tasks are created
	// from event context at t=0 in creation order; kernel outranks user.
	c.NewTask("low", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(10)
		order = append(order, "low")
	})
	c.NewTask("high", PrioKernel, DomainKernel, func(tk *Task) {
		tk.Spend(10)
		order = append(order, "high")
	})
	e.Run()
	// "low" is granted at creation (CPU free), then "high" preempts it at
	// its first Spend boundary... low is mid-spend parked, so active
	// preemption applies: high runs 0-10, low finishes its balance after.
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Errorf("order = %v, want [high low]", order)
	}
}

func TestPreemptionPreservesBalance(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var lowEnd, highStart, highEnd uint64
	c.NewTask("low", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		lowEnd = tk.Now()
	})
	e.Schedule(30, func() {
		c.NewTask("high", PrioKernel, DomainKernel, func(tk *Task) {
			highStart = tk.Now()
			tk.Spend(40)
			highEnd = tk.Now()
		})
	})
	e.Run()
	if highStart != 30 || highEnd != 70 {
		t.Errorf("high ran %d-%d, want 30-70", highStart, highEnd)
	}
	// low: 30 cycles before preemption + 70 after resuming at t=70.
	if lowEnd != 140 {
		t.Errorf("low finished at %d, want 140 (30+40+70)", lowEnd)
	}
	if got := c.SpentCycles(DomainUser); got != 100 {
		t.Errorf("user cycles = %d, want 100", got)
	}
	if got := c.SpentCycles(DomainKernel); got != 40 {
		t.Errorf("kernel cycles = %d, want 40", got)
	}
}

func TestNestedPreemption(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var ends = map[string]uint64{}
	c.NewTask("user", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		ends["user"] = tk.Now()
	})
	e.Schedule(10, func() {
		c.NewTask("kernel", PrioKernel, DomainKernel, func(tk *Task) {
			tk.Spend(50)
			ends["kernel"] = tk.Now()
		})
	})
	e.Schedule(20, func() {
		c.NewTask("isr", PrioISR, DomainKernel, func(tk *Task) {
			tk.Spend(5)
			ends["isr"] = tk.Now()
		})
	})
	e.Run()
	if ends["isr"] != 25 {
		t.Errorf("isr end = %d, want 25", ends["isr"])
	}
	if ends["kernel"] != 65 { // 10 cycles done by 20, 40 remaining after isr at 25
		t.Errorf("kernel end = %d, want 65", ends["kernel"])
	}
	if ends["user"] != 155 { // 10 done, 90 remaining, resumes at 65
		t.Errorf("user end = %d, want 155", ends["user"])
	}
}

func TestISRNotPreempted(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var order []string
	irq1 := c.NewIRQ("one", func(tk *Task) {
		tk.Spend(50)
		order = append(order, "one")
	})
	irq2 := c.NewIRQ("two", func(tk *Task) {
		tk.Spend(5)
		order = append(order, "two")
	})
	e.Schedule(10, func() { irq1.Raise() })
	e.Schedule(20, func() { irq2.Raise() }) // arrives while irq1 handler runs
	e.Run()
	if len(order) != 2 || order[0] != "one" || order[1] != "two" {
		t.Errorf("order = %v, want [one two] (ISR runs to completion)", order)
	}
}

func TestIRQPreemptsUser(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var isrAt, userEnd uint64
	irq := c.NewIRQ("msg", func(tk *Task) {
		isrAt = tk.Now()
		tk.Spend(7)
	})
	c.NewTask("user", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		userEnd = tk.Now()
	})
	e.Schedule(40, func() { irq.Raise() })
	e.Run()
	if isrAt != 40 {
		t.Errorf("ISR ran at %d, want 40", isrAt)
	}
	if userEnd != 107 {
		t.Errorf("user end = %d, want 107", userEnd)
	}
}

func TestIRQCounting(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	count := 0
	irq := c.NewIRQ("v", func(tk *Task) {
		count++
		tk.Spend(3)
	})
	e.Schedule(10, func() { irq.Raise(); irq.Raise(); irq.Raise() })
	e.Run()
	if count != 3 {
		t.Errorf("handler ran %d times, want 3", count)
	}
	if irq.Raised() != 3 {
		t.Errorf("Raised = %d, want 3", irq.Raised())
	}
}

func TestRaiseFromTaskContext(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var isrAt, userMid, userEnd uint64
	irq := c.NewIRQ("v", func(tk *Task) {
		isrAt = tk.Now()
		tk.Spend(10)
	})
	c.NewTask("user", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(20)
		irq.Raise() // from task context: takes effect at next Spend boundary
		userMid = tk.Now()
		tk.Spend(30)
		userEnd = tk.Now()
	})
	e.Run()
	if userMid != 20 {
		t.Errorf("userMid = %d, want 20 (raise itself is instant)", userMid)
	}
	if isrAt != 20 {
		t.Errorf("ISR at %d, want 20 (next boundary)", isrAt)
	}
	if userEnd != 60 {
		t.Errorf("userEnd = %d, want 60", userEnd)
	}
}

func TestBlockUnblock(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	q := NewWaitQ("q")
	var consumerGot uint64
	c.NewTask("consumer", PrioUser, DomainUser, func(tk *Task) {
		q.Wait(tk)
		consumerGot = tk.Now()
	})
	c.NewTask("producer", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(100)
		q.WakeOne()
		tk.Spend(50)
	})
	e.Run()
	if consumerGot != 150 {
		// consumer is unblocked at 100 but same-priority producer keeps
		// the CPU until it finishes at 150.
		t.Errorf("consumer resumed at %d, want 150", consumerGot)
	}
}

func TestHigherPriorityUnblockPreempts(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	q := NewWaitQ("q")
	var handlerAt, userEnd uint64
	c.NewTask("handler", PrioHandler, DomainUser, func(tk *Task) {
		q.Wait(tk)
		handlerAt = tk.Now()
		tk.Spend(10)
	})
	c.NewTask("user", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(20)
		q.WakeOne() // readies a higher-priority task from task context
		tk.Spend(30)
		userEnd = tk.Now()
	})
	e.Run()
	if handlerAt != 20 {
		t.Errorf("handler at %d, want 20", handlerAt)
	}
	if userEnd != 60 {
		t.Errorf("user end = %d, want 60", userEnd)
	}
}

func TestWaitQFIFOAndWakeAll(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	q := NewWaitQ("q")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.NewTask("w", PrioUser, DomainUser, func(tk *Task) {
			q.Wait(tk)
			order = append(order, i)
		})
	}
	e.Schedule(10, func() {
		if q.Len() != 3 {
			t.Errorf("Len = %d, want 3", q.Len())
		}
		if n := q.WakeAll(); n != 3 {
			t.Errorf("WakeAll = %d, want 3", n)
		}
	})
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

func TestRunListener(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	type change struct {
		at         uint64
		prev, next string
	}
	var log []change
	name := func(t *Task) string {
		if t == nil {
			return "-"
		}
		return t.Name()
	}
	c.AddRunListener(runListenerFunc(func(now uint64, prev, next *Task) {
		log = append(log, change{now, name(prev), name(next)})
	}))
	c.NewTask("t", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(10)
	})
	e.Run()
	if len(log) != 2 {
		t.Fatalf("got %d transitions, want 2: %v", len(log), log)
	}
	if log[0].next != "t" || log[1].prev != "t" || log[1].next != "-" {
		t.Errorf("transitions = %v", log)
	}
	if log[1].at != 10 {
		t.Errorf("release at %d, want 10", log[1].at)
	}
}

type runListenerFunc func(now uint64, prev, next *Task)

func (f runListenerFunc) RunChange(now uint64, prev, next *Task) { f(now, prev, next) }

func TestCPUIdleAndCounts(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	if !c.Idle() {
		t.Error("fresh CPU not idle")
	}
	c.NewTask("t", PrioUser, DomainUser, func(tk *Task) { tk.Spend(5) })
	e.Run()
	if !c.Idle() {
		t.Error("CPU not idle after all tasks done")
	}
}

func TestSpendZeroIsPreemptionPoint(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	var order []string
	irq := c.NewIRQ("v", func(tk *Task) { order = append(order, "isr") })
	c.NewTask("user", PrioUser, DomainUser, func(tk *Task) {
		tk.Spend(10)
		irq.Raise()
		tk.Spend(0)
		order = append(order, "user")
	})
	e.Run()
	if len(order) != 2 || order[0] != "isr" || order[1] != "user" {
		t.Errorf("order = %v, want [isr user]", order)
	}
}

func TestManyTasksDeterministic(t *testing.T) {
	run := func() []string {
		e := sim.NewEngine(99)
		c := New(e, "cpu0")
		var order []string
		for i := 0; i < 20; i++ {
			i := i
			c.NewTask("t", PrioUser, DomainUser, func(tk *Task) {
				tk.Spend(uint64(e.Rand().Uint64n(50) + 1))
				order = append(order, string(rune('a'+i)))
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}
