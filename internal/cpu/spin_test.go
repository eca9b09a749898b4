package cpu

import (
	"slices"
	"testing"

	"fugu/internal/metrics"
	"fugu/internal/sim"
)

// flagCond holds until an event callback sets stop. It counts the times it
// is asked in engine context, that is by a re-arm at a wake rather than by
// the resumed task.
type flagCond struct {
	eng      *sim.Engine
	stop     bool
	inEngine int
}

func (c *flagCond) Holds() bool {
	if c.eng != nil && c.eng.Current() == nil {
		c.inEngine++
	}
	return !c.stop
}

// untilCond holds until the clock reaches a multiple of every.
type untilCond struct {
	t     *Task
	every uint64
}

func (c *untilCond) Holds() bool { return c.t.Now()%c.every != 0 }

type tick struct {
	site sim.Site
	now  uint64
}

// spinRun is the end state of one run of the SpendWhile scenario.
type spinRun struct {
	end        uint64
	events     uint64
	spinner    uint64 // cycles the spinning task consumed
	isr        uint64 // cycles the ISR task consumed
	peer       uint64 // cycles the peer task consumed
	spinEnd    uint64 // time the spin returned
	spinnerEnd uint64 // time the spinning task finished
	rearms     int    // condition checks made at wakes, in engine context
}

// runSpinScenario spins a user task on a 3-cycle spend until an event
// callback flips its condition, while an ISR preempts it mid-spend, a gang
// Suspend/Resume deschedules it mid-spin, a Resume followed in the same
// cycle by an interrupt leaves a stale grant wake, and an interrupt raised
// from another CPU's task waits for the spinner's next wake. A peer task at the same
// priority shares the CPU. written selects the written-out loop instead of
// SpendWhile.
func runSpinScenario(written bool) (log []tick, r spinRun) {
	e := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	e.UseMetrics(reg)
	e.UseProfiler(sim.NewProfiler(sim.ProfilerConfig{OnEvent: func(s sim.Site, now uint64) {
		log = append(log, tick{s, now})
	}}))
	c := New(e, "cpu0")
	irq := c.NewIRQ("dev", func(t *Task) { t.Spend(7) })
	cond := &flagCond{eng: e}
	spinner := c.NewTask("spinner", PrioUser, DomainUser, func(t *Task) {
		t.Spend(2)
		if written {
			for {
				t.Spend(3)
				if !cond.Holds() {
					break
				}
			}
		} else {
			t.SpendWhile(3, cond)
		}
		r.spinEnd = t.Now()
		t.Spend(4)
		r.spinnerEnd = t.Now()
	})
	peer := c.NewTask("peer", PrioUser, DomainUser, func(t *Task) {
		for i := 0; i < 3; i++ {
			t.Spend(5)
		}
	})
	// A task on a second CPU raises the interrupt from task context, so it
	// only readies the ISR: the spinner sees the preemption at its next
	// wake, with its spend complete.
	New(e, "cpu1").NewTask("remote", PrioUser, DomainUser, func(t *Task) {
		t.Spend(100)
		irq.Raise()
	})
	e.Schedule(16, irq.Raise) // mid-spend: preempts the spinner
	e.Schedule(40, spinner.Suspend)
	e.Schedule(52, spinner.Resume)
	e.Schedule(52, irq.Raise) // same cycle: the Resume's grant goes stale
	e.Schedule(70, irq.Raise)
	e.Schedule(140, func() { cond.stop = true })
	e.Schedule(142, irq.Raise)
	r.end = e.Run()
	r.events = reg.Counter("sim.events").Value()
	r.spinner, r.isr, r.peer = spinner.Consumed(), irq.Task().Consumed(), peer.Consumed()
	r.rearms = cond.inEngine
	if !spinner.Done() || !peer.Done() {
		panic("scenario tasks did not finish")
	}
	return log, r
}

// TestSpendWhileMatchesLoop pins SpendWhile to its definition: the same
// scenario through SpendWhile and through the written-out Spend loop
// dispatches the same events at the same times, in the same order, and
// ends with the same clock, the same event count and the same cycles per
// task.
func TestSpendWhileMatchesLoop(t *testing.T) {
	loopLog, loop := runSpinScenario(true)
	spinLog, spin := runSpinScenario(false)
	if len(loopLog) < 40 {
		t.Fatalf("scenario dispatched only %d events", len(loopLog))
	}
	if !slices.Equal(loopLog, spinLog) {
		for i := range min(len(loopLog), len(spinLog)) {
			if loopLog[i] != spinLog[i] {
				t.Fatalf("event %d: loop %v@%d, SpendWhile %v@%d", i,
					loopLog[i].site, loopLog[i].now, spinLog[i].site, spinLog[i].now)
			}
		}
		t.Fatalf("loop dispatched %d events, SpendWhile %d", len(loopLog), len(spinLog))
	}
	if spin.rearms < 10 {
		t.Fatalf("SpendWhile's spends were re-armed at %d wakes, want the spin's idle wakes", spin.rearms)
	}
	loop.rearms, spin.rearms = 0, 0
	if loop != spin {
		t.Fatalf("end state differs:\nloop       %+v\nSpendWhile %+v", loop, spin)
	}
	if spin.spinEnd < 140 {
		t.Errorf("spin returned at %d, before its condition was flipped at 140", spin.spinEnd)
	}
}

// TestSpendWhileRoundAllocatesNothing checks that once warm, a task calling
// SpendWhile over and over, each call spinning several spends, allocates
// nothing: neither entering and leaving the spin nor its re-armed spends.
func TestSpendWhileRoundAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	c.NewTask("spinner", PrioUser, DomainUser, func(t *Task) {
		cond := &untilCond{t: t, every: 10}
		for {
			t.SpendWhile(2, cond) // five spends, to the next multiple of 10
			t.Spend(1)
		}
	})
	e.RunUntil(100)
	if allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 11) }); allocs != 0 {
		t.Errorf("SpendWhile round allocated %.1f times, want 0", allocs)
	}
}

// TestSpendWhileZeroPanics: a zero spend would spin forever at one time.
func TestSpendWhileZeroPanics(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	c.NewTask("t", PrioUser, DomainUser, func(t *Task) { t.SpendWhile(0, &flagCond{}) })
	defer func() {
		if recover() == nil {
			t.Error("SpendWhile(0) did not panic")
		}
	}()
	e.Run()
}
