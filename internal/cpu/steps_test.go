package cpu

import (
	"fmt"
	"slices"
	"testing"

	"fugu/internal/metrics"
	"fugu/internal/sim"
)

// scriptStep is one step of a script.
type scriptStep struct {
	n     uint64 // the spend the step returns
	wait  bool   // the step returns a wait on the scenario's queue instead
	end   bool   // the step ends the sequence
	raise *IRQ   // raised by the step
	spend uint64 // spent inside the step, which makes it one the task runs
}

// script is a Stepper that runs its steps in order, logging each with the
// time it ran, and logs an overrun if asked for a step past its last. It
// counts the steps run inline, at a wake: the ones Inline allowed.
type script struct {
	t      *Task
	q      *WaitQ
	steps  []scriptStep
	next   int
	inline int
	log    *[]string
}

func (s *script) Inline() bool {
	if s.next == len(s.steps) || s.steps[s.next].spend != 0 {
		return false
	}
	s.inline++
	return true
}

func (s *script) Step() (uint64, *WaitQ, bool) {
	if s.next == len(s.steps) {
		*s.log = append(*s.log, "overrun")
		return 0, nil, false
	}
	st := s.steps[s.next]
	s.next++
	*s.log = append(*s.log, fmt.Sprintf("step%d@%d", s.next, s.t.Now()))
	if st.raise != nil {
		st.raise.Raise()
	}
	if st.spend != 0 {
		s.t.Spend(st.spend)
	}
	var w *WaitQ
	if st.wait {
		w = s.q
	}
	return st.n, w, !st.end
}

// stepRig is what a scenario's setup may schedule events against: the
// engine, the stepping task, the local interrupt vector and the queue the
// script's waits block on.
type stepRig struct {
	e       *sim.Engine
	stepper *Task
	local   *IRQ
	q       *WaitQ
}

// stepScenario is a script for a task to run, with events to schedule
// around it. local and remote are interrupt vectors on the task's CPU and
// on a second CPU, whose one user task spends 400 cycles, raising the local
// vector from task context after its first 100. The task spends 2+pre
// cycles plainly before the sequence, which starts with a spend of first,
// or with fromStep set with a step (Steps). The queue is woken by the
// local handler, by a peer task after each of its spends and, with tick
// set, from engine context every tick cycles until the stepping task ends.
// A plain spend has no written-out form to compare with, so a scenario may
// name a log entry its run must make.
type stepScenario struct {
	pre      uint64
	first    uint64
	fromStep bool
	tick     uint64
	steps    func(local, remote *IRQ) []scriptStep
	setup    func(r stepRig)
	want     string
}

// stepsRun is the end state of one run of a scenario.
type stepsRun struct {
	// log holds every dispatched event, step, interrupt handler run and
	// milestone of the stepping task, in order.
	log    []string
	end    uint64
	events uint64
	// Cycles consumed by the stepping task, its CPU's peer task and ISR,
	// and the second CPU's task and ISR.
	cycles [5]uint64
	inline int
}

// runStepScenario runs sc with the stepping task using SpendSteps (or
// Steps), or with written set the written-out loop they are defined as. A
// peer task at the stepping task's priority shares its CPU.
func runStepScenario(sc stepScenario, written bool) stepsRun {
	var r stepsRun
	logf := func(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }
	e := sim.NewEngine(1)
	e.Limit = 1 << 20
	reg := metrics.NewRegistry()
	e.UseMetrics(reg)
	e.UseProfiler(sim.NewProfiler(sim.ProfilerConfig{OnEvent: func(s sim.Site, now uint64) {
		logf("%v@%d", s, now)
	}}))
	c, c1 := New(e, "cpu0"), New(e, "cpu1")
	q := NewWaitQ("steps")
	local := c.NewIRQ("local", func(t *Task) {
		logf("local@%d", t.Now())
		t.Spend(7)
		q.WakeAll()
	})
	remote := c1.NewIRQ("remote", func(t *Task) {
		logf("remote@%d", t.Now())
		t.Spend(5)
	})
	s := &script{q: q, steps: sc.steps(local, remote), log: &r.log}
	stepper := c.NewTask("stepper", PrioUser, DomainUser, func(t *Task) {
		s.t = t
		t.Spend(2 + sc.pre)
		switch {
		case written:
			n, w, more := sc.first, (*WaitQ)(nil), true
			if sc.fromStep {
				n, w, more = s.Step()
			}
			for more {
				if w != nil {
					w.Wait(t)
				} else {
					t.Spend(n)
				}
				n, w, more = s.Step()
			}
		case sc.fromStep:
			t.Steps(s)
		default:
			t.SpendSteps(sc.first, s)
		}
		logf("after@%d", t.Now())
		t.Spend(4)
		logf("done@%d", t.Now())
	})
	peer := c.NewTask("peer", PrioUser, DomainUser, func(t *Task) {
		for range 3 {
			t.Spend(5)
			q.WakeAll()
		}
	})
	busy := c1.NewTask("busy", PrioUser, DomainUser, func(t *Task) {
		t.Spend(100)
		local.Raise()
		t.Spend(300)
		logf("busy@%d", t.Now())
	})
	if sc.tick != 0 {
		var tick func()
		tick = func() {
			q.WakeAll()
			if !stepper.Done() {
				e.Schedule(sc.tick, tick)
			}
		}
		e.Schedule(sc.tick, tick)
	}
	if sc.setup != nil {
		sc.setup(stepRig{e: e, stepper: stepper, local: local, q: q})
	}
	r.end = e.Run()
	r.events = reg.Counter("sim.events").Value()
	r.cycles = [5]uint64{stepper.Consumed(), peer.Consumed(), local.Task().Consumed(),
		busy.Consumed(), remote.Task().Consumed()}
	r.inline = s.inline
	e.Close() // the IRQ tasks stay parked
	if !stepper.Done() || !peer.Done() || !busy.Done() {
		panic("scenario tasks did not finish")
	}
	return r
}

// spin is n steps of a k-cycle spend, the last ending the sequence.
func spin(n int, k uint64) []scriptStep {
	steps := make([]scriptStep, n)
	for i := range steps {
		steps[i].n = k
	}
	steps[n-1].end = true
	return steps
}

var stepScenarios = map[string]stepScenario{
	// A 3-cycle spin: an ISR preempts it mid-spend, a gang
	// Suspend/Resume deschedules it, and an interrupt raised from the
	// other CPU's task waits for the spin's next wake.
	"spin": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep { return spin(45, 3) },
		setup: func(r stepRig) {
			r.e.Schedule(16, r.local.Raise)
			r.e.Schedule(40, r.stepper.Suspend)
			r.e.Schedule(52, r.stepper.Resume)
			r.e.Schedule(70, r.local.Raise)
			r.e.Schedule(142, r.local.Raise)
		},
	},
	// Steps raise an interrupt on the other CPU, whose task is mid-spend.
	// Raised for the stepping task, the interrupt waits for that spend to
	// end; raised from engine context, it would preempt it at once.
	"step raises a remote IRQ": {
		first: 3,
		steps: func(_, remote *IRQ) []scriptStep {
			steps := spin(8, 3)
			steps[2].raise = remote
			steps[5].raise = remote
			return steps
		},
	},
	// Steps that spend run in the task, their spends plain: the hook
	// must not take their wakes for the sequence's.
	"task-run step spends": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 3}, {n: 2, spend: 5}, {n: 3}, {spend: 4}, {n: 3}, {n: 1, spend: 6}, {end: true, spend: 2}}
		},
	},
	// A Suspend lands at a spend's end, before its wake, and the Resume's
	// grant goes stale in its own cycle when an interrupt preempts it: the
	// stale wake finds the task not running, with its balance spent.
	"same-cycle stale grant": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep { return spin(12, 3) },
		setup: func(r stepRig) {
			r.e.Schedule(8, r.stepper.Suspend)
			r.e.Schedule(30, r.stepper.Resume)
			r.e.Schedule(30, r.local.Raise)
		},
	},
	// A step that ends the sequence readies an ISR: the task goes on
	// past the sequence and is preempted at its next spend.
	"preemption due when the sequence ends": {
		first: 3,
		steps: func(local, _ *IRQ) []scriptStep {
			steps := spin(4, 3)
			steps[3].raise = local
			return steps
		},
	},
	// Steps that return a spend ready an ISR: the task is preempted
	// before that spend, with the balance kept.
	"preemption due by a step": {
		first: 3,
		steps: func(local, _ *IRQ) []scriptStep {
			steps := spin(6, 3)
			steps[1].raise = local
			steps[3].raise = local
			return steps
		},
	},
	// Zero spends are bare preemption points.
	"zero spends": {
		first: 3,
		steps: func(local, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 0}, {n: 0, raise: local}, {n: 0}, {n: 3}, {n: 0}, {end: true}}
		},
	},
	// A step waits and the peer task wakes it, from task context; the
	// second wait, after the peer is done, is ended by the ISR that the
	// other CPU's task raises.
	"step waits, woken by a task": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 3}, {wait: true}, {n: 3}, {wait: true}, {n: 3, end: true}}
		},
	},
	// A step waits and an ISR, raised from engine context while the peer
	// runs, wakes it.
	"step waits, woken by an ISR": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 3}, {wait: true}, {n: 3}, {n: 3, end: true}}
		},
		setup: func(r stepRig) { r.e.Schedule(10, r.local.Raise) },
	},
	// A step waits, the task is suspended while it waits, so the peer's
	// wake is banked, and the Resume grants it the CPU.
	"step waits while suspended": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 3}, {wait: true}, {n: 3}, {n: 3, end: true}}
		},
		setup: func(r stepRig) {
			r.e.Schedule(9, r.stepper.Suspend)
			r.e.Schedule(40, r.stepper.Resume)
		},
	},
	// The task waits with its CPU idle and is granted it at t = 100 from
	// engine context, just before the other CPU's task, at its own wake in
	// that cycle, readies the local ISR without preempting: the grant's
	// wake finds an ISR ready, and the step after the wait runs before the
	// preemption, as code after q.Wait does.
	"granted with a preemption due": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{wait: true}, {wait: true}, {n: 3}, {n: 3, end: true}}
		},
		setup: func(r stepRig) {
			r.e.Schedule(99, func() { r.e.Schedule(1, func() { r.q.WakeAll() }) })
		},
	},
	// As above, but the step after the wait spends, so the task runs it:
	// the task too takes the grant and runs the step before the
	// preemption.
	"granted with a preemption due, the task runs the step": {
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{wait: true}, {wait: true}, {n: 3, spend: 2}, {n: 3, end: true}}
		},
		setup: func(r stepRig) {
			r.e.Schedule(99, func() { r.e.Schedule(1, func() { r.q.WakeAll() }) })
		},
	},
	// The plain spend before the sequence is suspended, and the Resume
	// at t = 100 grants the task the CPU just before the other CPU's task
	// readies the local ISR: the grant's wake deposes the task, with its
	// balance kept, instead of re-arming it.
	"plain spend granted with a preemption due": {
		pre:   200,
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep { return spin(3, 3) },
		setup: func(r stepRig) {
			r.e.Schedule(50, r.stepper.Suspend)
			r.e.Schedule(99, func() { r.e.Schedule(1, r.stepper.Resume) })
		},
		want: "local@100",
	},
	// Interrupts preempt plain spends: the one before the sequence and
	// one inside a step the task runs.
	"plain spend preempted by an ISR": {
		pre:   20,
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 3}, {n: 2, spend: 20}, {n: 3}, {n: 3, end: true}}
		},
		setup: func(r stepRig) {
			r.e.Schedule(10, r.local.Raise)
			r.e.Schedule(40, r.local.Raise)
		},
	},
	// Suspend and Resume deschedule plain spends: the one before the
	// sequence and one inside a step the task runs.
	"plain spend suspended": {
		pre:   20,
		first: 3,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{n: 3}, {n: 2, spend: 20}, {n: 3}, {n: 3, end: true}}
		},
		setup: func(r stepRig) {
			r.e.Schedule(10, r.stepper.Suspend)
			r.e.Schedule(15, r.stepper.Resume)
			r.e.Schedule(50, r.stepper.Suspend)
			r.e.Schedule(60, r.stepper.Resume)
		},
	},
	// A sequence that starts with a step (Steps), here one that waits.
	"sequence starts with a step": {
		fromStep: true,
		steps: func(_, _ *IRQ) []scriptStep {
			return []scriptStep{{wait: true}, {n: 3}, {wait: true}, {n: 3, end: true}}
		},
		tick: 16,
	},
}

// TestSpendStepsMatchesLoop pins SpendSteps and Steps to their definition:
// each scenario through them and through the written-out loop dispatches
// the same events at the same times, in the same order, runs its steps,
// interrupt handlers and task milestones at the same points of that order,
// and ends with the same clock, event count and cycles per task.
func TestSpendStepsMatchesLoop(t *testing.T) {
	for name, sc := range stepScenarios {
		t.Run(name, func(t *testing.T) {
			loop := runStepScenario(sc, true)
			steps := runStepScenario(sc, false)
			if !slices.Equal(loop.log, steps.log) {
				for i := range min(len(loop.log), len(steps.log)) {
					if loop.log[i] != steps.log[i] {
						t.Fatalf("entry %d: loop %s, SpendSteps %s\nloop      %v\nSpendSteps %v",
							i, loop.log[i], steps.log[i], loop.log, steps.log)
					}
				}
				t.Fatalf("loop logged %d entries, SpendSteps %d", len(loop.log), len(steps.log))
			}
			if steps.inline == 0 {
				t.Fatal("SpendSteps ran no step inline")
			}
			if sc.want != "" && !slices.Contains(steps.log, sc.want) {
				t.Fatalf("no %s in the log: %v", sc.want, steps.log)
			}
			loop.log, steps.log, loop.inline, steps.inline = nil, nil, 0, 0
			if !equalRuns(loop, steps) {
				t.Fatalf("end state differs:\nloop       %+v\nSpendSteps %+v", loop, steps)
			}
		})
	}
}

func equalRuns(a, b stepsRun) bool {
	return slices.Equal(a.log, b.log) && a.end == b.end && a.events == b.events &&
		a.cycles == b.cycles && a.inline == b.inline
}

// decodeStepScenario builds a scenario from fuzz bytes: a Suspend time, a
// Resume delay, an interrupt time and a byte whose low six bits are the
// task's plain spend before the sequence and whose bit 6 starts the
// sequence with a step; then one step per byte (low three bits its spend;
// bit 3 raises the local vector, bit 4 the remote one; bits 5-6 a spend
// inside the step; bit 7 a wait instead of the spend). The last step ends
// the sequence. The queue is also woken every 16 cycles, so every wait
// ends.
func decodeStepScenario(data []byte) (stepScenario, bool) {
	if len(data) < 5 {
		return stepScenario{}, false
	}
	suspendAt, resumeAfter, raiseAt := uint64(data[0]), uint64(data[1]), uint64(data[2])
	raw := data[4:min(len(data), 4+48)]
	return stepScenario{
		pre:      uint64(data[3] & 63),
		first:    uint64(raw[0] & 7),
		fromStep: data[3]&64 != 0,
		tick:     16,
		steps: func(local, remote *IRQ) []scriptStep {
			steps := make([]scriptStep, len(raw))
			for i, b := range raw {
				steps[i] = scriptStep{n: uint64(b & 7), spend: uint64(b>>5) & 3, wait: b&128 != 0}
				if b&8 != 0 {
					steps[i].raise = local
				}
				if b&16 != 0 {
					steps[i].raise = remote
				}
			}
			steps[len(steps)-1].end = true
			return steps
		},
		setup: func(r stepRig) {
			r.e.Schedule(suspendAt, r.stepper.Suspend)
			r.e.Schedule(suspendAt+resumeAfter, r.stepper.Resume)
			r.e.Schedule(raiseAt, r.local.Raise)
		},
	}, true
}

// FuzzSpendSteps checks SpendSteps and Steps against the written-out loop
// on scenarios decoded from bytes: step spends (zero included) and waits,
// interrupts raised by steps on either CPU, steps the task runs because
// they spend, a plain spend before the sequence, and a Suspend/Resume and
// an interrupt at any time. Seeds beyond those below are in
// testdata/fuzz/FuzzSpendSteps.
func FuzzSpendSteps(f *testing.F) {
	f.Add([]byte{40, 12, 16, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{8, 22, 30, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{200, 1, 9, 0, 3, 0x0b, 0, 0x08, 0x23, 0x13, 3, 0x60, 1, 0x4a})
	f.Add([]byte{5, 0, 5, 0, 0, 0, 0x08, 0, 0x21, 0x10, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, ok := decodeStepScenario(data)
		if !ok {
			return
		}
		loop := runStepScenario(sc, true)
		steps := runStepScenario(sc, false)
		steps.inline, loop.inline = 0, 0
		if !equalRuns(loop, steps) {
			t.Fatalf("SpendSteps differs from the loop:\nloop       %+v\nSpendSteps %+v", loop, steps)
		}
	})
}

// repeat is a Stepper that spends k cycles per step until the clock
// reaches a multiple of every.
type repeat struct {
	t        *Task
	k, every uint64
}

func (s *repeat) Inline() bool { return true }

func (s *repeat) Step() (uint64, *WaitQ, bool) { return s.k, nil, s.t.Now()%s.every != 0 }

// TestSpendStepsRoundAllocatesNothing checks that once warm, a task calling
// SpendSteps over and over, each call running several steps, allocates
// nothing: neither entering and leaving the sequence nor its inline steps.
func TestSpendStepsRoundAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	c := New(e, "cpu0")
	c.NewTask("stepper", PrioUser, DomainUser, func(t *Task) {
		s := &repeat{t: t, k: 2, every: 10}
		for {
			t.SpendSteps(2, s) // five spends, to the next multiple of 10
			t.Spend(1)
		}
	})
	e.RunUntil(100)
	if allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 11) }); allocs != 0 {
		t.Errorf("SpendSteps round allocated %.1f times, want 0", allocs)
	}
}
