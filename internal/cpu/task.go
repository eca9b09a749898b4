package cpu

import (
	"fmt"

	"fugu/internal/sim"
)

type taskState int

const (
	taskReady taskState = iota
	taskRunning
	taskBlocked
	taskDone
	taskSuspended
)

// Task is a schedulable activity on a CPU. Task code runs inside a simulated
// coroutine; it consumes simulated time only through Spend (and the blocking
// primitives), so code between Spend calls executes in zero simulated time,
// the usual convention for this style of simulator.
//
// Wake-up discipline: a task's proc may receive stale wakes (a grant that was
// preempted in the same instant, or the initial spawn dispatch). Every park
// point therefore loops until state == taskRunning; the scheduler in turn
// never double-wakes a proc that already has a pending wake.
type Task struct {
	cpu    *CPU
	proc   *sim.Proc
	name   string
	prio   Priority
	domain Domain
	state  taskState

	// preemptible is false for ISR tasks: interrupts are masked in kernel
	// interrupt handlers, matching FUGU.
	preemptible bool

	// Spend bookkeeping. spendFn is the completion callback, built once at
	// task creation so arming a spend schedules an existing closure instead
	// of allocating a fresh one per Spend.
	remaining  uint64
	spendStart uint64
	spendEv    sim.Handle
	spendFn    func()

	consumed uint64 // total cycles this task has spent

	// Step-sequence state (SpendSteps, Steps): the Stepper of the sequence
	// whose spend or wait the task is in, read by the proc's re-arm hook
	// (rearmer) and nil while the task runs a step itself, and the hook's
	// note that a step it ran ended the sequence.
	steps      Stepper
	stepsEnded bool

	// waitQ is the queue the task blocked on, kept until the task takes
	// the grant that ends the wait.
	waitQ *WaitQ

	// Scheduler gate (Suspend/Resume).
	suspended  bool
	wakeBanked bool
}

// NewTask creates a ready task that will run fn when first granted the CPU.
// ISR tasks should be created through NewIRQ instead.
func (c *CPU) NewTask(name string, prio Priority, domain Domain, fn func(*Task)) *Task {
	t := &Task{
		cpu:         c,
		name:        name,
		prio:        prio,
		domain:      domain,
		state:       taskReady,
		preemptible: prio != PrioISR,
	}
	t.spendFn = func() {
		t.account(t.remaining)
		t.remaining = 0
		t.spendEv = sim.Handle{}
		t.cpu.wakeProc(t)
	}
	t.proc = c.eng.Spawn(name, func(p *sim.Proc) {
		t.waitGrant()
		fn(t)
		t.state = taskDone
		c.release(t)
	})
	t.proc.SetSite(siteTaskWake)
	c.enqueue(t, false)
	c.kick()
	return t
}

// siteTaskWake labels task wake/resume events for the engine cost
// profiler; higher layers override per-domain via SetWakeSite.
var siteTaskWake = sim.NewSite("cpu.task.wake")

// SetWakeSite relabels this task's wake events for the cost profiler, so
// a layer that knows what the task is for (a udm handler thread, a glaze
// kernel daemon) can attribute its resumes to that domain.
func (t *Task) SetWakeSite(s sim.Site) { t.proc.SetSite(s) }

// waitGrant parks until the scheduler has made this task the running one,
// absorbing stale wake-ups.
func (t *Task) waitGrant() {
	for t.state != taskRunning {
		t.proc.Park()
	}
	t.waitQ = nil
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Domain returns the task's accounting domain.
func (t *Task) Domain() Domain { return t.domain }

// Consumed reports total cycles the task has spent.
func (t *Task) Consumed() uint64 { return t.consumed }

// Resumes reports how many times the task's coroutine has been resumed
// from a park (sim.Proc.Resumes); wakes its re-arm hook takes do not count.
func (t *Task) Resumes() uint64 { return t.proc.Resumes() }

// BlockedOn names the wait queue the task is blocked on, or returns "" when
// it is not blocked on one.
func (t *Task) BlockedOn() string {
	if t.state != taskBlocked || t.waitQ == nil {
		return ""
	}
	return t.waitQ.name
}

// Done reports whether the task function has returned.
func (t *Task) Done() bool { return t.state == taskDone }

// Blocked reports whether the task is blocked.
func (t *Task) Blocked() bool { return t.state == taskBlocked }

// Now returns the current simulation time.
func (t *Task) Now() uint64 { return t.cpu.eng.Now() }

// assertRunning panics unless t is the live running task; all
// time-consuming task methods require it.
func (t *Task) assertRunning() {
	if t.cpu.running != t || t.state != taskRunning {
		panic(fmt.Sprintf("cpu: %s used while not running (state %d)", t.name, t.state))
	}
}

// Spend consumes n cycles of CPU time. It is a preemption point: a
// higher-priority ready task (typically an ISR) takes the CPU first, and the
// spend resumes afterwards with the balance intact. Spend(0) is a pure
// preemption point.
func (t *Task) Spend(n uint64) {
	t.assertRunning()
	t.remaining += n
	t.spend()
}

// spend runs the balance down, parking across preemptions. In a step
// sequence it also waits out a step's wait: once the task holds the CPU
// again it returns with no preemption check, as code after q.Wait runs. It
// returns early only in a sequence, when a step run by the re-arm hook
// ended it.
func (t *Task) spend() {
	for {
		if t.state == taskRunning {
			if t.waitQ != nil {
				t.waitQ = nil
				return
			}
			if t.cpu.needResched(t) {
				t.depose(true)
			} else if t.remaining == 0 {
				return
			} else {
				t.armSpend()
			}
		}
		// The wake is either spend completion (remaining == 0, still
		// running), a grant after preemption or a wait, or stale.
		t.proc.Park()
		if t.stepsEnded {
			return
		}
	}
}

// Stepper is the work between the spends and waits of a step sequence
// (SpendSteps, Steps).
type Stepper interface {
	// Step runs the work that follows a spend or a wait and returns what
	// comes next: a spend of n cycles, or with w non-nil a wait on w. more
	// is false when the sequence ends instead. A zero spend is a bare
	// preemption point, as Spend(0) is.
	Step() (n uint64, w *WaitQ, more bool)
	// Inline reports whether the next Step may run in engine context, at
	// the wake that ends the spend or wait before it. It is asked only
	// there, and must change nothing. A Step that may spend, block or trap
	// into code that does must run in the task, so Inline answers false
	// for it.
	Inline() bool
}

// SpendSteps spends n cycles, then runs s's steps, each followed by the
// spend or wait it returns, until a step ends the sequence. It is exactly
//
//	for {
//		if w != nil {
//			w.Wait(t)
//		} else {
//			t.Spend(n)
//		}
//		var more bool
//		if n, w, more = s.Step(); !more {
//			return
//		}
//	}
//
// starting with w nil, with the same cycles, events and preemption points.
// But when a spend ends with the task still running, its balance spent and
// no preemption due, or a wait ends with the task granted the CPU, and
// s.Inline allows it, the proc's re-arm hook runs the next step at that
// wake and arms the spend or enters the wait after it, without resuming
// the task's coroutine. Such a step runs in engine context with the
// engine's Current reporting the task's proc, so whatever it readies is
// seen as readied by the task. A sequence of cheap steps between spends,
// such as a polling loop or a receive up to its handler, then costs no
// coroutine switch per spend. A step the task runs itself spends plainly.
func (t *Task) SpendSteps(n uint64, s Stepper) {
	t.assertRunning()
	t.runSteps(s, n, nil)
}

// Steps is SpendSteps with no spend first: the task runs s's first step
// itself, then goes on as SpendSteps does with the spend or wait it
// returns.
func (t *Task) Steps(s Stepper) {
	t.assertRunning()
	if n, w, more := s.Step(); more {
		t.runSteps(s, n, w)
	}
}

// runSteps is the loop of SpendSteps from a spend of n or, with w non-nil,
// a wait on w. While the task is in the sequence's spends and waits, its
// proc carries the re-arm hook and t.steps is s; while it runs a step
// itself, neither, so the step's own spends are plain and a sequence inside
// it nests.
func (t *Task) runSteps(s Stepper, n uint64, w *WaitQ) {
	for {
		t.steps = s
		t.proc.SetRearm((*rearmer)(t))
		if w != nil {
			w.block(t)
		} else {
			t.assertRunning()
			t.remaining += n
		}
		t.spend()
		t.steps = nil
		t.proc.SetRearm(nil)
		if t.stepsEnded {
			t.stepsEnded = false
			return
		}
		var more bool
		if n, w, more = s.Step(); !more {
			return
		}
	}
}

// rearmer is a Task seen as its proc's sim.Rearmer: the hook runSteps
// installs for a sequence, and depose and Suspend for a plain Spend, so the
// grant that gives the CPU back re-arms the balance.
type rearmer Task

// Rearm runs, at a wake of the task, what the task would run on resuming.
// A stale wake leaves it parked. A spend with balance left is re-armed, or
// the task deposed if a preemption is due. A plain Spend that is over
// resumes the task and removes the hook. In a sequence, a spend over with
// no preemption due, or a wait over (with no preemption check, as after
// q.Wait), is followed by the next step if s.Inline allows it, and the
// hook acts on what the step returns as the task would: it arms a spend,
// or keeps it as the balance and deposes the task if a preemption is due,
// goes on after a zero spend, or enters a wait. A step that ends the
// sequence resumes the task past its spend or wait, with no second
// preemption check; a step Inline refuses resumes the task to run it.
func (h *rearmer) Rearm() bool {
	t := (*Task)(h)
	c := t.cpu
	if c.running != t || t.state != taskRunning {
		return true
	}
	if t.waitQ == nil && (t.remaining != 0 || t.steps != nil) {
		if c.needResched(t) {
			t.depose(true)
			return true
		}
		if t.remaining != 0 {
			t.armSpend()
			return true
		}
	}
	if t.steps == nil {
		t.proc.SetRearm(nil)
		return false
	}
	for t.steps.Inline() {
		t.waitQ = nil
		n, w, more := t.steps.Step()
		if !more {
			t.stepsEnded = true
			return false
		}
		if w != nil {
			w.block(t)
			return true
		}
		t.remaining = n
		if c.needResched(t) {
			t.depose(true)
			return true
		}
		if n != 0 {
			t.armSpend()
			return true
		}
	}
	return false
}

// armSpend schedules the completion event for the current balance.
func (t *Task) armSpend() {
	t.spendStart = t.cpu.eng.Now()
	t.spendEv = t.cpu.eng.ScheduleSite(siteSpend, t.remaining, t.spendFn)
}

// siteSpend labels cycle-spend completions for the engine cost profiler.
var siteSpend = sim.NewSite("cpu.spend")

// suspendSpend cancels an in-flight spend completion, charging the elapsed
// portion. Called (from event context) when t is preempted while parked.
func (t *Task) suspendSpend() {
	if !t.spendEv.Pending() {
		return
	}
	elapsed := t.cpu.eng.Now() - t.spendStart
	t.cpu.eng.Cancel(t.spendEv)
	t.spendEv = sim.Handle{}
	if elapsed >= t.remaining {
		elapsed = t.remaining
	}
	t.account(elapsed)
	t.remaining -= elapsed
}

func (t *Task) account(cycles uint64) { t.consumed += cycles }

// depose surrenders the CPU: the task goes back to its ready queue (at the
// front when the surrender is involuntary) and the scheduler picks the next
// task. The caller is responsible for parking afterwards; the re-arm hook
// takes the grant that ends the wait.
func (t *Task) depose(front bool) {
	c := t.cpu
	t.state = taskReady
	c.enqueue(t, front)
	c.running = nil
	c.notifyRun(t, nil)
	t.proc.SetRearm((*rearmer)(t))
	c.schedule()
}

// Block surrenders the CPU and parks until Unblock and a fresh grant.
// The caller typically registers t somewhere (a wait queue, an IRQ pending
// list) first.
func (t *Task) Block() {
	t.assertRunning()
	t.state = taskBlocked
	t.cpu.release(t)
	t.waitGrant()
}

// Unblock makes a blocked task ready. Safe from any context. Unblocking a
// task that is not blocked panics: it indicates a lost-wakeup protocol bug
// in the caller. If the task was suspended while blocked, the wake is
// banked: it becomes runnable when resumed.
func (t *Task) Unblock() {
	if t.state != taskBlocked {
		panic(fmt.Sprintf("cpu: Unblock of %s in state %d", t.name, t.state))
	}
	if t.suspended {
		t.state = taskSuspended
		t.wakeBanked = true
		return
	}
	t.state = taskReady
	t.cpu.enqueue(t, false)
	t.cpu.kick()
}

// Suspend makes the task ineligible to run until Resume: the scheduler-level
// gate the gang scheduler uses to deschedule a process mid-quantum. A
// running task is preempted with its Spend balance intact; a blocked task
// stays blocked and its eventual wake is banked.
func (t *Task) Suspend() {
	if t.suspended {
		return
	}
	t.suspended = true
	switch t.state {
	case taskDone:
		return
	case taskBlocked:
		// Stays blocked; Unblock will park it in taskSuspended.
	case taskReady:
		t.cpu.removeReady(t)
		t.state = taskSuspended
	case taskRunning:
		if t.cpu.eng.Current() != nil {
			panic(fmt.Sprintf("cpu: Suspend of running %s from task context", t.name))
		}
		t.suspendSpend()
		t.state = taskSuspended
		t.cpu.running = nil
		t.cpu.notifyRun(t, nil)
		t.proc.SetRearm((*rearmer)(t))
		t.cpu.schedule()
	}
}

// Resume lifts a Suspend. A task suspended mid-Spend, from the ready queue,
// or whose blocking wake arrived while suspended becomes ready again; a task
// still blocked simply loses the gate.
func (t *Task) Resume() {
	if !t.suspended {
		return
	}
	t.suspended = false
	if t.state == taskSuspended {
		t.wakeBanked = false
		t.state = taskReady
		t.cpu.enqueue(t, false)
		t.cpu.kick()
	}
}

// StateName renders the task's scheduler state for diagnostics.
func (t *Task) StateName() string {
	var s string
	switch t.state {
	case taskReady:
		s = "ready"
	case taskRunning:
		s = "running"
	case taskBlocked:
		s = "blocked"
	case taskDone:
		s = "done"
	case taskSuspended:
		s = "suspended"
	default:
		s = fmt.Sprintf("state(%d)", int(t.state))
	}
	if t.suspended && t.state != taskSuspended && t.state != taskDone {
		s += "+gated"
	}
	return s
}

// WaitQ is a FIFO queue of blocked tasks, the task-level condition variable.
type WaitQ struct {
	name  string
	tasks []*Task
}

// NewWaitQ returns an empty wait queue.
func NewWaitQ(name string) *WaitQ { return &WaitQ{name: name} }

// Wait blocks the calling task until woken. Callers re-check their predicate
// in a loop, as with condition variables.
func (q *WaitQ) Wait(t *Task) {
	q.block(t)
	t.waitGrant()
}

// block is Wait up to the park: it queues and blocks the running task t,
// which remembers q until it takes the grant that ends the wait.
func (q *WaitQ) block(t *Task) {
	t.assertRunning()
	q.tasks = append(q.tasks, t)
	t.waitQ = q
	t.state = taskBlocked
	t.cpu.release(t)
}

// WakeOne readies the longest-waiting task, reporting whether one existed.
func (q *WaitQ) WakeOne() bool {
	if len(q.tasks) == 0 {
		return false
	}
	t := q.tasks[0]
	copy(q.tasks, q.tasks[1:])
	q.tasks = q.tasks[:len(q.tasks)-1]
	t.Unblock()
	return true
}

// WakeAll readies every waiting task in FIFO order, returning the count.
func (q *WaitQ) WakeAll() int {
	n := len(q.tasks)
	for _, t := range q.tasks {
		t.Unblock()
	}
	q.tasks = q.tasks[:0]
	return n
}

// Len reports how many tasks are waiting.
func (q *WaitQ) Len() int { return len(q.tasks) }
