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
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Domain returns the task's accounting domain.
func (t *Task) Domain() Domain { return t.domain }

// Consumed reports total cycles the task has spent.
func (t *Task) Consumed() uint64 { return t.consumed }

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
	for {
		if t.state == taskRunning && t.cpu.needResched(t) {
			t.depose(true)
		}
		if t.state != taskRunning {
			t.proc.Park()
			continue
		}
		if t.remaining == 0 {
			return
		}
		t.armSpend()
		t.proc.Park()
		// Loop: the wake was either spend completion (remaining == 0,
		// still running), a re-grant after preemption, or stale.
	}
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

func (t *Task) account(cycles uint64) {
	t.consumed += cycles
	t.cpu.spent[t.domain] += cycles
}

// depose surrenders the CPU: the task goes back to its ready queue (at the
// front when the surrender is involuntary) and the scheduler picks the next
// task. The caller is responsible for parking afterwards.
func (t *Task) depose(front bool) {
	c := t.cpu
	t.state = taskReady
	c.enqueue(t, front)
	c.running = nil
	c.notifyRun(t, nil)
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
	q.tasks = append(q.tasks, t)
	t.Block()
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
