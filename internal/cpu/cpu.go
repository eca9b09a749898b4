// Package cpu models one node's processor: a single execution resource shared
// by prioritized tasks (user threads, user message handlers, kernel threads
// and interrupt service routines) with cycle-accurate, preemptible time
// accounting.
//
// The model matches what the FUGU experiments need from Sparcle: code costs
// cycles (Task.Spend), interrupts preempt lower-priority work at instruction
// boundaries, kernel handlers run with interrupts effectively masked (ISR
// tasks are non-preemptible), and the atomicity timer can observe exactly
// which domain (user or kernel) is consuming cycles via run listeners.
package cpu

import (
	"fmt"

	"fugu/internal/sim"
)

// Priority orders tasks; higher values preempt lower ones. The levels mirror
// the FUGU software stack: background user threads, the elevated
// message-handling thread used in buffered mode, kernel threads (pager,
// drain), and interrupt service routines.
type Priority int

// Task priority levels, lowest first.
const (
	PrioUser Priority = iota + 1
	PrioHandler
	PrioKernel
	PrioISR
)

func (p Priority) String() string {
	switch p {
	case PrioUser:
		return "user"
	case PrioHandler:
		return "handler"
	case PrioKernel:
		return "kernel"
	case PrioISR:
		return "isr"
	default:
		return fmt.Sprintf("prio(%d)", int(p))
	}
}

// Domain classifies cycles for accounting and for the atomicity timer, which
// by Table 3 of the paper decrements only during user cycles.
type Domain int

// Execution domains.
const (
	DomainUser Domain = iota
	DomainKernel
)

// RunListener observes which task occupies the CPU. Transitions are
// delivered with prev or next nil for idle. The NI atomicity timer uses this
// to count user cycles only.
type RunListener interface {
	RunChange(now uint64, prev, next *Task)
}

// CPU is one node's processor.
type CPU struct {
	eng  *sim.Engine
	name string

	ready   [PrioISR + 1][]*Task // FIFO per priority; index 0 unused
	running *Task

	listeners []RunListener
}

// New returns a CPU bound to the engine. name tags diagnostics (e.g. "cpu3").
func New(eng *sim.Engine, name string) *CPU {
	return &CPU{eng: eng, name: name}
}

// Name returns the CPU's diagnostic name.
func (c *CPU) Name() string { return c.name }

// Running returns the task currently occupying the CPU, or nil when idle.
func (c *CPU) Running() *Task { return c.running }

// AddRunListener registers a listener for occupancy transitions.
func (c *CPU) AddRunListener(l RunListener) {
	c.listeners = append(c.listeners, l)
}

func (c *CPU) notifyRun(prev, next *Task) {
	for _, l := range c.listeners {
		l.RunChange(c.eng.Now(), prev, next)
	}
}

// enqueue appends t to its ready queue; front selects involuntary-preemption
// placement at the head so a preempted task resumes before its peers.
func (c *CPU) enqueue(t *Task, front bool) {
	q := c.ready[t.prio]
	if front {
		// Shift in place rather than rebuilding the slice: preemptions are
		// frequent enough that the copy beats an allocation per enqueue.
		q = append(q, nil)
		copy(q[1:], q)
		q[0] = t
		c.ready[t.prio] = q
	} else {
		c.ready[t.prio] = append(q, t)
	}
}

func (c *CPU) pickReady() *Task {
	for p := PrioISR; p >= PrioUser; p-- {
		if q := c.ready[p]; len(q) > 0 {
			t := q[0]
			copy(q, q[1:])
			c.ready[p] = q[:len(q)-1]
			return t
		}
	}
	return nil
}

// removeReady deletes t from its ready queue (Suspend of a ready task).
func (c *CPU) removeReady(t *Task) {
	q := c.ready[t.prio]
	for i, x := range q {
		if x == t {
			c.ready[t.prio] = append(q[:i], q[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("cpu %s: %s not in ready queue", c.name, t.name))
}

func (c *CPU) highestReadyPrio() Priority {
	for p := PrioISR; p >= PrioUser; p-- {
		if len(c.ready[p]) > 0 {
			return p
		}
	}
	return 0
}

// schedule grants the CPU to the best ready task if the CPU is free. It is
// safe to call from any context: the grant is delivered through an event.
func (c *CPU) schedule() {
	if c.running != nil {
		return
	}
	t := c.pickReady()
	if t == nil {
		return
	}
	t.state = taskRunning
	c.running = t
	c.notifyRun(nil, t)
	c.wakeProc(t)
}

// wakeProc delivers a wake to t's proc unless one is already pending (the
// spawn dispatch, or a grant that was preempted in the same instant). Stale
// wakes are absorbed by the task's state-checked park loops.
func (c *CPU) wakeProc(t *Task) {
	if !t.proc.HasPendingWake() {
		c.eng.Wake(t.proc)
	}
}

// release clears the running task (which must be t) and hands the CPU to the
// next ready task.
func (c *CPU) release(t *Task) {
	if c.running != t {
		panic(fmt.Sprintf("cpu %s: release by %s but running %v", c.name, t.name, c.running))
	}
	c.running = nil
	c.notifyRun(t, nil)
	c.schedule()
}

// needResched reports whether t should yield to a higher-priority ready task.
func (c *CPU) needResched(t *Task) bool {
	return t.preemptible && c.highestReadyPrio() > t.prio
}

// maybePreempt performs an active preemption of the running task if a
// higher-priority task is ready. It must be called from event context (the
// running task, if any, is parked mid-Spend, so its balance can be saved).
func (c *CPU) maybePreempt() {
	t := c.running
	if t == nil {
		c.schedule()
		return
	}
	if !c.needResched(t) {
		return
	}
	if c.eng.Current() != nil {
		panic("cpu: maybePreempt from proc context")
	}
	t.suspendSpend()
	t.depose(true)
}

// kick is the universal "something became ready" notification: from event
// context it may actively preempt; from task context the running task will
// observe needResched at its next Spend boundary, so only scheduling of a
// free CPU is needed.
func (c *CPU) kick() {
	if c.eng.Current() == nil {
		c.maybePreempt()
	} else {
		c.schedule()
	}
}

// ReadyCount reports how many tasks are queued runnable (excluding running).
func (c *CPU) ReadyCount() int {
	n := 0
	for p := PrioUser; p <= PrioISR; p++ {
		n += len(c.ready[p])
	}
	return n
}
