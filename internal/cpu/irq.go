package cpu

// IRQ is an interrupt vector with a counting (edge-triggered) semantics: each
// Raise queues one handler invocation. The handler runs in a dedicated,
// non-preemptible ISR task at PrioISR, so interrupt handlers mask further
// interrupts for their duration and pending vectors are served FIFO — the
// behaviour of FUGU's kernel-level interrupt stubs.
type IRQ struct {
	cpu     *CPU
	name    string
	task    *Task
	handler func(*Task)
	pending int
}

// NewIRQ registers an interrupt vector on the CPU. handler runs once per
// Raise, in ISR context; it may Spend cycles, unblock tasks and raise other
// vectors, and should not block indefinitely.
func (c *CPU) NewIRQ(name string, handler func(*Task)) *IRQ {
	irq := &IRQ{cpu: c, name: name, handler: handler}
	irq.task = c.NewTask("isr:"+name, PrioISR, DomainKernel, func(t *Task) {
		for {
			for irq.pending > 0 {
				irq.pending--
				irq.handler(t)
			}
			t.Block()
		}
	})
	return irq
}

// Raise queues one invocation of the vector's handler. Safe from any
// context. If the CPU is running lower-priority work it is preempted at its
// next boundary (immediately, if it is mid-Spend).
func (irq *IRQ) Raise() {
	irq.pending++
	if irq.task.Blocked() {
		irq.task.Unblock()
	}
}

// Pending reports queued, not-yet-handled raises.
func (irq *IRQ) Pending() int { return irq.pending }

// Name returns the vector's diagnostic name.
func (irq *IRQ) Name() string { return irq.name }

// Task exposes the vector's ISR task (for cycle-accounting queries).
func (irq *IRQ) Task() *Task { return irq.task }
