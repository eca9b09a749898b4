// Package udm is the user-level half of the UDM (User Direct Messaging)
// model: message injection and extraction, explicit atomicity control, and
// the handler-dispatch runtime that serves as the user-level interrupt.
//
// In the common case the library talks straight to the network interface —
// that is the fast case of two-case delivery. When the kernel has shifted
// the process to buffered mode, the very same calls transparently read the
// software buffer instead (the base-register indirection of Section 4.3);
// application code cannot tell the difference except in cycles.
package udm

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/faultinject"
	"fugu/internal/glaze"
	"fugu/internal/metrics"
	"fugu/internal/nic"
)

// Handler is a user message handler, invoked once per incoming message with
// the handler environment and the extracted message. Handlers run in an
// atomic section (interrupt-model semantics) or at elevated priority
// (buffered mode); either way they are atomic with respect to other
// handlers and threads of the same process.
type Handler func(e *Env, m *Msg)

// Msg is one extracted message. The wrapper has already read the words out
// of the network interface (or the buffered copy) and disposed the message,
// so handlers are free to inject.
//
// A Msg passed to a Handler (and the Env alongside it) is valid only for
// the duration of the call: the runtime recycles both once the handler
// returns. That holds for bulk transfers too: the reassembled payload in
// Args is reused by a later transfer. Handlers that need the payload later
// must copy Args. Messages returned by Peek are not recycled.
type Msg struct {
	Handler uint64   // handler address word
	Args    []uint64 // payload words
	Fast    bool     // true if delivered on the direct path
	Bulk    bool     // true if reassembled from a bulk transfer
}

// Env is the execution environment passed to handlers and application
// threads: the simulated task plus the endpoint.
type Env struct {
	T         *cpu.Task
	EP        *EP
	inHandler bool
}

// EP is a process's UDM endpoint: the user-level runtime bound to one
// glaze process on one node.
type EP struct {
	p        *glaze.Process
	cost     glaze.CostModel
	handlers map[uint64]Handler

	// inj is the machine's fault injector (nil on fault-free machines):
	// handler dispatch is where synthetic page faults and forced quantum
	// expiries land.
	inj *faultinject.Injector

	// Bulk-transfer reassembly state.
	bulk     map[uint64]bulkXfer
	nextXfer uint32

	// Free lists recycling the per-delivery Msg and Env objects (valid only
	// for the handler call, see Msg). Plain LIFO stacks: deliveries nest
	// (a handler that faults or polls can trigger another delivery before
	// its own Msg is released) and interleave across tasks, and a free list
	// only needs release-once discipline to stay correct.
	msgFree []*Msg
	envFree []*Env
	// scratchFree recycles the payload slices handed out by Scratch.
	scratchFree [][]uint64
	// act is the message-handling activity's step sequence. stepsFree
	// lists the free states of poll loops and output stalls (see steps),
	// starting with steps0, so a main thread's poll or stall and a
	// handler's stall overlapping it allocate nothing.
	act       steps
	stepsFree *steps
	steps0    [2]steps

	// Statistics.
	Sent      uint64
	Delivered uint64 // messages run through handlers on this node
	// HandlerCycles holds the cycles of each delivery, handler body
	// included. It is this endpoint's own, not in the node registry,
	// which the node's other processes share.
	HandlerCycles metrics.Histogram

	// Metrics instruments, bound to the process's node registry.
	mSent      *metrics.Counter
	mDelivered *metrics.Counter
	mHandler   *metrics.Histogram
}

// Attach builds the endpoint for a process and installs its
// message-handling activity, the task the kernel signals.
func Attach(p *glaze.Process) *EP {
	ep := &EP{
		p:        p,
		cost:     p.Kernel().Cost(),
		handlers: make(map[uint64]Handler),
		inj:      p.Kernel().Machine().Faults,
	}
	r := p.Metrics()
	ep.mSent = r.Counter("udm.sent")
	ep.mDelivered = r.Counter("udm.delivered")
	ep.mHandler = r.Histogram("udm.handler_cycles")
	ep.steps0[0].next = &ep.steps0[1]
	ep.stepsFree = &ep.steps0[0]
	p.Activity = ep.activity
	ep.registerBulk()
	return ep
}

// Process exposes the underlying kernel process (stats, mode).
func (ep *EP) Process() *glaze.Process { return ep.p }

// Node returns the endpoint's node index.
func (ep *EP) Node() int { return ep.p.Node() }

// MaxArgs returns the largest argument count a single message can carry,
// set by the NI's send descriptor capacity. Larger transfers are chunked by
// higher layers (FUGU used a DMA engine for bulk data).
func (ep *EP) MaxArgs() int { return ep.p.NI().OutputWords() - 2 }

// On registers a handler for a handler-address word. Registration must
// precede any message carrying the id; it models loading the handler's code
// address.
func (ep *EP) On(id uint64, h Handler) {
	if _, dup := ep.handlers[id]; dup {
		panic(fmt.Sprintf("udm: duplicate handler id %d", id))
	}
	ep.handlers[id] = h
}

// Env makes a handler environment for application thread code.
func (ep *EP) Env(t *cpu.Task) *Env { return &Env{T: t, EP: ep} }

// ---------------------------------------------------------------------------
// Injection

// Inject sends a message: the blocking inject of the UDM model. It stalls
// (spending cycles, as a blocked store does) while the output interface
// drains, honours overflow-control throttling, and charges the Table 4 send
// cost: 7 cycles for a null message plus 3 per argument word.
func (e *Env) Inject(dst int, handler uint64, args ...uint64) {
	ep := e.EP
	ep.p.WaitThrottle(e.T)
	ni := ep.p.NI()
	need := len(args) + 2
	for ni.SpaceAvailable() < need {
		// Blocking-store semantics: the processor stalls a cycle at a time
		// until the descriptor buffer drains or overflow control throttles
		// the process. Interrupts still preempt.
		s := ep.getSteps(e.T, stageStall)
		s.need = need
		e.T.SpendSteps(1, s)
		ep.putSteps(s)
		ep.p.WaitThrottle(e.T)
	}
	ep.injectReady(e.T, dst, handler, args)
}

// InjectC is the conditional, non-blocking inject: it reports false without
// sending if the interface cannot accept the message right now.
func (e *Env) InjectC(dst int, handler uint64, args ...uint64) bool {
	ep := e.EP
	if ep.p.Throttled() {
		return false
	}
	if ep.p.NI().SpaceAvailable() < len(args)+2 {
		return false
	}
	ep.injectReady(e.T, dst, handler, args)
	return true
}

// injectReady performs describe+launch once space is known to be available.
func (ep *EP) injectReady(t *cpu.Task, dst int, handler uint64, args []uint64) {
	ni := ep.p.NI()
	t.Spend(ep.cost.SendCost(len(args)))
	// Two Describe stores rather than assembling a temporary slice: the
	// descriptor buffer copies the words, so the variadic args stay on the
	// caller's stack and inject performs no per-message allocation here.
	ni.Describe(nic.MakeHeader(dst), handler)
	ni.Describe(args...)
	if trap := ni.Launch(false); trap != nic.TrapNone {
		panic(fmt.Sprintf("udm: launch trapped %v", trap))
	}
	ep.Sent++
	ep.mSent.Inc()
}

// ---------------------------------------------------------------------------
// Atomicity

// BeginAtomic enters an atomic section: message interrupts are deferred and
// the application may poll. Maps to beginatom(interrupt-disable).
func (e *Env) BeginAtomic() {
	e.T.Spend(1)
	if trap := e.EP.p.NI().BeginAtom(nic.UACInterruptDisable, false); trap != nic.TrapNone {
		panic(fmt.Sprintf("udm: beginatom trapped %v", trap))
	}
}

// EndAtomic leaves an atomic section; a pending message may immediately
// interrupt. Under virtual atomicity this is where the kernel regains
// control (the atomicity-extend trap) and resumes buffered delivery.
func (e *Env) EndAtomic() {
	e.T.Spend(1)
	e.EP.p.Kernel().UserEndAtom(e.T, e.EP.p, nic.UACInterruptDisable)
}

// Atomic reports whether the process currently holds user atomicity.
func (e *Env) Atomic() bool {
	return e.EP.p.NI().UAC()&nic.UACInterruptDisable != 0
}

// mayPoll reports whether p's tasks may poll: the process holds user
// atomicity, or a revoked atomic section is still open.
func mayPoll(p *glaze.Process) bool {
	return p.NI().UAC()&nic.UACInterruptDisable != 0 || p.AtomicVirtual()
}

// Touch accesses a data address, taking a demand zero-fill page fault if
// the page is not resident. A fault inside a handler forces the process
// into buffered mode, one of the paper's three transition causes.
func (e *Env) Touch(addr uint64) {
	e.EP.p.Kernel().Touch(e.T, e.EP.p, addr, e.inHandler)
}

// Spend consumes computation cycles (application work).
func (e *Env) Spend(n uint64) { e.T.Spend(n) }

// Now returns the simulation time.
func (e *Env) Now() uint64 { return e.T.Now() }
