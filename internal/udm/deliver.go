package udm

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/nic"
	"fugu/internal/sim"
)

// upcall is the body of the process's message-handling activity, installed
// as glaze.Process.Upcall. The kernel signals it on message-available
// interrupts, on buffer inserts and on mode transitions; it delivers every
// message it may and returns.
func (ep *EP) upcall(t *cpu.Task) {
	for {
		switch {
		case ep.p.CanDeliverBuffered():
			ep.deliverBuffered(t)
		case ep.p.CanDeliverFast() && ep.p.NI().UAC()&nic.UACInterruptDisable == 0:
			// A user-level message interrupt: the head is ours and the
			// application has interrupts enabled.
			ep.deliverInterrupt(t)
		default:
			return
		}
	}
}

// extract reads the head message through the transparent-access
// indirection, charging perWordCost per argument word, and disposes it.
// By the time it returns, the message is out of the queue and the handler
// may run and inject freely. The injection-to-disposal span lands in the
// per-path end-to-end latency histogram.
func (ep *EP) extract(t *cpu.Task, perWordCost uint64) *Msg {
	p := ep.p
	fast := !p.Buffered()
	id, sentAt, haveHead := p.Head()
	n := p.MsgLen()
	if n < 2 {
		panic(fmt.Sprintf("udm: malformed message of %d words", n))
	}
	m := ep.getMsg(n - 2)
	m.Handler = p.MsgWord(1)
	m.Fast = fast
	for i := range m.Args {
		m.Args[i] = p.MsgWord(2 + i)
	}
	if c := perWordCost * uint64(len(m.Args)); c > 0 {
		t.Spend(c)
	}
	rec := p.Kernel().Machine().Spans
	if rec != nil && haveHead {
		rec.Dispatch(t.Now(), id, m.Handler)
	}
	fastDispose := p.Kernel().UserDispose(t, p)
	if fast && !fastDispose {
		// Mid-read mode flip: the word-read Spend above let a context switch
		// divert the half-read head into the second-case store, so the
		// dispose just drained it from there. The receive is charged and
		// tallied as a fast delivery (the words came off the NI) while the
		// kernel also booked the insert as a buffered one — tell the span
		// recorder so reconciliation credits the span to both paths.
		if rec != nil && haveHead {
			rec.FlipFast(t.Now(), id, p.Node())
		}
	}
	if haveHead {
		p.ObserveLatency(fast, t.Now()-sentAt)
	}
	return m
}

// run dispatches the message to its registered handler, then recycles the
// Msg and Env: both are handler-call-scoped (see Msg).
func (ep *EP) run(t *cpu.Task, m *Msg) {
	h, ok := ep.handlers[m.Handler]
	if !ok {
		panic(fmt.Sprintf("udm: node %d: no handler registered for id %d", ep.Node(), m.Handler))
	}
	ep.Delivered++
	ep.mDelivered.Inc()
	e := ep.getEnv()
	e.T = t
	e.inHandler = true
	if ep.inj != nil {
		// The message is already extracted and disposed, so neither fault
		// can lose it; arrivals during the disruption mismatch and buffer.
		if ep.inj.HandlerFault(ep.p.Node()) {
			ep.p.Kernel().SyntheticHandlerFault(t, ep.p)
		}
		if d, ok := ep.inj.QuantumExpiry(ep.p.Node()); ok {
			ep.p.Kernel().ForceQuantumExpiry(ep.p, d)
		}
	}
	h(e, m)
	ep.putEnv(e)
	ep.putMsg(m)
}

// getMsg pops a recycled Msg (or makes one) with Args sized to nArgs.
func (ep *EP) getMsg(nArgs int) *Msg {
	if n := len(ep.msgFree); n > 0 {
		m := ep.msgFree[n-1]
		ep.msgFree = ep.msgFree[:n-1]
		if cap(m.Args) >= nArgs {
			m.Args = m.Args[:nArgs]
		} else {
			m.Args = make([]uint64, nArgs)
		}
		m.Bulk = false
		return m
	}
	return &Msg{Args: make([]uint64, nArgs)}
}

func (ep *EP) putMsg(m *Msg) { ep.msgFree = append(ep.msgFree, m) }

func (ep *EP) getEnv() *Env {
	if n := len(ep.envFree); n > 0 {
		e := ep.envFree[n-1]
		ep.envFree = ep.envFree[:n-1]
		return e
	}
	return &Env{EP: ep}
}

func (ep *EP) putEnv(e *Env) { ep.envFree = append(ep.envFree, e) }

// deliverInterrupt is the fast-path interrupt receive of Table 4: stub
// overhead, atomic handler execution, cleanup.
func (ep *EP) deliverInterrupt(t *cpu.Task) {
	defer ep.observeDelivery(t, t.Consumed())
	p := ep.p
	ni := p.NI()
	t.Spend(ep.cost.RecvIntrPre())
	// The message-available stub starts the handler in an atomic section
	// and requires it to free a message before leaving it.
	if trap := ni.BeginAtom(nic.UACInterruptDisable, false); trap != nic.TrapNone {
		panic(fmt.Sprintf("udm: handler beginatom trapped %v", trap))
	}
	ni.SetUACKernel(nic.UACDisposePending, true)
	m := ep.extract(t, ep.cost.RecvPerArg) // includes the dispose
	t.Spend(ep.cost.NullHandler)
	if m.Fast {
		// Buffered messages were already tallied at kernel insert time;
		// counting here too would double-book a mid-read mode flip.
		p.CountDelivery(true)
	}
	ep.run(t, m)
	p.Kernel().UserEndAtom(t, p, nic.UACInterruptDisable)
	t.Spend(ep.cost.RecvIntrPost())
}

// deliverPolled is the polling receive of Table 4 (9 cycles for a null
// message). The caller must hold atomicity; the Poll cycle itself has
// already been charged by Poll.
func (ep *EP) deliverPolled(t *cpu.Task) {
	defer ep.observeDelivery(t, t.Consumed())
	p := ep.p
	t.Spend(ep.cost.PollDispatch)
	var m *Msg
	if !p.Buffered() {
		m = ep.extract(t, ep.cost.RecvPerArg)
		t.Spend(ep.cost.PollNullHandler)
	} else {
		m = ep.extract(t, ep.cost.BufferedPerArgTimes2/2)
		t.Spend(ep.cost.BufferedNullHandler)
	}
	if m.Fast {
		p.CountDelivery(true)
	}
	ep.run(t, m)
}

// deliverBuffered executes one handler from the software buffer (Table 5:
// 52 cycles plus ~4.5 per argument word). Handler atomicity comes from the
// elevated priority of the message-handling task, not from the UAC.
func (ep *EP) deliverBuffered(t *cpu.Task) {
	defer ep.observeDelivery(t, t.Consumed())
	t.Spend(ep.cost.BufferedNullHandler)
	m := ep.extract(t, ep.cost.BufferedPerArgTimes2/2)
	ep.run(t, m)
}

// observeDelivery records the cycles one delivery consumed — dispatch,
// extraction and handler body together, the quantity Table 6 calls T_hand.
func (ep *EP) observeDelivery(t *cpu.Task, before uint64) {
	n := t.Consumed() - before
	ep.HandlerCycles.Observe(n)
	ep.mHandler.Observe(n)
}

// Poll checks for and delivers at most one message in the caller's context:
// the polling notification mode of the UDM model. The caller must be inside
// an atomic section (BeginAtomic), or delivery would race the interrupt
// path. Returns whether a message was handled.
func (e *Env) Poll() bool {
	e.mustHoldAtomicity("Poll")
	e.T.Spend(e.EP.cost.Poll)
	return e.deliverAny()
}

// PollWait polls until at least one message has been handled. It burns
// poll cycles, which is what a polling processor does: it is exactly
// `for !e.Poll() {}`, with the empty polls spun by cpu.Task.SpendWhile.
func (e *Env) PollWait() { e.pollUntil(nil, 0) }

// PollFor polls until c reaches target, handling every message that
// arrives meanwhile (the handlers are what advance c). It is exactly
// `for c.Value() < target { e.Poll() }`, with the empty polls spun by
// cpu.Task.SpendWhile, so a polling wait costs simulated cycles per poll
// but no host coroutine switch per poll.
func (e *Env) PollFor(c *Counter, target uint64) { e.pollUntil(c, target) }

// pollUntil is the loop of PollWait (c nil: until one message is handled)
// and PollFor (until c reaches target). Each pass is one Poll whose empty
// repeats run as one spin.
func (e *Env) pollUntil(c *Counter, target uint64) {
	ep := e.EP
	for c == nil || c.n < target {
		e.mustHoldAtomicity("Poll")
		s := ep.getSpin()
		s.c, s.target = c, target
		e.T.SpendWhile(ep.cost.Poll, (*pollSpin)(s))
		ep.putSpin(s)
		if e.deliverAny() && c == nil {
			return
		}
	}
}

// pollSpin is the condition of a poll loop's spin: the poll found no
// message, the loop has not reached its target, and the next pass's
// atomicity check would pass.
type pollSpin spin

func (s *pollSpin) Holds() bool {
	return !s.p.HaveMessage() && (s.c == nil || s.c.n < s.target) && mayPoll(s.p)
}

// deliverAny is the second half of a poll: deliver the head message if
// there is one, and report whether there was.
func (e *Env) deliverAny() bool {
	if !e.EP.p.HaveMessage() {
		return false
	}
	e.EP.deliverPolled(e.T)
	return true
}

// mustHoldAtomicity panics unless the caller may poll.
func (e *Env) mustHoldAtomicity(op string) {
	if !mayPoll(e.EP.p) {
		panic("udm: " + op + " outside an atomic section")
	}
}

// Peek examines the next pending message without extracting it — the UDM
// peek operation. It returns nil when no message is available. Like Poll,
// the caller must hold atomicity; a later Poll (or handler dispatch after
// EndAtomic) performs the actual extraction.
func (e *Env) Peek() *Msg {
	ep := e.EP
	e.mustHoldAtomicity("Peek")
	e.T.Spend(ep.cost.Poll)
	p := ep.p
	if !p.HaveMessage() {
		return nil
	}
	n := p.MsgLen()
	m := &Msg{Handler: p.MsgWord(1), Fast: !p.Buffered(), Args: make([]uint64, n-2)}
	for i := range m.Args {
		m.Args[i] = p.MsgWord(2 + i)
	}
	var perWord uint64
	if m.Fast {
		perWord = ep.cost.RecvPerArg
	} else {
		perWord = ep.cost.BufferedPerArgTimes2 / 2
	}
	if c := perWord * uint64(len(m.Args)); c > 0 {
		e.T.Spend(c)
	}
	return m
}

// Spawn converts work into a user thread of the process — the UDM model's
// handler-to-thread conversion ("message handlers are occasionally or
// routinely converted to threads after executing only the minimal code
// required to communicate with the network interface"). The thread runs at
// ordinary user priority once the handler completes.
func (e *Env) Spawn(name string, fn func(e *Env)) {
	ep := e.EP
	t := ep.p.SpawnThread(name, func(t *cpu.Task) {
		fn(&Env{T: t, EP: ep})
	})
	// Handler-converted threads wake on their own cadence, not the
	// generic task clock: label them so the cost profiler can separate
	// UDM handler work from main-thread compute.
	t.SetWakeSite(siteHandlerWake)
}

// siteHandlerWake labels wakes of handler-converted UDM threads.
var siteHandlerWake = sim.NewSite("udm.handler.wake")
