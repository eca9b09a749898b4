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
	m, before := ep.receive(ep.getSteps(t, stageAtom), pathInterrupt, ep.cost.RecvIntrPre())
	ep.run(t, m)
	ep.p.Kernel().UserEndAtom(t, ep.p, nic.UACInterruptDisable)
	t.Spend(ep.cost.RecvIntrPost())
	ep.observeDelivery(t, before)
}

// deliverBuffered executes one handler from the software buffer (Table 5:
// 52 cycles plus ~4.5 per argument word). Handler atomicity comes from the
// elevated priority of the message-handling task, not from the UAC.
func (ep *EP) deliverBuffered(t *cpu.Task) {
	m, before := ep.receive(ep.getSteps(t, stageRead), pathBuffered, ep.cost.BufferedNullHandler)
	ep.run(t, m)
	ep.observeDelivery(t, before)
}

// receive runs s as a receive on path up to its handler: one
// cpu.Task.SpendSteps sequence starting with a spend of n cycles. Its
// stages run at the wakes of their spends, so a receive resumes its task
// once, for the handler. It returns the extracted message (nil when a poll
// found none) and the task's cycles when the delivery began.
func (ep *EP) receive(s *steps, path recvPath, n uint64) (*Msg, uint64) {
	s.path = path
	s.t.SpendSteps(n, s)
	m, before := s.m, s.before
	ep.putSteps(s)
	return m, before
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
func (e *Env) Poll() bool { return e.poll(nil, 0, true) }

// PollWait polls until at least one message has been handled. It burns
// poll cycles, which is what a polling processor does: it is exactly
// `for !e.Poll() {}`.
func (e *Env) PollWait() { e.pollUntil(nil, 0) }

// PollFor polls until c reaches target, handling every message that
// arrives meanwhile (the handlers are what advance c). It is exactly
// `for c.Value() < target { e.Poll() }`, so a polling wait costs simulated
// cycles per poll.
func (e *Env) PollFor(c *Counter, target uint64) { e.pollUntil(c, target) }

// pollUntil is the loop of PollWait (c nil: until one message is handled)
// and PollFor (until c reaches target).
func (e *Env) pollUntil(c *Counter, target uint64) {
	for c == nil || c.n < target {
		if e.poll(c, target, false) && c == nil {
			return
		}
	}
}

// poll is one pass of a poll loop, or with once set a single Poll: it polls
// until a poll finds a message or the loop is done, and delivers the
// message. The empty polls are steps of the receive, so they too cost no
// host coroutine switch. It reports whether a message was handled.
func (e *Env) poll(c *Counter, target uint64, once bool) bool {
	ep := e.EP
	ep.mustHoldAtomicity("Poll")
	s := ep.getSteps(e.T, stagePoll)
	s.c, s.target, s.once = c, target, once
	m, before := ep.receive(s, pathPoll, ep.cost.Poll)
	if m == nil {
		return false
	}
	ep.run(e.T, m)
	ep.observeDelivery(e.T, before)
	return true
}

// mustHoldAtomicity panics unless the endpoint's tasks may poll.
func (ep *EP) mustHoldAtomicity(op string) {
	if !mayPoll(ep.p) {
		panic("udm: " + op + " outside an atomic section")
	}
}

// steps is one cpu.Task.SpendSteps sequence in progress on the endpoint: a
// receive up to its handler, with a poll loop's empty polls, or a stalled
// inject. Its stages are the work between the sequence's spends. Sequences
// of the endpoint's tasks overlap (a handler can stall while the main
// thread polls), so each takes its own from the endpoint's free list. Held
// by pointer, it passes as a cpu.Stepper without allocating.
type steps struct {
	ep    *EP
	t     *cpu.Task
	path  recvPath
	stage stage

	// A poll loop: until a poll finds a message (c nil) or c reaches
	// target, or for one poll only (once).
	c      *Counter
	target uint64
	once   bool

	// The delivery in progress: the extracted message (nil until read),
	// the task's cycles when it began, and the head's span ID and send
	// time.
	m          *Msg
	before     uint64
	id, sentAt uint64
	haveHead   bool

	need int // a stalled inject's descriptor words

	next *steps // free-list link
}

// recvPath selects a receive's costs: Table 4's polled and interrupt
// receives and Table 5's buffered handler execution.
type recvPath uint8

const (
	pathPoll recvPath = iota
	pathInterrupt
	pathBuffered
)

// stage is the work a steps runs after its current spend.
type stage uint8

const (
	stagePoll    stage = iota // deliver the head, poll again, or stop
	stageAtom                 // enter the handler's atomic section, then read
	stageRead                 // read the head message, charge its arguments
	stageDispose              // dispose, record latency, charge the null handler
	stageCount                // tally a fast delivery; the handler runs next
	stageStall                // an inject waits for descriptor space
)

func (ep *EP) getSteps(t *cpu.Task, first stage) *steps {
	s := ep.stepsFree
	if s == nil {
		s = new(steps)
	} else {
		ep.stepsFree = s.next
	}
	*s = steps{ep: ep, t: t, stage: first, before: t.Consumed()}
	return s
}

func (ep *EP) putSteps(s *steps) {
	s.next = ep.stepsFree
	ep.stepsFree = s
}

// Inline implements cpu.Stepper. Every stage may run at a spend's wake
// except a dispose that would trap or spend: UserDispose's kernel paths
// (dispose-extend in buffered mode, a kernel-bypass ring) run in the task.
// A read stage reaches the dispose without a spend when the message has no
// argument cost, so it asks the same. A poll that lost atomicity goes to the
// task to panic there.
func (s *steps) Inline() bool {
	switch s.stage {
	case stagePoll:
		return mayPoll(s.ep.p)
	case stageAtom, stageRead, stageDispose:
		return s.ep.p.Kernel().PlainDispose()
	}
	return true
}

// Step implements cpu.Stepper.
func (s *steps) Step() (uint64, bool) {
	ep, p := s.ep, s.ep.p
	switch s.stage {
	case stagePoll:
		if !p.HaveMessage() {
			if s.once || s.c != nil && s.c.n >= s.target {
				return 0, false
			}
			ep.mustHoldAtomicity("Poll")
			return ep.cost.Poll, true
		}
		s.before = s.t.Consumed()
		s.stage = stageRead
		return ep.cost.PollDispatch, true
	case stageAtom:
		// The message-available stub starts the handler in an atomic
		// section and requires it to free a message before leaving it.
		ni := p.NI()
		if trap := ni.BeginAtom(nic.UACInterruptDisable, false); trap != nic.TrapNone {
			panic(fmt.Sprintf("udm: handler beginatom trapped %v", trap))
		}
		ni.SetUACKernel(nic.UACDisposePending, true)
		return s.read()
	case stageRead:
		return s.read()
	case stageDispose:
		return s.dispose()
	case stageCount:
		if s.m.Fast {
			// Buffered messages were already tallied at kernel insert
			// time; counting here too would double-book a mid-read mode
			// flip.
			p.CountDelivery(true)
		}
		return 0, false
	default: // stageStall
		if !p.Throttled() && p.NI().SpaceAvailable() < s.need {
			return 1, true
		}
		return 0, false
	}
}

// read starts the extraction: it reads the head message through the
// transparent-access indirection into a recycled Msg and charges the path's
// cost per argument word.
func (s *steps) read() (uint64, bool) {
	ep, p := s.ep, s.ep.p
	fast := !p.Buffered()
	s.id, s.sentAt, s.haveHead = p.Head()
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
	s.m = m
	s.stage = stageDispose
	perWord := ep.cost.RecvPerArg
	if s.path == pathBuffered || s.path == pathPoll && !fast {
		perWord = ep.cost.BufferedPerArgTimes2 / 2
	}
	if c := perWord * uint64(len(m.Args)); c > 0 {
		return c, true
	}
	return s.dispose()
}

// dispose ends the extraction: the message leaves the queue, so the
// handler may run and inject freely, and the injection-to-disposal span
// lands in the per-path end-to-end latency histogram. It returns the path's
// null-handler spend; a buffered receive has none.
func (s *steps) dispose() (uint64, bool) {
	ep, p, m := s.ep, s.ep.p, s.m
	rec := p.Kernel().Machine().Spans
	if rec != nil && s.haveHead {
		rec.Dispatch(s.t.Now(), s.id, m.Handler)
	}
	fastDispose := p.Kernel().UserDispose(s.t, p)
	if m.Fast && !fastDispose {
		// Mid-read mode flip: the word-read spend let a context switch
		// divert the half-read head into the second-case store, so the
		// dispose just drained it from there. The receive is charged and
		// tallied as a fast delivery (the words came off the NI) while the
		// kernel also booked the insert as a buffered one — tell the span
		// recorder so reconciliation credits the span to both paths.
		if rec != nil && s.haveHead {
			rec.FlipFast(s.t.Now(), s.id, p.Node())
		}
	}
	if s.haveHead {
		p.ObserveLatency(m.Fast, s.t.Now()-s.sentAt)
	}
	s.stage = stageCount
	switch {
	case s.path == pathInterrupt:
		return ep.cost.NullHandler, true
	case s.path == pathBuffered:
		return 0, false
	case m.Fast:
		return ep.cost.PollNullHandler, true
	default:
		return ep.cost.BufferedNullHandler, true
	}
}

// Peek examines the next pending message without extracting it — the UDM
// peek operation. It returns nil when no message is available. Like Poll,
// the caller must hold atomicity; a later Poll (or handler dispatch after
// EndAtomic) performs the actual extraction.
func (e *Env) Peek() *Msg {
	ep := e.EP
	ep.mustHoldAtomicity("Peek")
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
