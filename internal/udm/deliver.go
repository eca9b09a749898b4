package udm

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/nic"
	"fugu/internal/sim"
)

// activity is the body of the process's message-handling task, installed as
// glaze.Process.Activity. The kernel signals it on message-available
// interrupts, on buffer inserts and on mode transitions. It is one step
// sequence per handler run (see steps): taking the signal, choosing
// between buffered and interrupt delivery, the receive up to the handler,
// and after the handler the interrupt tail and the delivery's record, the
// next choice and the wait for a signal when there is nothing to deliver.
// So the task's coroutine resumes only to run handlers.
func (ep *EP) activity(t *cpu.Task) {
	s := &ep.act
	*s = steps{ep: ep, t: t, stage: stageIdle}
	for {
		t.Steps(s)
		ep.run(t, s.m)
		if s.path == pathInterrupt {
			s.stage = stageTail
		} else {
			s.stage = stageObserve
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

// getMsg pops a recycled Msg, or makes one, for setArgs to size.
func (ep *EP) getMsg() *Msg {
	if n := len(ep.msgFree); n > 0 {
		m := ep.msgFree[n-1]
		ep.msgFree = ep.msgFree[:n-1]
		m.Bulk = false
		return m
	}
	return &Msg{}
}

// setArgs sizes m.Args to n words, reusing its array when it is big enough.
func (m *Msg) setArgs(n int) {
	if cap(m.Args) >= n {
		m.Args = m.Args[:n]
	} else {
		m.Args = make([]uint64, n)
	}
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
	s.path, s.c, s.target, s.once = pathPoll, c, target, once
	e.T.SpendSteps(ep.cost.Poll, s)
	m, before := s.m, s.before
	ep.putSteps(s)
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

// steps is one cpu.Task step sequence in progress on the endpoint: the
// message-handling activity up to its next handler, a poll loop up to the
// handler of the message it finds, or a stalled inject. Its stages are the
// work between the sequence's spends and waits. Sequences of the
// endpoint's tasks overlap (a handler can stall while the main thread
// polls): the activity's is embedded in the endpoint, and every other takes
// its own from the endpoint's free list. Held by pointer, it passes as a
// cpu.Stepper without allocating.
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

// stage is the work a steps runs after its current spend or wait.
type stage uint8

const (
	stageIdle    stage = iota // take the upcall signal and choose, or wait for one
	stageTail                 // leave an interrupt handler's atomic section
	stageObserve              // record the delivery's cycles, then choose
	stagePoll                 // deliver the head, poll again, or stop
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

// Inline implements cpu.Stepper. Every stage may run at a wake except a
// dispose that would spend: a zero-copy consume's shootdown runs in the
// task. A read stage reaches the dispose without a spend when the message
// has no argument cost, so it asks the same. A poll that lost atomicity
// goes to the task to panic there.
func (s *steps) Inline() bool {
	switch s.stage {
	case stagePoll:
		return mayPoll(s.ep.p)
	case stageAtom, stageRead, stageDispose:
		return !s.ep.p.Kernel().DisposeSpends(s.ep.p)
	}
	return true
}

// Step implements cpu.Stepper.
func (s *steps) Step() (uint64, *cpu.WaitQ, bool) {
	ep, p := s.ep, s.ep.p
	switch s.stage {
	case stageIdle:
		if !p.TakeUpcall() {
			return 0, p.UpcallQueue(), true
		}
		return s.choose()
	case stageTail:
		p.Kernel().UserEndAtom(s.t, p, nic.UACInterruptDisable)
		s.stage = stageObserve
		return ep.cost.RecvIntrPost(), nil, true
	case stageObserve:
		ep.observeDelivery(s.t, s.before)
		return s.choose()
	case stagePoll:
		if !p.HaveMessage() {
			if s.once || s.c != nil && s.c.n >= s.target {
				return 0, nil, false
			}
			ep.mustHoldAtomicity("Poll")
			return ep.cost.Poll, nil, true
		}
		s.before = s.t.Consumed()
		s.stage = stageRead
		return ep.cost.PollDispatch, nil, true
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
		return 0, nil, false
	default: // stageStall
		if !p.Throttled() && p.NI().SpaceAvailable() < s.need {
			return 1, nil, true
		}
		return 0, nil, false
	}
}

// choose is glaze's level-triggered upcall loop: it starts a buffered
// receive (Table 5: 52 cycles plus ~4.5 per argument word, atomic through
// the task's elevated priority) or an interrupt receive (Table 4: the stub,
// then the handler in an atomic section) while the process may take one,
// then takes a pending signal and chooses again, and waits for a signal
// once none is left.
func (s *steps) choose() (uint64, *cpu.WaitQ, bool) {
	ep, p := s.ep, s.ep.p
	for {
		switch {
		case p.CanDeliverBuffered():
			s.path, s.stage, s.before = pathBuffered, stageRead, s.t.Consumed()
			return ep.cost.BufferedNullHandler, nil, true
		case p.CanDeliverFast() && p.NI().UAC()&nic.UACInterruptDisable == 0:
			// A user-level message interrupt: the head is ours and the
			// application has interrupts enabled.
			s.path, s.stage, s.before = pathInterrupt, stageAtom, s.t.Consumed()
			return ep.cost.RecvIntrPre(), nil, true
		}
		if !p.TakeUpcall() {
			s.stage = stageIdle
			return 0, p.UpcallQueue(), true
		}
	}
}

// read starts the extraction: it reads the head message through the
// transparent-access indirection into a recycled Msg and charges the path's
// cost per argument word.
func (s *steps) read() (uint64, *cpu.WaitQ, bool) {
	s.id, s.sentAt, s.haveHead = s.ep.p.Head()
	s.m = s.ep.getMsg()
	c := s.ep.readHead(s.m, s.path)
	s.stage = stageDispose
	if c > 0 {
		return c, nil, true
	}
	return s.dispose()
}

// readHead reads the head message through the transparent-access
// indirection into m, and returns what its argument words cost on path: a
// poll pays the buffered rate when it reads the buffer, a buffered receive
// always, an interrupt receive never.
func (ep *EP) readHead(m *Msg, path recvPath) uint64 {
	p := ep.p
	n := p.MsgLen()
	if n < 2 {
		panic(fmt.Sprintf("udm: malformed message of %d words", n))
	}
	m.setArgs(n - 2)
	m.Handler = p.MsgWord(1)
	m.Fast = !p.Buffered()
	for i := range m.Args {
		m.Args[i] = p.MsgWord(2 + i)
	}
	perWord := ep.cost.RecvPerArg
	if path == pathBuffered || path == pathPoll && !m.Fast {
		perWord = ep.cost.BufferedPerArgTimes2 / 2
	}
	return perWord * uint64(len(m.Args))
}

// dispose ends the extraction: the message leaves the queue, so the
// handler may run and inject freely, and the injection-to-disposal span
// lands in the per-path end-to-end latency histogram. It returns the path's
// null-handler spend; a buffered receive has none.
func (s *steps) dispose() (uint64, *cpu.WaitQ, bool) {
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
		return ep.cost.NullHandler, nil, true
	case s.path == pathBuffered:
		return 0, nil, false
	case m.Fast:
		return ep.cost.PollNullHandler, nil, true
	default:
		return ep.cost.BufferedNullHandler, nil, true
	}
}

// Peek examines the next pending message without extracting it — the UDM
// peek operation. It returns nil when no message is available. Like Poll,
// the caller must hold atomicity; a later Poll (or handler dispatch after
// EndAtomic) performs the actual extraction. It reads and charges the head
// as a poll's read stage does.
func (e *Env) Peek() *Msg {
	ep := e.EP
	ep.mustHoldAtomicity("Peek")
	e.T.Spend(ep.cost.Poll)
	if !ep.p.HaveMessage() {
		return nil
	}
	m := new(Msg)
	if c := ep.readHead(m, pathPoll); c > 0 {
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
