//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated coroutine: a runtime coroutine (iter.Pull) that runs
// only while it holds the engine baton. Procs yield the baton by parking
// (Park, Sleep) and are handed it back by events scheduled through the
// engine. Exactly one proc or the engine loop executes at any moment, so
// proc code needs no locking.
//
// Granting the baton is a resume and giving it back is a yield. Both are a
// direct coroutine switch: the runtime moves the thread from one goroutine
// to the other without a trip through the scheduler, which is what makes a
// proc switch several times cheaper than an unbuffered channel rendezvous.
// A panic in proc code travels back through resume, so it surfaces in the
// caller of Engine.Run instead of killing the process.
type Proc struct {
	eng  *Engine
	name string
	// resume runs the proc until it next yields or returns; yield, called
	// from inside the proc, switches back to whoever resumed it.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	done   bool
	wake   Handle // pending wake event, if any (Sleep/WakeAfter bookkeeping)
	// chained marks a proc that parked but is resuming inline: it is either
	// running the engine loop itself or blocked inside an inline dispatch it
	// issued (see park). It must not be resumed until the chain unwinds back
	// to it, because it is not suspended in yield.
	chained bool
	// site labels this proc's wake events for the cost profiler (SetSite).
	site Site
}

// Spawn creates a proc running fn and schedules its first dispatch at the
// current time. fn runs in proc context: it may Park, Sleep, schedule events
// and wake other procs, and it holds the baton until it yields or returns.
//
// Spawn resumes the new coroutine once, up to a priming yield before fn.
// That first resume allocates the coroutine's yield closure; doing it here
// keeps the allocation out of the proc's first dispatch, which like every
// later dispatch allocates nothing.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	e.live++
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		yield(struct{}{})
		fn(p)
		p.done = true
		e.live--
	})
	p.resume()
	p.wake = e.scheduleProc(0, p)
	return p
}

// dispatch hands the baton to p and blocks (in engine context) until p parks
// or finishes. It must only be called from engine context.
func (e *Engine) dispatch(p *Proc) {
	if e.current != nil {
		panic(fmt.Sprintf("sim: dispatch(%s) while %s holds the baton", p.name, e.current.name))
	}
	if p.done {
		panic(fmt.Sprintf("sim: dispatch of finished proc %s", p.name))
	}
	p.wake = Handle{}
	e.current = p
	p.resume()
	e.current = nil
}

// park yields the baton and blocks until the next wake.
//
// Fast path: instead of yielding the baton back to its dispatcher, the
// parking proc keeps running the engine loop itself — popping events in
// exactly the (at, seq) order the engine loop would use. Plain callbacks run
// inline (with current == nil, as in engine context); the proc's own wake
// resumes it on the spot with no coroutine switch at all; and a wake for
// another really-parked proc is dispatched directly, one resume where the
// engine-mediated route costs a yield plus a resume. The procs form a
// dispatch chain (engine → a → b → ...): each link is blocked in its inline
// dispatch, waiting for the proc below to yield, and the deepest proc is the
// one acting as the engine. Coroutine switches are cheap, but a switch pair
// still costs several times an inline self-wake, so the chain stays: a proc
// that sleeps and wakes with nothing in between never leaves its own stack.
//
// The one event the acting proc must not handle itself is a wake for a proc
// marked chained — an ancestor in the chain, which is suspended inside its
// child's resume, not in its own yield. The actor leaves that event queued
// and falls back to the real yield, which unwinds the chain link by link
// (each ancestor re-checks the same head event) until it reaches the woken
// proc, whose own loop pops the event and resumes. Stop, a reached time
// limit and an empty queue unwind the same way, so Engine.Run regains
// control with every proc really parked. Dispatch order and callback context
// are identical to the engine-mediated path throughout — only which
// coroutine executes the loop changes.
func (p *Proc) park() {
	e := p.eng
	if e.current != p {
		panic(fmt.Sprintf("sim: %s parking without the baton", p.name))
	}
	e.current = nil
	p.chained = true
	for !e.stopped {
		ev := e.q.peek()
		if ev == nil {
			break
		}
		if ev.at > e.limit {
			break
		}
		if q := ev.proc; q != nil && q != p && q.chained {
			break // wake for an ancestor: unwind the chain to it
		}
		e.q.pop(ev)
		if ev.at < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = ev.at
		e.events.Inc()
		if e.prof != nil {
			e.prof.tick(ev.site, e.now)
		}
		if q := ev.proc; q != nil {
			e.release(ev)
			if q == p {
				// Our own wake: resume in place, mirroring dispatch's
				// bookkeeping (clear the wake handle, retake the baton).
				p.wake = Handle{}
				p.chained = false
				e.current = p
				return
			}
			e.dispatch(q)
		} else if fn := ev.fn; fn != nil {
			e.release(ev)
			fn()
		} else {
			fn, arg := ev.fnArg, ev.arg
			e.release(ev)
			fn(arg)
		}
	}
	p.chained = false
	p.yield(struct{}{})
	e.current = p
}

// Park blocks the proc until some event wakes it via Engine.Wake or
// Engine.WakeAfter. The caller must have arranged for such a wake, or the
// proc will sleep forever (and LiveProcs will expose the leak).
func (p *Proc) Park() { p.park() }

// Sleep blocks the proc for exactly n cycles. A Sleep cannot be interrupted;
// preemptible waiting is built by higher layers from WakeAfter + CancelWake.
func (p *Proc) Sleep(n uint64) {
	p.eng.WakeAfter(p, n)
	p.park()
}

// Yield parks the proc and schedules it to resume at the current time, after
// any events already queued for this instant. It models giving way without
// consuming simulated time.
func (p *Proc) Yield() {
	p.eng.WakeAfter(p, 0)
	p.park()
}

// SetSite labels the proc's wake events for the cost profiler: every
// subsequent WakeAfter (and, retroactively, a wake already pending — in
// particular the initial dispatch scheduled by Spawn) attributes to s.
func (p *Proc) SetSite(s Site) {
	p.site = s
	if p.wake.Pending() {
		p.wake.ev.site = s
	}
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Done reports whether the proc's function has returned.
func (p *Proc) Done() bool { return p.done }

// Now is a convenience for p.Engine().Now().
func (p *Proc) Now() uint64 { return p.eng.now }

// Wake schedules p to be dispatched at the current simulation time. It is
// the only way code outside a proc hands it the baton. Waking a proc that
// already has a pending wake is a bug in the caller and panics, because a
// double dispatch would corrupt the baton protocol.
func (e *Engine) Wake(p *Proc) Handle {
	return e.WakeAfter(p, 0)
}

// WakeAfter schedules p to be dispatched after delay cycles and returns the
// event handle so the caller may cancel it (the basis of preemptible
// sleeps). The wake is carried by the event's proc field, not a closure, so
// this path does not allocate.
func (e *Engine) WakeAfter(p *Proc, delay uint64) Handle {
	if p.wake.Pending() {
		panic(fmt.Sprintf("sim: proc %s woken twice", p.name))
	}
	h := e.scheduleProc(delay, p)
	p.wake = h
	return h
}

// HasPendingWake reports whether p has a wake event queued.
func (p *Proc) HasPendingWake() bool { return p.wake.Pending() }
