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
	// rearm, when set, may take the proc's wakes without resuming it (see
	// Rearmer). It is nil except while a Rearmer sets it, so the wake path
	// pays one nil test.
	rearm Rearmer
	// resumes counts the proc's returns from park (see Resumes).
	resumes uint64
}

// Rearmer lets the engine handle a parked proc's wake without resuming it.
// A proc that only re-arms its wait and parks again when woken (a polling
// spin) installs one with SetRearm; at each of the proc's wake events the
// engine calls Rearm in place of the resume.
//
// Rearm runs in engine context, at the wake's time and at the point in the
// event order where the resumed proc would run, with Engine.Current
// reporting the proc it acts for, so code that asks whether it runs for a
// proc gets the answer it would get from the resumed proc. It must either
// do exactly what the proc would do on resuming before it parks again — the
// same state changes and the same schedules, in the same order — and return
// true, or change nothing and return false, in which case the proc is
// resumed as usual. It may also do the first part of that work and return
// false, leaving the rest to the proc, which must then know to skip the
// part already done. Either way the wake is popped and counted as before,
// so event order, sequence numbers and the engine's counters do not depend
// on which path a wake takes.
type Rearmer interface {
	Rearm() bool
}

// SetRearm installs (or, with nil, removes) the proc's Rearmer.
func (p *Proc) SetRearm(r Rearmer) { p.rearm = r }

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
	if p.rearm == nil || !p.rearm.Rearm() {
		p.resume()
	}
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
// The one wake the acting proc cannot serve by a resume is a wake for a
// proc marked chained — an ancestor in the chain, which is suspended inside
// its child's resume, not in its own yield. The actor pops it like any
// other event, marks the ancestor as the engine's handoff, and falls back
// to the real yield, which unwinds the chain link by link (each ancestor
// sees a handoff that is not its own and yields too) until it reaches the
// woken proc, which takes the handoff and returns from its park. Stop, a
// reached time limit and an empty queue unwind the same way, with no
// handoff, so Engine.Run regains control with every proc really parked.
// Dispatch order and callback context are identical to the
// engine-mediated path throughout — only which coroutine executes the loop
// changes.
//
// Every wake of a proc that carries a Rearmer is offered to it first,
// after the pop: in dispatch, for the actor's own wake, and for an
// ancestor's wake. A wake the Rearmer takes needs no resume, so an
// ancestor's takes no unwinding either.
func (p *Proc) park() {
	e := p.eng
	if e.current != p {
		panic(fmt.Sprintf("sim: %s parking without the baton", p.name))
	}
	e.current = nil
	p.chained = true
	for !e.stopped && e.handoff == nil {
		ev := e.q.peek()
		if ev == nil {
			break
		}
		if ev.at > e.limit {
			break
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
			if q != p && !q.chained {
				e.dispatch(q)
				continue
			}
			// Our own wake or an ancestor's: mirror dispatch's
			// bookkeeping, then re-arm in place, resume in place, or hand
			// off to the ancestor.
			q.wake = Handle{}
			if q.rearm != nil {
				e.current = q
				taken := q.rearm.Rearm()
				e.current = nil
				if taken {
					continue
				}
			}
			if q != p {
				e.handoff = q
				break
			}
			p.chained = false
			e.current = p
			p.resumes++
			return
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
	if e.handoff == p {
		e.handoff = nil
	} else {
		p.yield(struct{}{})
	}
	e.current = p
	p.resumes++
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

// Resumes reports how many times the proc has returned from a park, in
// place or through a coroutine switch: the host cost a Rearmer saves.
func (p *Proc) Resumes() uint64 { return p.resumes }

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
