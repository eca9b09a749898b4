package sim

import (
	"fmt"
	"math"

	"fugu/internal/metrics"
)

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use from multiple goroutines except through the Proc baton
// protocol, which guarantees only one coroutine touches the engine at a time.
type Engine struct {
	now     uint64
	seq     uint64
	q       eventQueue
	free    *Event // recycled event structs (see event.go)
	current *Proc  // proc currently holding the baton, nil in engine context
	// handoff is the chained proc whose wake the acting proc popped, set
	// while the dispatch chain unwinds to it (see Proc.park).
	handoff *Proc
	stopped bool
	live    int // number of live (spawned, not finished) procs

	// Limit, when nonzero, bounds simulated time: Run returns once the
	// next event would fire after Limit.
	Limit uint64
	// limit is the bound of the loop in progress (math.MaxUint64 for none),
	// read by runLocal and by a parked proc acting as the loop.
	limit uint64

	rng *Rand

	events *metrics.Counter // dispatched events ("sim.events"), nil-safe
	prof   *Profiler        // schedule-site cost attribution, nil when disabled

	// g and part place the engine inside a partition group (see
	// partition.go); both stay zero for a standalone engine, and every
	// grouped branch below is a single predictable nil check on the
	// standalone hot path.
	g    *Group
	part int
}

// UseMetrics binds the engine's instruments into a registry. The engine
// counts every dispatched event under "sim.events" — a cheap proxy for how
// much simulated activity a run generated.
func (e *Engine) UseMetrics(r *metrics.Registry) {
	e.events = r.Counter("sim.events")
}

// NewEngine returns an engine with the given RNG seed. A zero seed is
// replaced with a fixed default so the zero-ish configuration stays
// deterministic.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRand(seed)}
	e.q.presize()
	return e
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Rand returns the engine's deterministic random source. Each shard of a
// partition group owns an independent stream.
func (e *Engine) Rand() *Rand { return e.rng }

// alloc takes an event from the free list (or the allocator, while the pool
// is still growing) and stamps it with the fire time and the next sequence
// number.
func (e *Engine) alloc(delay uint64) *Event {
	ev := e.free
	if ev == nil {
		ev = &Event{}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.site = SiteMisc
	e.seq++
	return ev
}

// release retires a fired or cancelled event to the free list. Bumping the
// generation invalidates every outstanding Handle to it; clearing the
// callback fields drops references the pool must not keep alive.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.proc = nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Schedule registers fn to run at now+delay and returns a cancellable handle.
// fn runs in engine context; it may wake procs, schedule further events, or
// stop the engine, but must not block.
func (e *Engine) Schedule(delay uint64, fn func()) Handle {
	ev := e.alloc(delay)
	ev.fn = fn
	e.q.push(ev)
	return Handle{ev, ev.gen}
}

// ScheduleArg registers fn(arg) to run at now+delay. It exists for hot paths
// that would otherwise build a fresh closure per call: the caller binds fn
// once (a stored func(any)) and passes the varying state as arg, so a send
// or a timer re-arm costs no allocation. A pointer-typed arg does not
// allocate when boxed.
func (e *Engine) ScheduleArg(delay uint64, fn func(any), arg any) Handle {
	ev := e.alloc(delay)
	ev.fnArg = fn
	ev.arg = arg
	e.q.push(ev)
	return Handle{ev, ev.gen}
}

// scheduleProc registers a baton dispatch of p at now+delay — the wake path.
// Storing the proc on the event (rather than a func(){ e.dispatch(p) }
// closure) is what makes Wake/Sleep allocation-free. Wakes inherit the
// proc's site label, so a task's resume events attribute to its domain.
func (e *Engine) scheduleProc(delay uint64, p *Proc) Handle {
	ev := e.alloc(delay)
	ev.proc = p
	ev.site = p.site
	e.q.push(ev)
	return Handle{ev, ev.gen}
}

// ScheduleArgAt is ScheduleArg with an absolute fire time.
func (e *Engine) ScheduleArgAt(at uint64, fn func(any), arg any) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleArgAt(%d) in the past (now=%d)", at, e.now))
	}
	return e.ScheduleArg(at-e.now, fn, arg)
}

// ScheduleSite is Schedule with a profiler site label: the event's
// dispatch cost is attributed to site instead of SiteMisc. Identical
// semantics and cost otherwise.
func (e *Engine) ScheduleSite(site Site, delay uint64, fn func()) Handle {
	h := e.Schedule(delay, fn)
	h.ev.site = site
	return h
}

// ScheduleArgSite is ScheduleArg with a profiler site label.
func (e *Engine) ScheduleArgSite(site Site, delay uint64, fn func(any), arg any) Handle {
	h := e.ScheduleArg(delay, fn, arg)
	h.ev.site = site
	return h
}

// ScheduleArgAtSite is ScheduleArgAt with a profiler site label.
func (e *Engine) ScheduleArgAtSite(site Site, at uint64, fn func(any), arg any) Handle {
	h := e.ScheduleArgAt(at, fn, arg)
	h.ev.site = site
	return h
}

// Cancel removes a pending event; cancelling an already-fired, already-
// cancelled or zero handle is a no-op. h must have been issued by e.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return
	}
	e.q.remove(ev)
	e.release(ev)
}

// Stop makes Run return after the current event completes. In a partition
// group the stopping shard's window ends and the coordinator stops at its
// barrier (other shards finish their current window — the conservative
// semantics).
func (e *Engine) Stop() {
	e.stopped = true
	if g := e.g; g != nil {
		g.parStop.Store(true)
	}
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue empties, Stop is called, or the time
// Limit is exceeded. It returns the final simulation time. A Stop from a
// previous Run does not carry over: each Run starts live. Running any shard
// of a partition group drives the whole group (see partition.go). A panic in
// proc code propagates out of Run; the engine must not be used after it.
func (e *Engine) Run() uint64 {
	limit := uint64(math.MaxUint64)
	if e.Limit != 0 {
		limit = e.Limit
	}
	if e.g != nil {
		return e.g.run(limit)
	}
	return e.runLocal(limit)
}

// RunUntil executes events up to and including time t, then returns. Events
// scheduled after t remain queued. Unlike Limit, t == 0 is a bound (only
// events due at 0 run), and a t before Now leaves the clock where it is.
func (e *Engine) RunUntil(t uint64) uint64 {
	if e.g != nil {
		return e.g.run(t)
	}
	return e.runLocal(t)
}

// runLocal is the serial event loop over this engine's own queue — the
// whole story for a standalone engine, and one shard's share of a group
// window (the group coordinator bounds it with limit).
func (e *Engine) runLocal(limit uint64) uint64 {
	if e.current != nil {
		panic("sim: Run called from proc context")
	}
	e.stopped = false
	e.limit = limit
	for !e.stopped {
		ev := e.q.peek()
		if ev == nil {
			break
		}
		if ev.at > limit {
			// Leave the event queued: peeking (rather than pop + push-back)
			// means a RunUntil loop stepping below the next event's time
			// does no queue work per step.
			if limit > e.now {
				e.now = limit
			}
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
		// Copy the callback out and recycle the slot first, so the callback
		// itself can schedule into the freed slot.
		if p := ev.proc; p != nil {
			e.release(ev)
			e.dispatch(p)
		} else if fn := ev.fn; fn != nil {
			e.release(ev)
			fn()
		} else {
			fn, arg := ev.fnArg, ev.arg
			e.release(ev)
			fn(arg)
		}
	}
	return e.now
}

// Pending reports how many events remain queued (across every shard, for a
// grouped engine).
func (e *Engine) Pending() int {
	if g := e.g; g != nil {
		total := 0
		for _, sh := range g.shards {
			total += sh.q.len()
		}
		return total
	}
	return e.q.len()
}

// LiveProcs reports how many spawned procs have not yet returned (across
// every shard, for a grouped engine). A nonzero value after Run drains the
// queue usually indicates deadlock: procs parked with nobody left to wake
// them.
func (e *Engine) LiveProcs() int {
	if g := e.g; g != nil {
		total := 0
		for _, sh := range g.shards {
			total += sh.live
		}
		return total
	}
	return e.live
}

// Current returns the proc currently holding the baton, or nil when the
// engine loop (or an event callback) is executing.
func (e *Engine) Current() *Proc { return e.current }
