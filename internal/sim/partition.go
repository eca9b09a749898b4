package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// staged is one cross-shard event parked in a staging queue until the next
// barrier. Entries are appended by the source shard's worker only (single
// writer per queue) and drained by the coordinator between windows.
type staged struct {
	at   uint64
	fn   func(any)
	arg  any
	site Site
}

// Group is a set of partition engines driven as one parallel simulation.
// Shards run real goroutines inside conservative lookahead windows: each
// round executes events in [min, min+lookahead) on all shards concurrently,
// then a barrier drains cross-shard messages from per-pair staging queues in
// a fixed order (source partition, then staging sequence), so results are
// deterministic regardless of worker interleaving. A group requires a
// partition-clean model: no shared mutable state between shards except
// messages sent through CrossScheduleArgAtSite with delay >= lookahead.
// Construct with NewParallelGroup, place model components on
// shards (Shard(i)), then Run any shard — the group takes over the whole run.
type Group struct {
	shards    []*Engine
	lookahead uint64

	// staging is indexed [src*parts+dst]; parStop is the cross-goroutine
	// stop flag (Engine.Stop from inside a window must reach the
	// coordinator).
	staging      [][]staged
	parStop      atomic.Bool
	barriers     uint64
	stagedTotal  uint64
	horizon      uint64
	barrierWaits []uint64 // windows a shard sat out (no events below the horizon)
}

// NewParallelGroup builds parts engines with independent clocks and
// per-shard RNG streams, synchronized by conservative lookahead windows.
// lookahead must be a lower bound on the delay of every cross-shard
// schedule (for a mesh, the minimum per-hop latency) and at least 2 cycles;
// a staged event below the current horizon panics, so a model that violates
// its own bound is caught, not silently reordered.
func NewParallelGroup(seed uint64, parts int, lookahead uint64) *Group {
	if parts < 1 {
		panic("sim: NewParallelGroup with no partitions")
	}
	if lookahead < 2 {
		panic("sim: parallel group needs a lookahead of at least 2 cycles")
	}
	g := &Group{lookahead: lookahead}
	g.shards = make([]*Engine, parts)
	for i := range g.shards {
		// Decorrelate the per-shard streams: consecutive seeds would start
		// splitmix64 one increment apart.
		sh := &Engine{rng: NewRand(seed + 0x9e3779b97f4a7c15*uint64(i)), g: g, part: i}
		sh.q.presize()
		g.shards[i] = sh
	}
	g.staging = make([][]staged, parts*parts)
	g.barrierWaits = make([]uint64, parts)
	return g
}

// Lookahead returns the conservative window width.
func (g *Group) Lookahead() uint64 { return g.lookahead }

// Shard returns partition engine i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// ShardStat is one partition's instantaneous state, for liveness reports.
type ShardStat struct {
	Part         int
	Now          uint64
	Queued       int // queued events, wheel and overflow heap together
	LiveProcs    int
	BarrierWaits uint64 // windows this shard had nothing to run
}

// GroupStats snapshots the group for diagnostics (watchdog reports): per-
// shard queue depth and clock, the last horizon, and barrier counts.
type GroupStats struct {
	Horizon  uint64 // last window's exclusive upper bound
	Barriers uint64 // windows completed
	Staged   uint64 // cross-partition events drained through staging queues
	Shards   []ShardStat
}

// Stats returns the group's diagnostic snapshot. Call it only between runs
// or from inside the simulation (event context): the shard clocks are
// owned by worker goroutines during a window.
func (g *Group) Stats() GroupStats {
	s := GroupStats{Horizon: g.horizon, Barriers: g.barriers, Staged: g.stagedTotal}
	s.Shards = make([]ShardStat, len(g.shards))
	for i, sh := range g.shards {
		s.Shards[i] = ShardStat{Part: i, Now: sh.now, Queued: sh.q.len(),
			LiveProcs: sh.live, BarrierWaits: g.barrierWaits[i]}
	}
	return s
}

// run drives the whole group (Engine.Run delegates here for grouped
// engines): it executes conservative lookahead windows until every queue is
// empty, Stop is called, or limit is reached. Each window: find the global minimum next-event time m, run every shard
// concurrently up to the horizon h = m + lookahead (exclusive), then drain
// the staging queues at the barrier. Determinism: every executed event has
// time >= m, so every staged event fires at >= m + lookahead = h — strictly
// after everything executed this window — and the drain assigns destination
// sequence numbers in the fixed (source partition, staging order) order,
// independent of goroutine interleaving.
func (g *Group) run(limit uint64) uint64 {
	g.parStop.Store(false)
	for !g.parStop.Load() {
		minAt := uint64(math.MaxUint64)
		idle := true
		for _, sh := range g.shards {
			if ev := sh.q.peek(); ev != nil {
				idle = false
				if ev.at < minAt {
					minAt = ev.at
				}
			}
		}
		if idle {
			break
		}
		if minAt > limit {
			for _, sh := range g.shards {
				if sh.now < limit {
					sh.now = limit
				}
			}
			break
		}
		h := minAt + g.lookahead
		if h-1 > limit {
			h = limit + 1
		}
		// Shards with nothing below the horizon only wait at the barrier;
		// count them (per-partition stall visibility) and skip their
		// goroutines.
		var wg sync.WaitGroup
		for i, sh := range g.shards {
			if ev := sh.q.peek(); ev == nil || ev.at >= h {
				g.barrierWaits[i]++
				continue
			}
			wg.Add(1)
			go func(sh *Engine) {
				defer wg.Done()
				// The partition label composes with inherited labels
				// (experiment/point from the harness worker), so a profile
				// slices by partition within a sweep point.
				pprof.Do(context.Background(), pprof.Labels("partition", strconv.Itoa(sh.part)), func(context.Context) {
					sh.runLocal(h - 1)
				})
			}(sh)
		}
		wg.Wait()
		g.barriers++
		g.horizon = h
		g.drainStaged(h)
	}
	var end uint64
	for _, sh := range g.shards {
		if sh.now > end {
			end = sh.now
		}
	}
	return end
}

// stage parks a cross-shard schedule until the next barrier. Called only
// from src's worker goroutine during a window (single writer per queue).
func (g *Group) stage(src, dst int, s staged) {
	q := &g.staging[src*len(g.shards)+dst]
	*q = append(*q, s)
}

// drainStaged moves every staged event onto its destination queue. Order is
// fixed — destination, then source partition index, then staging sequence —
// so the destination sequence numbers (and therefore same-cycle tie-breaks)
// never depend on scheduling noise. The queue orders by time first, so
// sorting a cell by time would only relabel sequence numbers across
// different times: among equal times the order is (source partition,
// staging order) either way. An entry below the horizon means the model
// broke its lookahead promise; that is a bug in the model, and silently
// reordering it would corrupt causality, so: panic.
func (g *Group) drainStaged(h uint64) {
	parts := len(g.shards)
	for dst := 0; dst < parts; dst++ {
		de := g.shards[dst]
		for src := 0; src < parts; src++ {
			cell := &g.staging[src*parts+dst]
			if len(*cell) == 0 {
				continue
			}
			for i := range *cell {
				s := &(*cell)[i]
				if s.at < h {
					panic(fmt.Sprintf("sim: staged cross-partition event at t=%d violates the lookahead horizon %d (shard %d -> %d)", s.at, h, src, dst))
				}
				ev := de.alloc(s.at - de.now)
				ev.fnArg = s.fn
				ev.arg = s.arg
				ev.site = s.site
				de.q.push(ev)
				g.stagedTotal++
				*s = staged{}
			}
			*cell = (*cell)[:0]
		}
	}
}

// CrossScheduleArgAtSite schedules fn(arg) at absolute time at on the dst
// engine, from code executing on e. For a standalone engine or dst == e it
// is a plain ScheduleArgAtSite on dst; inside a group a cross-shard
// schedule is staged and drained deterministically at the next barrier. at
// must be at least the group's lookahead beyond e's current time — the
// conservative contract.
func (e *Engine) CrossScheduleArgAtSite(dst *Engine, site Site, at uint64, fn func(any), arg any) {
	if dst == e || e.g == nil {
		dst.ScheduleArgAtSite(site, at, fn, arg)
		return
	}
	if e.g != dst.g {
		panic("sim: cross-schedule between unrelated groups")
	}
	e.g.stage(e.part, dst.part, staged{at: at, fn: fn, arg: arg, site: site})
}

// Group returns the partition group this engine belongs to, nil for a
// standalone engine.
func (e *Engine) Group() *Group { return e.g }

// Part returns the engine's partition index within its group (0 for a
// standalone engine).
func (e *Engine) Part() int { return e.part }
