package sim

import "testing"

// parNode is one logical node of the parallel-mode test model: an
// open-loop sender plus two receive accumulators — an order-sensitive hash
// (must be identical across runs at the same shard count: worker
// interleaving must not leak into results) and order-insensitive sums
// (must be identical across shard counts: the window protocol must
// preserve event causality exactly).
type parNode struct {
	eng      *Engine
	idx      int
	rng      *Rand
	sent     int
	received uint64
	hash     uint64
	sum      uint64
}

const parLookahead = 8

func runParallelModel(parts int) (hashes, sums []uint64, received, end uint64) {
	const nodes, msgs = 8, 40
	g := NewParallelGroup(99, parts, parLookahead)
	ns := make([]*parNode, nodes)
	recvFn := func(arg any) {
		pair := arg.([2]uint64)
		n := ns[pair[0]]
		n.received++
		v := pair[1]
		n.hash = n.hash*1099511628211 + (n.eng.Now()*31 ^ v)
		n.sum += n.eng.Now()*31 + v
	}
	var sendFn func(any)
	sendFn = func(arg any) {
		n := arg.(*parNode)
		if n.sent >= msgs {
			return
		}
		n.sent++
		dst := ns[n.rng.Intn(nodes)]
		delay := parLookahead + n.rng.Uint64n(12)
		v := n.rng.Uint64() % 1000
		n.eng.CrossScheduleArgAtSite(dst.eng, SiteMisc, n.eng.Now()+delay, recvFn, [2]uint64{uint64(dst.idx), v})
		n.eng.ScheduleArg(1+n.rng.Uint64n(10), sendFn, n)
	}
	for i := range ns {
		ns[i] = &parNode{eng: g.Shard(i * parts / nodes), idx: i, rng: NewRand(uint64(1000 + i))}
	}
	for _, n := range ns {
		n.eng.ScheduleArg(n.rng.Uint64n(5), sendFn, n)
	}
	end = g.Shard(0).Run()
	for _, n := range ns {
		hashes = append(hashes, n.hash)
		sums = append(sums, n.sum)
		received += n.received
	}
	return hashes, sums, received, end
}

// TestParallelDeterministicAcrossRuns: the same shard count twice must be
// bit-identical including same-cycle tie order (the staged-drain fixed
// order is what guarantees this against goroutine interleaving).
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	h1, s1, r1, e1 := runParallelModel(4)
	h2, s2, r2, e2 := runParallelModel(4)
	if r1 != r2 || e1 != e2 {
		t.Fatalf("runs differ: received %d/%d end %d/%d", r1, r2, e1, e2)
	}
	for i := range h1 {
		if h1[i] != h2[i] || s1[i] != s2[i] {
			t.Fatalf("node %d differs across identical runs: hash %x/%x sum %d/%d", i, h1[i], h2[i], s1[i], s2[i])
		}
	}
}

// TestParallelMatchesSerialCausality: across shard counts the executed
// event set, times and end time are identical (order within one cycle may
// legally differ, so the comparison uses the commutative accumulators).
func TestParallelMatchesSerialCausality(t *testing.T) {
	_, base, rBase, eBase := runParallelModel(1)
	var total uint64
	for _, s := range base {
		total += s
	}
	if total == 0 || rBase == 0 {
		t.Fatal("base model did nothing")
	}
	for _, parts := range []int{2, 4} {
		_, sums, r, end := runParallelModel(parts)
		if r != rBase || end != eBase {
			t.Fatalf("parts=%d: received %d end %d, serial %d/%d", parts, r, end, rBase, eBase)
		}
		for i := range base {
			if sums[i] != base[i] {
				t.Fatalf("parts=%d: node %d sum %d, serial %d", parts, i, sums[i], base[i])
			}
		}
	}
}

// TestParallelLookaheadViolationPanics: staging an event inside the current
// horizon is a model bug and must be caught loudly, not reordered silently.
func TestParallelLookaheadViolationPanics(t *testing.T) {
	g := NewParallelGroup(1, 2, 10)
	g.Shard(0).Schedule(5, func() {
		// Claims a 10-cycle lookahead but schedules 2 cycles out.
		g.Shard(0).CrossScheduleArgAtSite(g.Shard(1), SiteMisc, g.Shard(0).Now()+2, func(any) {}, nil)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a lookahead violation")
		}
	}()
	g.Shard(0).Run()
}

// TestParallelStop: a Stop from inside a window ends the run at the next
// barrier; the queue keeps its unexecuted events.
func TestParallelStop(t *testing.T) {
	g := NewParallelGroup(1, 2, 4)
	ran := 0
	g.Shard(1).Schedule(3, func() {
		ran++
		g.Shard(1).Stop()
	})
	g.Shard(0).Schedule(500, func() { ran++ })
	g.Shard(0).Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (stop should end the run)", ran)
	}
	if g.Shard(0).Pending() != 1 {
		t.Fatalf("pending %d, want the far event still queued", g.Shard(0).Pending())
	}
}

// TestGroupStats: the diagnostic snapshot reports per-shard depth and
// barrier counts.
func TestGroupStats(t *testing.T) {
	g := NewParallelGroup(1, 2, 4)
	g.Shard(0).Schedule(1, func() {})
	g.Shard(0).Schedule(100, func() {})
	st := g.Stats()
	if len(st.Shards) != 2 || st.Shards[0].HeapDepth != 2 {
		t.Fatalf("pre-run stats wrong: %+v", st)
	}
	g.Shard(0).Run()
	st = g.Stats()
	if st.Barriers == 0 || st.Shards[1].BarrierWaits == 0 {
		t.Fatalf("post-run stats wrong: %+v", st)
	}
}
