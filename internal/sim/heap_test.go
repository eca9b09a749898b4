package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// refItem / refHeap are a reference priority queue built on the standard
// library's container/heap with the same (at, seq) order, used to check the
// event queue (the 4-ary eventHeap plus the zero-delay lane) pop-for-pop.
type refItem struct {
	at, seq uint64
	idx     int
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	it := x.(*refItem)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	it := old[n]
	old[n] = nil
	*h = old[:n]
	return it
}

// diffRig drives an eventQueue and the reference heap through the same
// operation stream, comparing every pop. Pushes carry a delay from the rig's
// clock, which advances to each popped event's time as the engine's does,
// so zero-delay pushes exercise the lane and cancels can hit lane events.
type diffRig struct {
	t    *testing.T
	ours eventQueue
	ref  refHeap
	// live events by insertion order, for deterministic cancel targeting.
	live []struct {
		ev *Event
		it *refItem
	}
	now, seq uint64
	// laned and laneCancels count pushes that took the lane and cancels of
	// lane events, so a test can require that both paths were exercised.
	laned, laneCancels int
}

func (r *diffRig) push(delay uint64) {
	ev := &Event{at: r.now + delay, seq: r.seq}
	it := &refItem{at: r.now + delay, seq: r.seq}
	r.seq++
	r.ours.push(ev, delay)
	if ev.index == laneIndex {
		r.laned++
	}
	heap.Push(&r.ref, it)
	r.live = append(r.live, struct {
		ev *Event
		it *refItem
	}{ev, it})
}

func (r *diffRig) cancel(k int) {
	if len(r.live) == 0 {
		return
	}
	k %= len(r.live)
	e := r.live[k]
	r.live = append(r.live[:k], r.live[k+1:]...)
	if e.ev.index == laneIndex {
		r.laneCancels++
	}
	r.ours.remove(e.ev)
	heap.Remove(&r.ref, e.it.idx)
	if e.ev.index != -1 {
		r.fail("cancelled event still claims a slot")
	}
}

func (r *diffRig) fail(format string, args ...any) {
	if r.t != nil {
		r.t.Errorf(format, args...)
	}
}

// pop pops both queues, advances the clock and reports whether they agreed.
func (r *diffRig) pop() bool {
	if len(r.live) == 0 {
		return true
	}
	ev := r.ours.peek()
	r.ours.pop(ev)
	it := heap.Pop(&r.ref).(*refItem)
	for i, e := range r.live {
		if e.ev == ev {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	if ev.at != it.at || ev.seq != it.seq {
		r.fail("pop mismatch: ours (at=%d seq=%d), ref (at=%d seq=%d)",
			ev.at, ev.seq, it.at, it.seq)
		return false
	}
	if ev.index != -1 {
		r.fail("popped event still claims a slot")
		return false
	}
	r.now = ev.at
	return true
}

func (r *diffRig) drain() bool {
	for len(r.live) > 0 {
		if !r.pop() {
			return false
		}
	}
	return r.ours.len() == 0 && r.ours.peek() == nil && r.ref.Len() == 0
}

// TestHeapDifferentialRandom runs long randomized schedule/cancel/pop
// workloads from fixed seeds and requires the queue to pop in exactly the
// reference (at, seq) order.
func TestHeapDifferentialRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 12345} {
		rng := NewRand(seed)
		r := &diffRig{t: t}
		for op := 0; op < 20_000; op++ {
			switch rng.Uint64n(10) {
			case 0, 1, 2:
				r.push(0)
			case 3, 4, 5:
				// Delays cluster small so same-time ties are common and the
				// seq tiebreak actually gets exercised.
				r.push(rng.Uint64n(16))
			case 6, 7:
				r.cancel(int(rng.Uint64n(64)))
			default:
				if !r.pop() {
					t.Fatalf("seed %d: diverged at op %d", seed, op)
				}
			}
			if r.ours.len() != r.ref.Len() {
				t.Fatalf("seed %d op %d: queue holds %d events, reference %d", seed, op, r.ours.len(), r.ref.Len())
			}
		}
		if !r.drain() {
			t.Fatalf("seed %d: drain diverged or queues out of sync", seed)
		}
		if r.laned == 0 || r.laneCancels == 0 {
			t.Fatalf("seed %d: lane not exercised (%d lane pushes, %d lane cancels)", seed, r.laned, r.laneCancels)
		}
	}
}

// TestHeapDifferentialQuick drives the same comparison from
// testing/quick-generated operation streams: each op pushes (with a small
// delay from its low bits, zero one time in three), cancels, or pops.
func TestHeapDifferentialQuick(t *testing.T) {
	prop := func(ops []uint16) bool {
		r := &diffRig{}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				delay := uint64(op>>2) % 32
				if (op>>7)%3 == 0 {
					delay = 0
				}
				r.push(delay)
			case 2:
				r.cancel(int(op >> 2))
			default:
				if !r.pop() {
					return false
				}
			}
		}
		return r.drain()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHeapIndexInvariant checks that every queued event's index matches its
// place after arbitrary middle removals — the property Cancel depends on: a
// heap event's index is its slot, a lane event's is the lane sentinel, and a
// removed or popped event's is -1.
func TestHeapIndexInvariant(t *testing.T) {
	rng := NewRand(9)
	var q eventQueue
	var live []*Event
	now := uint64(0)
	for op := 0; op < 5_000; op++ {
		switch k := rng.Uint64n(6); {
		case k < 4 || len(live) == 0:
			delay := rng.Uint64n(1000)
			if k < 2 {
				delay = 0
			}
			ev := &Event{at: now + delay, seq: uint64(op)}
			q.push(ev, delay)
			live = append(live, ev)
		case k == 4:
			k := int(rng.Uint64n(uint64(len(live))))
			ev := live[k]
			live = append(live[:k], live[k+1:]...)
			q.remove(ev)
			if ev.index != -1 {
				t.Fatal("removed event still claims a slot")
			}
		default:
			ev := q.peek()
			q.pop(ev)
			if ev.index != -1 {
				t.Fatal("popped event still claims a slot")
			}
			now = ev.at
			for i, l := range live {
				if l == ev {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		for i, ev := range q.heap.a {
			if int(ev.index) != i {
				t.Fatalf("op %d: slot %d holds event with index %d", op, i, ev.index)
			}
		}
		for _, ev := range q.lane[q.head:] {
			if ev.index != laneIndex {
				t.Fatalf("op %d: lane holds event with index %d", op, ev.index)
			}
		}
		if q.len() != len(live) {
			t.Fatalf("op %d: queue holds %d events, want %d", op, q.len(), len(live))
		}
	}
}

// TestLaneTakesOnlyItsTailTime: a zero-delay push whose time differs from
// the lane's tail goes to the heap, so the lane stays sorted even if a
// caller's clock disagrees with the lane's.
func TestLaneTakesOnlyItsTailTime(t *testing.T) {
	var q eventQueue
	late := &Event{at: 5, seq: 0}
	early := &Event{at: 3, seq: 1}
	q.push(late, 0)
	q.push(early, 0)
	if late.index != laneIndex || early.index == laneIndex {
		t.Fatalf("lane placement: late %d, early %d", late.index, early.index)
	}
	for _, want := range []*Event{early, late} {
		ev := q.peek()
		if ev != want {
			t.Fatalf("popped at=%d, want at=%d", ev.at, want.at)
		}
		q.pop(ev)
	}
}
