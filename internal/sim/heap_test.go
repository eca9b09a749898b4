package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// refItem / refHeap are a reference priority queue built on the standard
// library's container/heap with the same (at, seq) order, used to check the
// event queue (the timing wheel plus the overflow heap) pop-for-pop.
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
// so near pushes land in wheel buckets, far ones on the overflow heap, and
// cancels can hit either.
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
	// Path counters, so a test can require that every path was exercised:
	// pushes that overflowed to the heap, and cancels of a bucket's head,
	// middle and tail and of the cached minimum.
	overflowed                           int
	headCancels, midCancels, tailCancels int
	minCancels                           int
}

func newDiffRig(t *testing.T) *diffRig {
	r := &diffRig{t: t}
	r.ours.presize()
	return r
}

func (r *diffRig) push(delay uint64) {
	ev := &Event{at: r.now + delay, seq: r.seq}
	it := &refItem{at: r.now + delay, seq: r.seq}
	r.seq++
	r.ours.push(ev)
	if ev.index != wheelIndex {
		r.overflowed++
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
	if e.ev.index == wheelIndex {
		r.ours.syncMin()
		b := r.ours.w.b[e.ev.at&wheelMask]
		switch {
		case b.head == e.ev:
			r.headCancels++
		case b.tail == e.ev:
			r.tailCancels++
		default:
			r.midCancels++
		}
		if r.ours.min == e.ev {
			r.minCancels++
		}
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
// reference (at, seq) order. Delays span 0 to three wheel widths, so events
// take both structures and the clock laps the wheel many times.
func TestHeapDifferentialRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 12345} {
		rng := NewRand(seed)
		r := newDiffRig(t)
		for op := 0; op < 20_000; op++ {
			switch rng.Uint64n(10) {
			case 0, 1:
				r.push(0)
			case 2, 3:
				// Delays cluster small so same-time ties are common and the
				// seq tiebreak actually gets exercised.
				r.push(rng.Uint64n(16))
			case 4:
				r.push(rng.Uint64n(3 * wheelSize))
			case 5, 6:
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
		if laps := r.now / wheelSize; laps < 3 {
			t.Fatalf("seed %d: clock lapped the wheel %d times, want at least 3", seed, laps)
		}
		if r.overflowed == 0 || r.headCancels == 0 || r.midCancels == 0 || r.tailCancels == 0 || r.minCancels == 0 {
			t.Fatalf("seed %d: a path went unexercised (%d overflow pushes; bucket cancels: %d head, %d middle, %d tail, %d of the minimum)",
				seed, r.overflowed, r.headCancels, r.midCancels, r.tailCancels, r.minCancels)
		}
	}
}

// TestHeapDifferentialQuick drives the same comparison from
// testing/quick-generated operation streams: each op pushes (with a small
// delay from its low bits, zero one time in four and up to three wheel
// widths one time in four), cancels, or pops.
func TestHeapDifferentialQuick(t *testing.T) {
	prop := func(ops []uint16) bool {
		r := newDiffRig(nil)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				delay := uint64(op>>2) % 32
				switch (op >> 7) % 4 {
				case 0:
					delay = 0
				case 1:
					delay = uint64(op>>2) % (3 * wheelSize)
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

// checkWheel verifies the wheel's structure against its invariants: a
// bucket other than min's is empty exactly when its bitmap bit is clear
// (min's bucket may leave its bit clear), holds events of one
// fire time that maps to it, lies within a wheel width of the last pop, is
// sorted by seq and ends at its tail; every event on it carries wheelIndex;
// used counts the non-empty buckets; and min is the head of the earliest bucket (once
// syncMin has stored it as that bucket's head). It returns the event count.
func checkWheel(t *testing.T, q *eventQueue) int {
	t.Helper()
	q.syncMin()
	n, used := 0, 0
	var min *Event
	for i := range q.w.b {
		b := q.w.b[i]
		set := q.w.bits[i/64]&(1<<(i%64)) != 0
		if b.head != nil {
			used++
		}
		if (b.head == nil) != (b.tail == nil) || (b.head != nil) != set && b.head != q.min {
			t.Fatalf("bucket %d: head %p, tail %p, bit %v", i, b.head, b.tail, set)
		}
		for ev := b.head; ev != nil; ev = ev.next {
			n++
			switch {
			case ev.index != wheelIndex:
				t.Fatalf("bucket %d holds event with index %d", i, ev.index)
			case ev.at&wheelMask != uint64(i) || ev.at != b.head.at:
				t.Fatalf("bucket %d holds an event due at %d beside one due at %d", i, ev.at, b.head.at)
			case ev.at-q.cur >= wheelSize:
				t.Fatalf("bucket %d holds an event due at %d, outside the window from %d", i, ev.at, q.cur)
			case ev.next == nil && ev != b.tail:
				t.Fatalf("bucket %d ends before its tail", i)
			case ev.next != nil && ev.next.seq <= ev.seq:
				t.Fatalf("bucket %d out of seq order", i)
			}
		}
		if b.head != nil && (min == nil || b.head.at < min.at) {
			min = b.head
		}
	}
	if q.min != min || q.used != used {
		t.Fatalf("cached minimum %p, earliest bucket head %p; %d buckets counted in use, %d non-empty", q.min, min, q.used, used)
	}
	return n
}

// TestHeapIndexInvariant checks that every queued event's index matches its
// place after arbitrary middle removals — the property Cancel depends on: a
// heap event's index is its slot, a wheel event's is the wheel sentinel, and
// a removed or popped event's is -1 — and that the wheel's buckets, bitmap
// and cached minimum stay consistent throughout.
func TestHeapIndexInvariant(t *testing.T) {
	rng := NewRand(9)
	var q eventQueue
	q.presize()
	var live []*Event
	now := uint64(0)
	for op := 0; op < 5_000; op++ {
		switch k := rng.Uint64n(6); {
		case k < 4 || len(live) == 0:
			delay := rng.Uint64n(3 * wheelSize)
			if k < 2 {
				delay = rng.Uint64n(4)
			}
			ev := &Event{at: now + delay, seq: uint64(op)}
			q.push(ev)
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
		if n := q.heap.len() + checkWheel(t, &q); n != len(live) || q.len() != n {
			t.Fatalf("op %d: queue holds %d events (len %d), want %d", op, n, q.len(), len(live))
		}
	}
}

// TestWheelTakesOnlyItsWindow: an event due a wheel width or more past the
// last pop goes to the heap, as does one due before it (its distance
// underflows), so no bucket ever mixes two fire times; pops still come out
// in (at, seq) order across both structures.
func TestWheelTakesOnlyItsWindow(t *testing.T) {
	var q eventQueue
	q.presize()
	first := &Event{at: 100, seq: 0}
	q.push(first)
	q.pop(q.peek()) // cur = 100
	near := &Event{at: 100 + wheelSize - 1, seq: 1}
	far := &Event{at: 100 + wheelSize, seq: 2}
	past := &Event{at: 99, seq: 3}
	same := &Event{at: 100, seq: 4}
	for _, ev := range []*Event{near, far, past, same} {
		q.push(ev)
	}
	if near.index != wheelIndex || same.index != wheelIndex {
		t.Fatalf("near events off the wheel: index %d, %d", near.index, same.index)
	}
	if far.index == wheelIndex || past.index == wheelIndex {
		t.Fatalf("far or past event on the wheel: index %d, %d", far.index, past.index)
	}
	for _, want := range []*Event{past, same, near, far} {
		ev := q.peek()
		if ev != want {
			t.Fatalf("popped (at=%d seq=%d), want (at=%d seq=%d)", ev.at, ev.seq, want.at, want.seq)
		}
		q.pop(ev)
	}
	if q.peek() != nil || q.len() != 0 {
		t.Fatal("queue not empty after popping everything")
	}
}

// TestCancelMinKeepsWindow: cancelling the wheel's earliest event while the
// heap still holds an earlier one must not move the wheel's window, or a
// later bucket could mix two fire times and pop out of order.
func TestCancelMinKeepsWindow(t *testing.T) {
	var q eventQueue
	q.presize()
	early := &Event{at: 300, seq: 0} // beyond the window from 0: the heap
	q.push(early)
	q.push(&Event{at: 100, seq: 1})
	q.pop(q.peek()) // cur = 100
	min := &Event{at: 310, seq: 2}
	q.push(min)
	if min.index != wheelIndex || q.peek() != early {
		t.Fatalf("setup: min index %d, peek at %d", min.index, q.peek().at)
	}
	q.remove(min)
	late := &Event{at: 565, seq: 3} // shares bucket 53 with 309
	q.push(late)
	q.pop(q.peek()) // early, at 300
	mid := &Event{at: 309, seq: 4}
	q.push(mid)
	for _, want := range []*Event{mid, late} {
		if ev := q.peek(); ev != want {
			t.Fatalf("popped at=%d, want at=%d", ev.at, want.at)
		}
		q.pop(want)
	}
}

// TestCancelMinThenEarlierPush: cancelling min moves it along its bucket
// without a pop, so cur stays below that bucket; a push into an earlier
// bucket then takes over min and must leave the old bucket's head true.
func TestCancelMinThenEarlierPush(t *testing.T) {
	var q eventQueue
	q.presize()
	a, b := &Event{at: 10, seq: 0}, &Event{at: 10, seq: 1}
	q.push(a)
	q.push(b)
	q.remove(a)
	c := &Event{at: 5, seq: 2}
	q.push(c)
	if n := q.len(); n != 2 {
		t.Fatalf("queue holds %d events, want 2", n)
	}
	for _, want := range []*Event{c, b} {
		if ev := q.peek(); ev != want {
			t.Fatalf("popped (at=%d seq=%d), want (at=%d seq=%d)", ev.at, ev.seq, want.at, want.seq)
		}
		q.pop(want)
	}
	if q.peek() != nil {
		t.Fatal("queue not empty")
	}
}
