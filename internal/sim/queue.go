package sim

import (
	"math"
	"math/bits"
)

const (
	// wheelSize is the timing wheel's span in cycles: one FIFO bucket per
	// cycle. Every delay the bench's mesh workloads schedule is below 224,
	// and a machine's spends, timers and wire latencies are shorter still.
	wheelSize = 256
	wheelMask = wheelSize - 1

	// wheelIndex is the Event.index of an event waiting in a wheel bucket.
	// It is positive, so Handle.Pending reads a wheel event as queued, and
	// no heap slot can reach it.
	wheelIndex = math.MaxInt32
)

// bucket is one cycle's FIFO of wheel events, threaded through Event.next
// (an event uses that link only while it sits on the free list, so buckets
// need no storage of their own).
type bucket struct{ head, tail *Event }

// wheel is the bucket array and a bitmap of the non-empty buckets (the bit
// of the bucket holding eventQueue.min may be left clear). It is allocated
// once per engine, out of line, so the Engine stays small.
type wheel struct {
	b    [wheelSize]bucket
	bits [wheelSize / 64]uint64
}

// eventQueue is the engine's event queue: a timing wheel of per-cycle FIFO
// buckets for events due within wheelSize cycles of the last pop, and the
// 4-ary eventHeap for everything due later.
//
// cur is the fire time of the last pop. push sends an event with
// at − cur < wheelSize to bucket at&wheelMask and anything else to the heap
// (an at below cur underflows to a large distance and lands on the heap too,
// which is still correct). Pops come in time order, so every wheel event
// lies in [cur, cur+wheelSize) and a bucket only ever holds one fire time.
// Every push follows the alloc that stamped the event's seq, so append
// order is seq order and each bucket is sorted by (at, seq). The queue
// minimum is then the lesser of the earliest bucket's head and the heap top
// under eventBefore: peek returns it and pop removes it. That argument holds
// for any clock behaviour, so pop order is exactly the heap-only order.
//
// min caches the earliest bucket's head, so peek and the common pop stay
// small enough to inline. push sets it when an empty bucket gets an earlier
// head; pop advances it along the bucket and rescans the bitmap only when
// the bucket empties. While a bucket holds min, the queue skips two stores
// the hot paths would otherwise pay for: min is the bucket's true head, and
// its own head field is left behind (syncMin writes it back before anything
// else reads that field), and its bitmap bit may be clear (only the scan
// for min's successor reads bits, and it clears min's first).
type eventQueue struct {
	heap eventHeap
	w    *wheel
	min  *Event // head of the earliest non-empty bucket, nil when the wheel is empty
	cur  uint64 // fire time of the last pop
	used int    // non-empty buckets, so emptying the last one skips the scan
}

// heapCap pre-sizes the overflow heap, so it does not grow mid-run: with
// the wheel taking everything due within 256 cycles, the bench's serial
// workloads never held more than 16 heap events at once.
const heapCap = 64

// presize allocates the wheel and the heap's backing array up front.
func (q *eventQueue) presize() {
	q.w = new(wheel)
	q.heap.a = make([]*Event, 0, heapCap)
}

// syncMin stores min as its bucket's head, so every bucket's head field is
// true until the next pop.
func (q *eventQueue) syncMin() {
	if m := q.min; m != nil {
		q.w.b[m.at&wheelMask].head = m
	}
}

// len counts queued events in both structures. It walks the buckets, so it
// is for diagnostics, not the hot path.
func (q *eventQueue) len() int {
	q.syncMin()
	n := q.heap.len()
	for i := range q.w.b {
		for ev := q.w.b[i].head; ev != nil; ev = ev.next {
			n++
		}
	}
	return n
}

// push queues ev, freshly stamped by alloc (so its next link is nil): on
// the wheel when it is due within wheelSize cycles of cur, otherwise on the
// heap.
func (q *eventQueue) push(ev *Event) {
	if ev.at-q.cur >= wheelSize {
		q.heap.push(ev)
		return
	}
	ev.index = wheelIndex
	w := q.w
	i := ev.at & wheelMask
	b := &w.b[i]
	if b.tail != nil {
		b.tail.next = ev
		b.tail = ev
		return
	}
	b.head, b.tail = ev, ev
	q.used++
	if m := q.min; m != nil && m.at < ev.at {
		w.bits[i/64] |= 1 << (i % 64)
		return
	}
	// ev's bucket becomes the earliest. Its bit may stay clear while it
	// holds min; the bucket it displaces needs its head and bit back.
	if m := q.min; m != nil {
		j := m.at & wheelMask
		w.b[j].head = m
		w.bits[j/64] |= 1 << (j % 64)
	}
	q.min = ev
}

// peek returns the earliest queued event without removing it, nil when
// both structures are empty.
func (q *eventQueue) peek() *Event {
	ev := q.min
	if len(q.heap.a) != 0 {
		if top := q.heap.a[0]; ev == nil || eventBefore(top, ev) {
			return top
		}
	}
	return ev
}

// pop removes ev, which must be the event peek just returned, and marks it
// unqueued. Its common case — a wheel event with another behind it in its
// bucket — inlines into the event loops. Only wheel events are ever linked
// while queued, so a non-nil next identifies that case on its own.
func (q *eventQueue) pop(ev *Event) {
	if ev.next == nil {
		q.popLast(ev)
		return
	}
	q.cur = ev.at
	ev.index = -1
	q.min = ev.next
}

// popLast is pop's out-of-line half: a heap pop, or the last event of the
// earliest bucket, after which min moves to the head of the next non-empty
// bucket (nil when the wheel is empty). Every wheel event lies in
// [ev.at, ev.at+wheelSize), so scanning the bitmap circularly from ev's
// bucket visits buckets in time order: the starting word from ev's bucket
// up, then the other words, then the starting word again (its bits below
// ev's bucket come last).
func (q *eventQueue) popLast(ev *Event) {
	q.cur = ev.at
	if ev.index != wheelIndex {
		q.heap.pop()
		return
	}
	ev.index = -1
	w := q.w
	i := uint(ev.at & wheelMask)
	w.b[i] = bucket{}
	word := i / 64
	if q.used--; q.used == 0 {
		w.bits[word] = 0 // the wheel is empty: no other bit can be set
		q.min = nil
		return
	}
	m := w.bits[word] &^ (1 << (i % 64))
	w.bits[word] = m
	if m >>= i % 64; m != 0 {
		q.min = w.b[i+uint(bits.TrailingZeros64(m))].head
		return
	}
	for k := uint(1); k <= uint(len(w.bits)); k++ {
		j := (word + k) % uint(len(w.bits))
		if m := w.bits[j]; m != 0 {
			q.min = w.b[j*64+uint(bits.TrailingZeros64(m))].head
			return
		}
	}
	panic("sim: timing wheel bitmap lost a non-empty bucket")
}

// remove deletes a queued event from the middle of either structure (the
// Cancel path). A wheel event is unlinked by scanning its bucket; min only
// moves when the event removed was min itself.
func (q *eventQueue) remove(ev *Event) {
	if ev.index != wheelIndex {
		q.heap.remove(int(ev.index))
		return
	}
	if ev == q.min {
		// Remove it as pop would, but a cancel is not a pop: cur stays put,
		// since the heap may still hold events due before ev.
		cur := q.cur
		q.pop(ev)
		q.cur = cur
		return
	}
	q.syncMin()
	ev.index = -1
	i := ev.at & wheelMask
	b := &q.w.b[i]
	switch {
	case b.head != ev:
		p := b.head
		for p.next != ev {
			p = p.next
		}
		p.next = ev.next
		if b.tail == ev {
			b.tail = p
		}
	case ev.next != nil:
		b.head = ev.next
	default:
		*b = bucket{}
		q.w.bits[i/64] &^= 1 << (i % 64)
		q.used--
	}
}
