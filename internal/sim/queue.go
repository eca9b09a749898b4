package sim

import (
	"math"
	"slices"
)

// laneIndex is the Event.index of an event waiting in the zero-delay lane.
// It is positive, so Handle.Pending reads a lane event as queued, and no
// heap slot can reach it.
const laneIndex = math.MaxInt32

// eventQueue is the engine's event queue: the 4-ary eventHeap plus a FIFO
// lane for zero-delay events. About 42% of the events a machine schedules
// are due at the current cycle (task wakes, Yield, Cond.Signal); the lane
// takes them for an append and a head bump instead of a heap sift each way.
//
// An event joins the lane only when its delay is zero and the lane is empty
// or the lane's tail is due at the same time. Every lane entry therefore has
// one fire time, and sequence numbers grow with each schedule, so the lane
// is sorted by (at, seq) on its own. The queue minimum is then the lesser of
// the heap top and the lane head under eventBefore: peek returns it and pop
// removes it. That argument holds for any clock behaviour, so pop order is
// exactly the heap-only order.
type eventQueue struct {
	heap eventHeap
	lane []*Event
	head int // lane[head:] is queued; push restarts a drained lane at the front
}

// queueCap pre-sizes both structures. The bench's workloads peaked at 56
// lane events and 32 heap events at once, and push slides a refilling lane
// down rather than growing it, so neither allocates mid-run. The heap needs
// it too: the spawn wakes that used to grow it while a machine is built now
// take the lane, so an unsized heap would grow in the run's first cycles
// instead.
const queueCap = 64

// presize allocates the backing arrays up front.
func (q *eventQueue) presize() {
	q.lane = make([]*Event, 0, queueCap)
	q.heap.a = make([]*Event, 0, queueCap)
}

// len counts queued events in both structures.
func (q *eventQueue) len() int { return q.heap.len() + len(q.lane) - q.head }

// push queues ev, which is due delay cycles from now: on the lane when the
// delay is zero and the lane is empty or its tail is due at the same time,
// otherwise on the heap. The heap insert is written out here (siftUp
// inlines) so a delayed Schedule costs no more calls than a bare heap push.
func (q *eventQueue) push(ev *Event, delay uint64) {
	n := len(q.lane)
	if delay != 0 || (n != q.head && q.lane[n-1].at != ev.at) {
		q.heap.a = append(q.heap.a, ev)
		q.heap.siftUp(len(q.heap.a)-1, ev)
		return
	}
	if q.head > 0 && (q.head == n || n == cap(q.lane)) {
		// Restart a drained lane at the front, and slide down a lane that
		// keeps refilling before it drains (a same-cycle chain of zero-delay
		// events) rather than growing its backing array.
		n = copy(q.lane, q.lane[q.head:])
		q.lane = q.lane[:n]
		q.head = 0
	}
	ev.index = laneIndex
	q.lane = append(q.lane, ev)
}

// peek returns the earliest queued event without removing it, nil when
// both structures are empty.
func (q *eventQueue) peek() *Event {
	top := q.heap.peek()
	if q.head < len(q.lane) {
		if ev := q.lane[q.head]; top == nil || eventBefore(ev, top) {
			return ev
		}
	}
	return top
}

// pop removes ev, which must be the event peek just returned, and marks it
// unqueued. It is small enough to inline into the event loops. A popped lane
// slot keeps its stale pointer until push reuses it; that pins nothing, since
// released events stay in the engine's pool anyway.
func (q *eventQueue) pop(ev *Event) {
	if ev.index != laneIndex {
		q.heap.pop()
		return
	}
	ev.index = -1
	q.head++
}

// remove deletes a queued event from the middle of either structure (the
// Cancel path). Lane cancels are rare, so the lane is scanned.
func (q *eventQueue) remove(ev *Event) {
	if ev.index != laneIndex {
		q.heap.remove(int(ev.index))
		return
	}
	for i := q.head; i < len(q.lane); i++ {
		if q.lane[i] == ev {
			q.lane = slices.Delete(q.lane, i, i+1)
			break
		}
	}
	ev.index = -1
}
