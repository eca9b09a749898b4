package sim

// eventHeap is a 4-ary min-heap of events ordered by (at, seq), specialized
// to *Event so its operations stay monomorphic — no container/heap interface
// dispatch, no boxing through any. Its one owner, eventQueue, keeps on it
// the events due beyond the timing wheel. The seq tiebreak makes pop order
// — and therefore the whole simulation — deterministic. Each event tracks
// its own slot (Event.index), so Cancel removes from the middle in
// O(log n) without a search.
//
// The 4-ary shape trades slightly more comparisons per level for half the
// levels of a binary heap; with the hot working set being the first few
// cache lines of the slice, pops touch less memory. remove restores the
// invariant by moving the displaced tail element down or up as needed.
type eventHeap struct {
	a []*Event
}

// eventBefore is the queue's total order: time, then issue sequence.
func eventBefore(x, y *Event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (h *eventHeap) len() int { return len(h.a) }

// push inserts ev. It stays out of line so the wheel path of
// eventQueue.push carries no append.
func (h *eventHeap) push(ev *Event) {
	h.a = append(h.a, ev)
	h.siftUp(len(h.a)-1, ev)
}

// pop removes and returns the minimum event, marking it unqueued.
func (h *eventHeap) pop() *Event {
	ev := h.a[0]
	n := len(h.a) - 1
	last := h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	ev.index = -1
	if n > 0 {
		h.siftDown(0, last)
	}
	return ev
}

// remove deletes the event at slot i, marking it unqueued.
func (h *eventHeap) remove(i int) {
	n := len(h.a) - 1
	ev := h.a[i]
	last := h.a[n]
	h.a[n] = nil
	h.a = h.a[:n]
	ev.index = -1
	if i < n {
		// The tail element replaces the hole; it may violate the invariant
		// in either direction.
		if !h.siftDown(i, last) {
			h.siftUp(i, last)
		}
	}
}

// siftUp places ev at slot i or above, shifting larger ancestors down.
func (h *eventHeap) siftUp(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(ev, h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		h.a[i].index = int32(i)
		i = p
	}
	h.a[i] = ev
	ev.index = int32(i)
}

// siftDown places ev at slot i or below, pulling the smallest child up at
// each level. It reports whether ev moved.
func (h *eventHeap) siftDown(i int, ev *Event) bool {
	start := i
	n := len(h.a)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventBefore(h.a[j], h.a[m]) {
				m = j
			}
		}
		if !eventBefore(h.a[m], ev) {
			break
		}
		h.a[i] = h.a[m]
		h.a[i].index = int32(i)
		i = m
	}
	h.a[i] = ev
	ev.index = int32(i)
	return i != start
}
