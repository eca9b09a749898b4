package delivery

import "fugu/internal/vm"

// queue is the message FIFO every store shares: the metadata of messages
// pushed and not yet popped, in arrival order, plus the address space the
// store keeps their words in. It is the second case's software buffer
// stripped of word placement; each store embeds it and adds only where the
// words live and what admitting, inserting and releasing them costs.
//
// meta is simulator bookkeeping (latency and residency instrumentation),
// not simulated memory: it consumes no frames and never pages, so recording
// it cannot perturb experiment results.
type queue struct {
	space *vm.Space
	meta  []MsgMeta
}

// push appends a message's metadata at the tail.
func (q *queue) push(m MsgMeta) { q.meta = append(q.meta, m) }

// pop removes and returns the head's metadata. The copy-shift keeps the
// slice's base, so later pushes reuse its capacity instead of allocating.
func (q *queue) pop() MsgMeta {
	if len(q.meta) == 0 {
		panic("delivery: pop from empty store")
	}
	m := q.meta[0]
	copy(q.meta, q.meta[1:])
	q.meta = q.meta[:len(q.meta)-1]
	return m
}

// Empty implements Store.
func (q *queue) Empty() bool { return len(q.meta) == 0 }

// Pending implements Store.
func (q *queue) Pending() int { return len(q.meta) }

// Head implements Store.
func (q *queue) Head() (MsgMeta, bool) {
	if len(q.meta) == 0 {
		return MsgMeta{}, false
	}
	return q.meta[0], true
}

// PendingIDs implements Store.
func (q *queue) PendingIDs() []uint64 {
	if len(q.meta) == 0 {
		return nil
	}
	ids := make([]uint64, len(q.meta))
	for i, m := range q.meta {
		ids[i] = m.ID
	}
	return ids
}

// PagesResident implements Store.
func (q *queue) PagesResident() int { return q.space.PagesMapped() }

// PagesHighWater implements Store: the most physical pages the store ever
// held — for the virtual buffer, the per-node metric behind the paper's
// "less than seven pages/node".
func (q *queue) PagesHighWater() int { return q.space.HighWater() }
