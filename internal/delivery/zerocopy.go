package delivery

import (
	"fugu/internal/vm"
)

// ZeroCopyRemap is the page-remap zero-copy receive organization (after
// "Using Memory-Protection to Simplify Zero-copy Operations"): instead of
// copying a diverted message into a software buffer, the kernel pins a fresh
// physical frame, deposits the message in it once, and flips the page into
// the receiver's address space. The receive path pays a constant remap cost
// (map + TLB invalidate) regardless of message size, but every undelivered
// message holds an entire pinned frame — the memory-footprint tradeoff the
// paper's virtual buffering avoids. When the frame pool is exhausted the
// kernel falls back to a copying insert (Fallback in PushResult), so
// delivery remains guaranteed.
//
// The kernel's divert machinery (mismatch ISR, buffered mode, overflow
// control) is reused unchanged; only the second-case store differs.
type ZeroCopyRemap struct{}

// Name implements Policy.
func (ZeroCopyRemap) Name() string { return "zerocopy" }

// KernelBuffered implements Policy: zero-copy remap still diverts through
// the kernel; it changes how the diverted message is stored, not who stores
// it.
func (ZeroCopyRemap) KernelBuffered() bool { return true }

// HardwareDemux implements Policy.
func (ZeroCopyRemap) HardwareDemux() bool { return false }

// NewStore implements Policy.
func (ZeroCopyRemap) NewStore(frames *vm.Frames, p Params) Store {
	return &remapStore{
		queue: queue{space: vm.NewSpace(frames)},
		costs: p.Costs,
	}
}

// remapEntry is where one stored message's words live: a pinned page
// flipped into the receiver's space (vp valid; the page's first word is the
// length) or a kernel copy taken when no frame was free (words valid).
type remapEntry struct {
	vp       uint64   // virtual page holding the message, if pinned
	words    []uint64 // fallback copy, if the pool was exhausted
	fallback bool
}

// remapStore holds messages one-per-pinned-page, FIFO. Unlike the other
// stores it cannot find a message's words from its position in the queue
// alone, since each one is either on its own page or in a fallback copy, so
// it keeps entries in step with the queue's meta.
type remapStore struct {
	queue
	costs   Costs
	entries []remapEntry // parallel to meta
	nextVp  uint64       // next virtual page to flip a message into (never reused)
}

// Admit implements Store: the copy fallback guarantees delivery, so every
// message is admitted.
func (s *remapStore) Admit(nwords int) bool { return true }

// Push implements Store: pin a frame and flip it in, or copy when the pool
// is dry.
func (s *remapStore) Push(id uint64, words []uint64, sentAt, now uint64) PushResult {
	if len(words)+1 > vm.PageWords {
		panic("delivery: zero-copy message larger than a page")
	}
	var res PushResult
	vp := s.nextVp
	base := vp * vm.PageWords
	if _, ok := s.space.Ensure(base); ok {
		s.nextVp++
		s.space.Write(base, uint64(len(words)))
		for i, w := range words {
			s.space.Write(base+1+uint64(i), w)
		}
		s.entries = append(s.entries, remapEntry{vp: vp})
	} else {
		// Frame pool exhausted: degrade to a copying insert into statically
		// allocated kernel memory so delivery still succeeds.
		cp := make([]uint64, len(words))
		copy(cp, words)
		s.entries = append(s.entries, remapEntry{words: cp, fallback: true})
		res.Fallback = true
	}
	s.push(MsgMeta{ID: id, SentAt: sentAt, InsertedAt: now})
	return res
}

// InsertCost implements Store: a constant page flip, or the copying insert
// when the pool was dry.
func (s *remapStore) InsertCost(r PushResult) uint64 {
	if r.Fallback {
		return s.costs.InsertVMAlloc + s.costs.ExtraInsert
	}
	return s.costs.Remap + s.costs.ExtraInsert
}

// Pop implements Store: consuming a pinned message unmaps its page (TLB
// shootdown), releasing the frame.
func (s *remapStore) Pop() (MsgMeta, uint64) {
	meta := s.pop()
	e := s.entries[0]
	copy(s.entries, s.entries[1:])
	s.entries = s.entries[:len(s.entries)-1]
	if e.fallback {
		return meta, 0
	}
	s.space.Unmap(e.vp * vm.PageWords)
	return meta, s.costs.RemapRelease
}

// PopCost implements Store: the shootdown, unless the head was copied.
func (s *remapStore) PopCost() uint64 {
	if len(s.entries) == 0 || s.entries[0].fallback {
		return 0
	}
	return s.costs.RemapRelease
}

// HeadLen implements Store.
func (s *remapStore) HeadLen() int {
	e := &s.entries[0]
	if e.fallback {
		return len(e.words)
	}
	return int(s.space.Read(e.vp * vm.PageWords))
}

// HeadWord implements Store.
func (s *remapStore) HeadWord(i int) uint64 {
	e := &s.entries[0]
	if e.fallback {
		return e.words[i]
	}
	return s.space.Read(e.vp*vm.PageWords + 1 + uint64(i))
}
