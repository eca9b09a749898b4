package delivery

import (
	"fmt"

	"fugu/internal/vm"
)

// BypassRing is the kernel-bypass organization (after "Safe Sharing of Fast
// Kernel-Bypass I/O Among Nontrusting Applications"): the NI demultiplexes
// arriving user packets directly into per-process protected descriptor
// rings, with no kernel on the receive path at all. Each process owns a
// statically partitioned ring of pinned pages sized at process creation;
// protection comes from the partitioning (a process can only see its own
// ring). There is no kernel buffered mode: when a ring is full the NI
// refuses the packet and the network NACKs it back for sender retry — the
// drop/retry overflow discipline of bypass NIs, and exactly the
// backpressure pathology two-case delivery was designed to avoid.
type BypassRing struct {
	// Pages is the pinned pages statically allocated per process ring.
	Pages int
	// SlotWords is the ring slot size in words; one message (length prefix
	// plus payload) must fit in a slot.
	SlotWords int
}

// DefaultBypassRing returns the default ring geometry: 4 pinned pages of
// 128-word slots (32 slots) per process.
func DefaultBypassRing() BypassRing {
	return BypassRing{Pages: 4, SlotWords: 128}
}

// Name implements Policy.
func (BypassRing) Name() string { return "bypass" }

// KernelBuffered implements Policy: there is no kernel divert machinery —
// revocation, in-handler faults and context switches never flip the process
// to buffered mode, and the mismatch/timeout ISRs stand down.
func (BypassRing) KernelBuffered() bool { return false }

// HardwareDemux implements Policy: the NI sorts user packets into rings
// itself.
func (BypassRing) HardwareDemux() bool { return true }

// NewStore implements Policy: the ring's pages are allocated eagerly and
// pinned for the life of the process (static partitioning).
func (b BypassRing) NewStore(frames *vm.Frames, p Params) Store {
	pages := b.Pages
	if pages <= 0 {
		pages = 4
	}
	slotWords := b.SlotWords
	if slotWords <= 0 {
		slotWords = 128
	}
	s := &ringStore{
		queue:     queue{space: vm.NewSpace(frames)},
		costs:     p.Costs,
		slotWords: slotWords,
		slots:     pages * vm.PageWords / slotWords,
	}
	for vp := 0; vp < pages; vp++ {
		if _, ok := s.space.Ensure(uint64(vp) * vm.PageWords); !ok {
			panic(fmt.Sprintf("delivery: cannot pin bypass ring page %d/%d: frame pool exhausted at process creation", vp+1, pages))
		}
	}
	return s
}

// ringStore is one process's descriptor ring: slots*slotWords words across
// statically pinned pages, FIFO by slot index.
type ringStore struct {
	queue
	costs     Costs
	slotWords int
	slots     int

	head     int // slot index of the next unread message
	reserved int // slots promised by Admit but not yet Pushed
}

// Admit implements Store: the NI's admission check. A message too large for
// a slot or arriving to a full ring is refused — the network NACKs it and
// the sender retries. Admission reserves the slot, so packets sitting in
// the NI input queue behind other admitted packets cannot oversubscribe the
// ring.
func (s *ringStore) Admit(nwords int) bool {
	if nwords+1 > s.slotWords || s.Pending()+s.reserved >= s.slots {
		return false
	}
	s.reserved++
	return true
}

// Push implements Store, consuming the reservation its Admit took.
func (s *ringStore) Push(id uint64, words []uint64, sentAt, now uint64) PushResult {
	if s.Pending() >= s.slots {
		panic("delivery: push to full bypass ring")
	}
	if s.reserved > 0 {
		s.reserved--
	}
	slot := (s.head + s.Pending()) % s.slots
	base := uint64(slot * s.slotWords)
	s.space.Write(base, uint64(len(words)))
	for i, w := range words {
		s.space.Write(base+1+uint64(i), w)
	}
	s.push(MsgMeta{ID: id, SentAt: sentAt, InsertedAt: now})
	return PushResult{}
}

// InsertCost implements Store: the NI writes the ring with DMA; no
// processor cycles are spent on insert.
func (s *ringStore) InsertCost(r PushResult) uint64 { return 0 }

// Pop implements Store: advancing the ring head is a register write; the
// extract costs are charged by the caller.
func (s *ringStore) Pop() (MsgMeta, uint64) {
	meta := s.pop()
	s.head = (s.head + 1) % s.slots
	return meta, 0
}

// PopCost implements Store: advancing the ring head is free.
func (s *ringStore) PopCost() uint64 { return 0 }

// HeadLen implements Store.
func (s *ringStore) HeadLen() int {
	return int(s.space.Read(uint64(s.head * s.slotWords)))
}

// HeadWord implements Store.
func (s *ringStore) HeadWord(i int) uint64 {
	return s.space.Read(uint64(s.head*s.slotWords) + 1 + uint64(i))
}
