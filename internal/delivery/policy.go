// Package delivery defines the pluggable receive-side delivery policy: the
// seam between the network interface, the Glaze kernel and the user-level
// runtime that decides how a protected message that cannot be consumed
// directly off the wire reaches its owner.
//
// The paper's two-case delivery is one Policy (TwoCase, the default): misses
// divert into a kernel-managed virtual software buffer and drain back to the
// fast path. Two rival organizations from the literature are provided for
// head-to-head comparison on identical workloads: ZeroCopyRemap (per-message
// page flips with pinned-page accounting, after "Using Memory-Protection to
// Simplify Zero-copy Operations") and BypassRing (per-process protected
// descriptor rings with static partitioning and drop+NACK overflow, after
// "Safe Sharing of Fast Kernel-Bypass I/O Among Nontrusting Applications").
//
// The package depends only on the vm substrate; glaze consumes it, and the
// NI reaches policies through a small hook interface glaze implements, so the
// hardware model never imports OS code.
package delivery

import (
	"fmt"
	"sort"

	"fugu/internal/vm"
)

// Costs carries the cycle constants a Store charges, resolved from the
// machine's cost model at process creation.
type Costs struct {
	InsertMin     uint64 // minimum kernel buffer-insert handler (Table 5: 180)
	InsertVMAlloc uint64 // insert with demand page allocation (Table 5: 3162)
	ExtraInsert   uint64 // artificial insert-handler addition (Figure 10 knob)
	PageOut       uint64 // evict one buffer page to backing store
	PageIn        uint64 // restore one buffer page
	Remap         uint64 // zero-copy page flip: map + TLB invalidate
	RemapRelease  uint64 // zero-copy consume: unmap + TLB shootdown
}

// Params parameterizes a Store for one process.
type Params struct {
	Costs Costs
	// NoReclaim pins consumed buffer pages (the pinned-buffer ablation of the
	// paper's Section 5.1); only the virtual buffer honours it.
	NoReclaim bool
}

// MsgMeta carries a stored message's identity and timestamps: the mesh packet
// ID (for lifecycle spans), when the sender injected it and when the store
// accepted it.
type MsgMeta struct {
	ID         uint64
	SentAt     uint64
	InsertedAt uint64
}

// PushResult reports what a Push did, so the kernel can charge and count it.
type PushResult struct {
	NewPages int  // pages demand-allocated (the vmalloc insert path)
	PagedOut int  // pages evicted to backing store to make room
	Fallback bool // zero-copy only: no frame free, the kernel copied instead
}

// Store is one process's second-case message store on one node. The kernel
// (or, for hardware-demultiplexed policies, the NI) pushes whole messages;
// the user-level runtime reads and pops them through the transparent-access
// indirection. Stores are single-threaded simulator state: no locking.
type Store interface {
	// Admit asks whether a message of nwords words may be accepted right now.
	// A refusal propagates as network backpressure (NACK + retry); stores
	// with guaranteed delivery always admit. Admitting may reserve capacity:
	// every Admit(true) is followed by exactly one Push.
	Admit(nwords int) bool
	// Push appends a message. It must succeed for any admitted message.
	// words is borrowed for the call only: the store copies what it keeps,
	// because the caller recycles the packet that holds them as soon as
	// Push returns.
	Push(id uint64, words []uint64, sentAt, now uint64) PushResult
	// InsertCost returns the cycles the inserting context spends for a Push
	// with the given result.
	InsertCost(r PushResult) uint64
	// Pop consumes the head message, returning its metadata and the cycles
	// the disposing context spends releasing it.
	Pop() (MsgMeta, uint64)
	// PopCost returns the cycles Pop would now return, changing nothing.
	PopCost() uint64

	Empty() bool
	// Pending reports messages pushed and not yet popped.
	Pending() int
	// Head returns the head message's metadata, false if the store is empty.
	Head() (MsgMeta, bool)
	// HeadLen and HeadWord read the head message (length in words, word i).
	HeadLen() int
	HeadWord(i int) uint64
	// PendingIDs lists unconsumed message IDs in order (diagnostics).
	PendingIDs() []uint64

	// PagesResident and PagesHighWater report physical pages currently and
	// maximally consumed by the store — the memory-footprint axis of the
	// policy comparison.
	PagesResident() int
	PagesHighWater() int
}

// Policy is one receive-side delivery organization. A Policy is stateless
// configuration: per-process state lives in the Stores it creates.
type Policy interface {
	// Name is the registry key ("twocase", "zerocopy", "bypass").
	Name() string
	// KernelBuffered reports whether the policy uses the kernel's divert
	// machinery (mismatch ISR, buffered mode, overflow control). Policies
	// without it never flip a process to buffered delivery: revocation,
	// in-handler faults and context switches leave the mode alone.
	KernelBuffered() bool
	// HardwareDemux reports whether the NI demultiplexes user packets into
	// per-process stores directly (kernel-bypass), instead of raising
	// mismatch interrupts for software to sort out.
	HardwareDemux() bool
	// NewStore builds one process's store over the node's frame pool.
	NewStore(frames *vm.Frames, p Params) Store
}

// registry maps policy names to constructors of their default configuration.
var registry = map[string]func() Policy{
	"twocase":  func() Policy { return TwoCase{} },
	"zerocopy": func() Policy { return ZeroCopyRemap{} },
	"bypass":   func() Policy { return DefaultBypassRing() },
}

// ByName resolves a policy by registry name.
func ByName(name string) (Policy, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("delivery: unknown policy %q (have %v)", name, Names())
	}
	return mk(), nil
}

// Names lists the registered policy names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
