// Package niq models the NI input queue — the scarce receive-side SRAM whose
// exhaustion is the whole reason second-case delivery exists. The seed
// hardware had exactly one organization, a fixed per-node FIFO; this package
// extracts that seam into an InputQueue interface with three buffer
// organizations at equal total slots:
//
//   - fifo: the original statically-provisioned single FIFO. The default, and
//     bit-identical to the pre-seam hardware (the golden tests pin this).
//   - damq: a dynamically-allocated multi-queue (Jamali & Khademzadeh): one
//     shared slot pool per node, per-source linked lists threaded through it,
//     and dynamic stealing of free slots beyond a source's fair share.
//   - reserve: a reserve-plus-borrow hybrid — every source keeps a guaranteed
//     reserve of R slots that no other source may ever occupy, and the
//     remaining B slots form a borrowable shared region (Brodsky, Pedersen &
//     Wagner frame provisioning, not raw capacity, as the real problem).
//
// The multi-queue models also decouple *presentation* from *arrival*: the
// head the NI exposes is the oldest packet whose GID matches the resident
// process (when one exists), so a mismatched packet at the global front no
// longer head-of-line-blocks the fast path into kernel-buffered mode. A
// bounded bypass budget and a never-bypass-kernel rule keep the mismatch
// path live-locked-free; with no match predicate bound, every model drains
// in strict arrival order.
//
// Queues consume no simulated time of their own: admission runs inside the
// mesh's profiled delivery events and drains inside the NI's dispose
// handlers, so their costs are charged through the existing sim.Profiler
// sites (see DESIGN.md, "InputQueue seam").
package niq

import (
	"fmt"
	"strconv"
	"strings"

	"fugu/internal/mesh"
	"fugu/internal/metrics"
)

// Queue models.
const (
	ModelFIFO    = "fifo"
	ModelDAMQ    = "damq"
	ModelReserve = "reserve"
)

// Allocation policies: how the slot pool divides into per-source reserve (R)
// and shared region (B). See Reserve for the exact split.
const (
	PolicyStatic = "static" // R = slots/sources each, remainder shared
	PolicyDemand = "demand" // R = 0: the whole pool is shared
	PolicyHybrid = "hybrid" // half fair share reserved, the rest shared
)

// DefaultBypassBudget bounds how many times the globally oldest packet may be
// bypassed by younger matching packets before the queue reverts to strict
// FIFO presentation. It trades fast-path liveness under mismatch storms
// against mismatch-interrupt latency; 32 keeps the latter under two queue
// drains at the default depth.
const DefaultBypassBudget = 32

// Models lists the queue models in sweep order.
func Models() []string { return []string{ModelFIFO, ModelDAMQ, ModelReserve} }

// Policies lists the allocation policies in sweep order.
func Policies() []string { return []string{PolicyStatic, PolicyDemand, PolicyHybrid} }

// Spec selects an input-queue organization. The zero value means the default
// hardware: a static FIFO at the NI's configured depth.
type Spec struct {
	Model  string // "", "fifo", "damq" or "reserve" ("" = fifo)
	Policy string // "", "static", "demand" or "hybrid" ("" = model default)
	// Slots is the total pool size in messages; 0 uses the NI's configured
	// input-queue depth, so every model can be compared at equal SRAM.
	Slots int
	// BypassBudget overrides DefaultBypassBudget; 0 keeps the default.
	// Only the multi-queue models consult it.
	BypassBudget int
}

// defaultPolicy is the policy a model gets when the spec names none: the
// FIFO is inherently static, the DAMQ's natural mode is fully-shared, and
// reserve-plus-borrow without a reserve would be no hybrid at all.
func defaultPolicy(model string) string {
	switch model {
	case ModelDAMQ:
		return PolicyDemand
	case ModelReserve:
		return PolicyHybrid
	default:
		return PolicyStatic
	}
}

// Normalize fills the spec's defaulted fields (model, policy, budget) without
// resolving Slots — that needs the NI's configured depth.
func (s Spec) Normalize() Spec {
	if s.Model == "" {
		s.Model = ModelFIFO
	}
	if s.Policy == "" {
		s.Policy = defaultPolicy(s.Model)
	}
	if s.BypassBudget == 0 {
		s.BypassBudget = DefaultBypassBudget
	}
	return s
}

// Name renders the spec as the canonical "model:policy" label the sweep CSVs
// and the -niq flag use.
func (s Spec) Name() string {
	s = s.Normalize()
	return s.Model + ":" + s.Policy
}

// Validate rejects unknown models and policies, and policies the model
// cannot honor (the single FIFO has no per-source structure to share).
func (s Spec) Validate() error {
	n := s.Normalize()
	switch n.Model {
	case ModelFIFO:
		if n.Policy != PolicyStatic {
			return fmt.Errorf("niq: model fifo supports only the static policy, not %q", n.Policy)
		}
	case ModelDAMQ, ModelReserve:
		switch n.Policy {
		case PolicyStatic, PolicyDemand, PolicyHybrid:
		default:
			return fmt.Errorf("niq: unknown allocation policy %q (have %v)", n.Policy, Policies())
		}
	default:
		return fmt.Errorf("niq: unknown queue model %q (have %v)", n.Model, Models())
	}
	if s.Slots < 0 {
		return fmt.Errorf("niq: negative slot count %d", s.Slots)
	}
	if s.BypassBudget < 0 {
		return fmt.Errorf("niq: negative bypass budget %d", s.BypassBudget)
	}
	return nil
}

// ParseSpec parses the -niq flag syntax "model[:policy[:slots]]", e.g.
// "damq", "reserve:hybrid", "damq:demand:24".
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) > 3 {
		return Spec{}, fmt.Errorf("niq: bad spec %q (want model[:policy[:slots]])", s)
	}
	if parts[0] == "" {
		// An empty model would silently mean the default FIFO, dropping
		// whatever policy and slot count followed it.
		return Spec{}, fmt.Errorf("niq: empty queue model in spec %q (have %v)", s, Models())
	}
	spec := Spec{Model: parts[0]}
	if len(parts) > 1 {
		spec.Policy = parts[1]
	}
	if len(parts) > 2 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n <= 0 {
			return Spec{}, fmt.Errorf("niq: bad slot count %q in spec %q", parts[2], s)
		}
		spec.Slots = n
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Reserve computes the (R, B) split for a policy: R guaranteed slots per
// source and B shared slots, with R*sources + B == slots always. Static gives
// each source its fair share (any indivisible remainder stays shared);
// demand shares everything; hybrid reserves half the fair share and pools
// the rest, so a quiet source keeps a foothold while bursty ones stretch.
func Reserve(policy string, slots, sources int) (r, b int) {
	if sources <= 0 {
		sources = 1
	}
	switch policy {
	case PolicyDemand:
		return 0, slots
	case PolicyHybrid:
		r = slots / (2 * sources)
	default: // static
		r = slots / sources
	}
	return r, slots - r*sources
}

// InputQueue is the NI receive-buffer seam. Implementations are message
// granular (one slot per packet, as the FUGU hardware was), single-threaded
// (the simulator's event loop serializes all access) and cost-free in
// simulated time (see the package comment).
//
// The contract mirrors the NI's two-phase arrival: Admit is a pure
// capacity/policy check with no side effects — the NI may still NACK the
// packet between Admit and Push (offload admission) — and Push commits it.
// Head returns the packet the queue chooses to present; PopHead removes
// exactly that packet. Selection is a pure function of queue state and the
// bound predicates, so consecutive Head/PopHead calls agree.
type InputQueue interface {
	// Spec returns the normalized spec this queue was built from, with
	// Slots resolved.
	Spec() Spec
	// Slots returns the total pool capacity in messages.
	Slots() int
	// Len returns the number of buffered messages.
	Len() int
	// Bind installs the presentation predicates: match reports whether a
	// packet can take the fast path right now (resident GID, no divert, no
	// forced mismatch), kernel reports a kernel-priority packet that must
	// never be bypassed. Both may be nil (strict FIFO presentation).
	Bind(match, kernel func(*mesh.Packet) bool)
	// UseMetrics registers the queue's instruments ("niq.steals",
	// "niq.bypass", "niq.occupancy"). The FIFO registers nothing, so
	// default-hardware metric snapshots keep their exact key set.
	UseMetrics(r *metrics.Registry)
	// Admit reports whether a packet from src would be accepted, without
	// mutating anything. sys marks protected kernel traffic: the shared
	// models admit it whenever a free physical slot exists, exempt from
	// per-source caps and borrow limits — a user allocation policy must
	// never be able to refuse the kernel message that unwedges the machine
	// (an overflow release, a revocation). The FIFO ignores the flag, as
	// the seed hardware did.
	Admit(src int, sys bool) bool
	// Push commits a packet previously cleared by Admit; pushing into a
	// queue that would refuse it is a programming error and panics.
	Push(pkt *mesh.Packet)
	// Head returns the packet the queue presents, nil when empty.
	Head() *mesh.Packet
	// PopHead removes and returns the presented packet, nil when empty.
	PopHead() *mesh.Packet
	// Steals counts admissions that took a slot beyond the source's
	// reserve: DAMQ slot steals, reserve-model borrows. Always 0 for fifo.
	Steals() uint64
	// Bypasses counts pops where a younger matching packet was presented
	// ahead of the globally oldest one. Always 0 for fifo.
	Bypasses() uint64
	// CheckInvariants walks the whole structure and reports the first
	// violated structural invariant (tests and the fuzz target call it
	// after every operation).
	CheckInvariants() error
}

// New builds a queue from the spec. slots resolves Spec.Slots when it is 0
// (the NI passes its configured depth); sources is the number of distinct
// packet sources (mesh nodes).
func New(spec Spec, slots, sources int) InputQueue {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.Slots == 0 {
		spec.Slots = slots
	}
	if spec.Slots <= 0 {
		panic(fmt.Sprintf("niq: queue needs at least one slot, got %d", spec.Slots))
	}
	if spec.Model == ModelFIFO {
		return newFIFO(spec)
	}
	return newShared(spec, sources)
}
