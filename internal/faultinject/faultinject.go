// Package faultinject is the deterministic fault planner for second-case
// delivery: a seeded schedule of protection violations and resource stalls
// — forced GID mismatches, atomicity timeouts, synthetic handler page
// faults, quantum expiries, frame starvation, link stalls, hot-spot
// congestion, DMA stalls, tiny output windows and gang-schedule skew —
// injected through nil-safe hooks in mesh, nic, glaze and udm.
//
// Two properties are load-bearing:
//
//   - Zero extra randomness is charged to the machine RNG. The injector
//     draws from its own PCG stream (see pcg.go), so a run with a fault
//     plan installed consumes engine randomness in exactly the same order
//     as a run without one, and a plan whose specs are all disarmed
//     reproduces the fault-free goldens byte for byte.
//
//   - Every hook is nil-safe, following the internal/metrics instrument
//     pattern: a nil *Injector answers "no fault" from every method, so
//     call sites fire unconditionally and the uninstrumented hot path
//     stays allocation-free.
package faultinject

import "fmt"

// Kind enumerates the injectable fault classes. The first five force the
// paper's five second-case transition causes; the rest stress the
// surrounding machinery (network, DMA engine, scheduler) without directly
// flipping a process into buffered mode.
type Kind int

// Fault kinds.
const (
	// GIDMismatch marks an arriving user packet so the NI treats its GID
	// as mismatched: the kernel demultiplexes it into the owner's virtual
	// buffer exactly as a scheduler-skew mismatch would.
	GIDMismatch Kind = iota
	// AtomicityTimeout fires the NI's atomicity-timeout interrupt on a
	// user packet's arrival, forcing revocation if the resident process is
	// still in fast mode.
	AtomicityTimeout
	// HandlerPageFault takes a synthetic page fault at handler dispatch:
	// the kernel charges fault service and shifts the process to buffered
	// mode, as a real fault inside a handler would.
	HandlerPageFault
	// QuantumExpiry preempts the resident process at handler dispatch (a
	// forced quantum boundary) and resumes it Cycles later; messages
	// arriving meanwhile mismatch against the null GID and buffer.
	QuantumExpiry
	// FrameStarvation withholds Cycles frames from the node's pool for
	// the spec's window, driving the buffer toward overflow control.
	// Window-based: Prob is ignored and Until must be set.
	FrameStarvation
	// LinkStall delays a packet leaving the spec's node by Cycles.
	LinkStall
	// HotSpot delays a packet arriving at the spec's node by Cycles
	// (congestion at a hot destination).
	HotSpot
	// DMAStall extends one output-buffer drain by Cycles (a stalled DMA
	// engine holds the send descriptor busy longer).
	DMAStall
	// TinyWindow clamps the NI's space-available register to Cycles words
	// for the spec's window, stalling blocking injects. Window-based:
	// Prob is ignored and Until must be set.
	TinyWindow
	// GangSkew delays a node's next gang-scheduler tick by Cycles,
	// widening the mis-scheduling window between nodes.
	GangSkew

	// NumKinds bounds the kind space.
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case GIDMismatch:
		return "gid-mismatch"
	case AtomicityTimeout:
		return "atomicity-timeout"
	case HandlerPageFault:
		return "handler-fault"
	case QuantumExpiry:
		return "quantum-expiry"
	case FrameStarvation:
		return "frame-starvation"
	case LinkStall:
		return "link-stall"
	case HotSpot:
		return "hot-spot"
	case DMAStall:
		return "dma-stall"
	case TinyWindow:
		return "tiny-window"
	case GangSkew:
		return "gang-skew"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AllNodes is the FaultSpec.Node value that applies a fault to every node.
const AllNodes = -1

// FaultSpec arms one fault kind. The zero value is disarmed.
type FaultSpec struct {
	// Prob is the per-opportunity firing probability (an "opportunity" is
	// one arrival, one dispatch, one launch... depending on the kind).
	// The window kinds FrameStarvation and TinyWindow ignore it: they are
	// level conditions, active for the whole [From, Until) window.
	Prob float64
	// From and Until bound the active window in cycles: the spec applies
	// at times t with From <= t < Until. Until == 0 means no upper bound,
	// except for the window kinds, which require a bounded window (an
	// unbounded clamp or starvation could wedge the run by design).
	From, Until uint64
	// Cycles is the kind's magnitude: stall/delay length, resume delay
	// for QuantumExpiry, the space-available clamp in words for
	// TinyWindow, or the frame count for FrameStarvation.
	Cycles uint64
	// Node restricts the fault to one node; AllNodes (or any negative
	// value) applies it everywhere. For LinkStall the node is the sender,
	// for HotSpot the receiver.
	Node int
}

// windowKind reports whether k is a level condition (no probability draw).
func windowKind(k Kind) bool { return k == FrameStarvation || k == TinyWindow }

// armed reports whether the spec can ever fire as kind k.
func (s *FaultSpec) armed(k Kind) bool {
	if windowKind(k) {
		return s.Cycles > 0 && s.Until > s.From
	}
	return s.Prob > 0
}

// appliesTo reports whether the spec covers node at time now.
func (s *FaultSpec) appliesTo(node int, now uint64) bool {
	if s.Node >= 0 && s.Node != node {
		return false
	}
	return now >= s.From && (s.Until == 0 || now < s.Until)
}

// Plan is a complete fault schedule: one spec per kind plus the seed of
// the injector's private PCG stream. Plans are plain values — a Machine
// copies the plan into a fresh Injector, so one Plan can parameterize many
// concurrent machines.
type Plan struct {
	Seed  uint64
	Specs [NumKinds]FaultSpec
}

// Arm installs a spec for one kind and returns the plan for chaining.
func (p *Plan) Arm(k Kind, s FaultSpec) *Plan {
	p.Specs[k] = s
	return p
}

// String renders the armed specs compactly.
func (p *Plan) String() string {
	out := fmt.Sprintf("plan(seed=%#x", p.Seed)
	for k := Kind(0); k < NumKinds; k++ {
		s := &p.Specs[k]
		if !s.armed(k) {
			continue
		}
		out += fmt.Sprintf(" %s{p=%g w=[%d,%d) c=%d n=%d}", k, s.Prob, s.From, s.Until, s.Cycles, s.Node)
	}
	return out + ")"
}
