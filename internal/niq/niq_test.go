package niq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fugu/internal/mesh"
)

// allSpecs enumerates every queue model × allocation policy the sweep can
// build, at a deliberately tiny pool so randomized schedules hit refusal,
// borrowing and bypass paths constantly.
func allSpecs(slots int) []Spec {
	specs := []Spec{{Model: ModelFIFO, Slots: slots}}
	for _, m := range []string{ModelDAMQ, ModelReserve} {
		for _, p := range Policies() {
			specs = append(specs, Spec{Model: m, Policy: p, Slots: slots})
		}
	}
	return specs
}

// driveOps decodes data as an operation schedule and plays it against both
// the queue under test and the naive reference, failing on the first
// disagreement. It is the single engine behind the differential quick.Check
// tests and FuzzNIQAdmitDrain.
//
// The schedule is consumed two bytes at a time (op, arg):
//
//	op%8 == 0,1,2  arrival: src = arg%sources, gid = (arg>>4)&3,
//	               kernel if arg bit 6, forced mismatch if bit 7 (and not
//	               kernel). Admit is compared first; on agreement to admit,
//	               the same *mesh.Packet is pushed into both queues.
//	op%8 == 3,4    pop: Head then PopHead, compared by pointer identity.
//	op%8 == 5      retarget the resident GID to arg&3.
//	op%8 == 6      toggle divert mode (match predicate goes dark).
//	op%8 == 7      Head probe only.
//
// After every operation the structural invariants and both Lens are checked;
// on return the queues are drained to empty and conservation is verified:
// every pushed packet pops exactly once, and nothing else ever pops.
func driveOps(spec Spec, sources int, data []byte) error {
	spec = spec.Normalize()
	dut := New(spec, spec.Slots, sources)
	ref := newRef(spec, sources)
	reserve, _ := Reserve(spec.Policy, spec.Slots, sources)

	// Live predicate state, mutated by ops 5 and 6 and read through the
	// bound closures — presentation must track it immediately.
	resident := uint64(0)
	divert := false
	const kernelBit = 1 << 8
	match := func(p *mesh.Packet) bool {
		return !divert && !p.FaultMismatch && p.Words[0]&kernelBit == 0 &&
			p.Words[0]&0xff == resident
	}
	kernel := func(p *mesh.Packet) bool { return p.Words[0]&kernelBit != 0 }
	dut.Bind(match, kernel)
	ref.bind(match, kernel)

	pushed := make(map[*mesh.Packet]bool)
	check := func(step int) error {
		if err := dut.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if dut.Len() != ref.lenAll() {
			return fmt.Errorf("step %d: dut holds %d packets, ref %d", step, dut.Len(), ref.lenAll())
		}
		return nil
	}
	pop := func(step int) error {
		h1, h2 := dut.Head(), ref.head()
		if h1 != h2 {
			return fmt.Errorf("step %d: dut presents %v, ref %v", step, h1, h2)
		}
		p1, p2 := dut.PopHead(), ref.popHead()
		if p1 != p2 {
			return fmt.Errorf("step %d: dut popped %v, ref %v", step, p1, p2)
		}
		if p1 != nil {
			if !pushed[p1] {
				return fmt.Errorf("step %d: popped a packet that was never pushed (or popped twice)", step)
			}
			delete(pushed, p1)
		}
		return nil
	}

	var id uint64
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch op {
		case 0, 1, 2:
			src := int(arg) % sources
			sys := arg&(1<<6) != 0
			hdr := uint64(arg>>4) & 3
			if sys {
				hdr |= kernelBit
			}
			pkt := &mesh.Packet{
				ID:            id,
				Src:           src,
				Words:         []uint64{hdr},
				FaultMismatch: !sys && arg&(1<<7) != 0,
			}
			id++
			a1, a2 := dut.Admit(src, sys), ref.admit(src, sys)
			if a1 != a2 {
				return fmt.Errorf("step %d: Admit(src=%d, sys=%v) dut=%v ref=%v", i, src, sys, a1, a2)
			}
			// The reserve guarantee, stated as an admission property
			// rather than re-derived from the implementation: a source
			// inside its reserve with a free physical slot is NEVER
			// refused, no matter what other sources have borrowed.
			if spec.Model == ModelReserve && !sys &&
				ref.ulen(src) < reserve && ref.lenAll() < spec.Slots && !a1 {
				return fmt.Errorf("step %d: source %d refused inside its reserve (%d/%d held, %d/%d slots used)",
					i, src, ref.ulen(src), reserve, ref.lenAll(), spec.Slots)
			}
			// Kernel exemption: protected traffic is refused only when the
			// pool is physically full.
			if spec.Model != ModelFIFO && sys && ref.lenAll() < spec.Slots && !a1 {
				return fmt.Errorf("step %d: kernel packet from %d refused with %d/%d slots used",
					i, src, ref.lenAll(), spec.Slots)
			}
			if a1 {
				dut.Push(pkt)
				ref.push(pkt)
				pushed[pkt] = true
			}
		case 3, 4:
			if err := pop(i); err != nil {
				return err
			}
		case 5:
			resident = uint64(arg) & 3
		case 6:
			divert = !divert
		case 7:
			if h1, h2 := dut.Head(), ref.head(); h1 != h2 {
				return fmt.Errorf("step %d: head probe: dut %v, ref %v", i, h1, h2)
			}
		}
		if err := check(i); err != nil {
			return err
		}
	}

	// Drain and verify conservation: both empty out in the same order and
	// every admitted packet is delivered exactly once.
	for step := 0; dut.Len() > 0 || ref.lenAll() > 0; step++ {
		if step > len(data)+spec.Slots {
			return fmt.Errorf("drain did not terminate: dut=%d ref=%d packets left", dut.Len(), ref.lenAll())
		}
		if err := pop(-step); err != nil {
			return err
		}
		if err := check(-step); err != nil {
			return err
		}
	}
	if len(pushed) != 0 {
		return fmt.Errorf("%d admitted packets never drained", len(pushed))
	}
	if dut.PopHead() != nil {
		return fmt.Errorf("empty queue popped a packet")
	}
	if dut.Head() != nil {
		return fmt.Errorf("empty queue presents a packet")
	}
	return nil
}

// TestDifferentialRandomSchedules drives every model:policy pair against the
// naive reference under randomized schedules: identical admit/reject
// decisions, identical presentation and drain order (by pointer), identical
// occupancy, and conservation.
func TestDifferentialRandomSchedules(t *testing.T) {
	for _, slots := range []int{3, 5, 8} {
		for _, spec := range allSpecs(slots) {
			t.Run(fmt.Sprintf("%s/%d", spec.Name(), slots), func(t *testing.T) {
				t.Parallel()
				cfg := &quick.Config{
					MaxCount: 40,
					Rand:     rand.New(rand.NewSource(int64(slots) * 1013)),
				}
				f := func(data []byte) bool {
					if err := driveOps(spec, 3, data); err != nil {
						t.Log(err)
						return false
					}
					return true
				}
				if err := quick.Check(f, cfg); err != nil {
					t.Errorf("%s: %v", spec.Name(), err)
				}
			})
		}
	}
}

// TestDifferentialLongSchedule runs one long deterministic schedule per spec
// — quick.Check keeps its inputs short, and sustained pressure is where
// free-list recycling and bypass-budget resets earn their keep.
func TestDifferentialLongSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 20_000)
	rng.Read(data)
	for _, spec := range allSpecs(5) {
		if err := driveOps(spec, 4, data); err != nil {
			t.Errorf("%s: %v", spec.Name(), err)
		}
	}
}
