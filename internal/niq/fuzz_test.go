package niq

import (
	"testing"
)

// FuzzNIQAdmitDrain feeds byte-decoded operation schedules (see driveOps for
// the encoding) through every queue model × allocation policy at tiny pool
// sizes, differentially against the naive reference. The fuzzer owns the
// hard part — schedules interleaving refusals, borrow exhaustion, GID
// retargeting, divert flips and bypass-budget resets — while driveOps checks
// admit/present/drain agreement, structural invariants, the reserve
// guarantee and conservation after every single operation.
func FuzzNIQAdmitDrain(f *testing.F) {
	f.Add([]byte{})
	// Fill, drain, refill: free-list recycling.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 0, 3, 0, 0, 0, 0, 1, 3, 0})
	// Kernel arrivals (bit 6) against exhausted user caps.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 64, 0, 65, 3, 0, 3, 0})
	// GID retarget and divert flips between bursts of mismatched arrivals.
	f.Add([]byte{5, 1, 0, 16, 0, 17, 6, 0, 3, 0, 6, 0, 5, 0, 0, 32, 3, 0, 3, 0})
	// Forced mismatches (bit 7) racing matching traffic: bypass pressure.
	f.Add([]byte{0, 128, 0, 1, 0, 17, 3, 0, 7, 0, 3, 0, 3, 0})
	// Single-source flood: reserve exhaustion, then borrow, then refusal.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("schedule too long")
		}
		for _, slots := range []int{3, 5} {
			for _, spec := range allSpecs(slots) {
				if err := driveOps(spec, 3, data); err != nil {
					t.Fatalf("%s/%d slots: %v", spec.Name(), slots, err)
				}
			}
		}
	})
}

// FuzzParseSpec holds the -niq parser to its contract: any input yields an
// error or a valid spec, never a panic, and an accepted spec names a real
// model and round-trips through its canonical name.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"fifo", "damq:static", "reserve:hybrid:8"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if spec.Model == "" {
			t.Fatalf("ParseSpec(%q) accepted an empty model: %+v", s, spec)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) = %+v fails Validate: %v", s, spec, err)
		}
		if spec.Slots < 0 {
			t.Fatalf("ParseSpec(%q) = %+v has negative slots", s, spec)
		}
		back, err := ParseSpec(spec.Name())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, but its name %q does not parse: %v", s, spec, spec.Name(), err)
		}
		if n, b := spec.Normalize(), back.Normalize(); n.Model != b.Model || n.Policy != b.Policy {
			t.Fatalf("ParseSpec(%q) = %s, but its name re-parses as %s", s, spec.Name(), back.Name())
		}
	})
}
