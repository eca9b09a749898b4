package faultinject

import "testing"

// TestPCGReference pins the PCG-XSH-RR 64/32 output for seed 42 on our
// default stream, so the fault stream can never drift silently across
// refactors (every committed fault plan's firing schedule depends on it).
func TestPCGReference(t *testing.T) {
	p := newPCG(42)
	want := []uint32{0x713066ea, 0x3c7a0d56, 0xf424216a, 0x25c89145, 0x43e7ef3e}
	for i, w := range want {
		if got := p.next(); got != w {
			t.Fatalf("pcg output %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestPCGDeterminism checks same-seed reproducibility and seed sensitivity.
func TestPCGDeterminism(t *testing.T) {
	a, b := newPCG(7), newPCG(7)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := newPCG(8)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seeds 7 and 8 agree on %d/100 draws", same)
	}
}

// TestPCGFloat64Range checks the unit-interval contract.
func TestPCGFloat64Range(t *testing.T) {
	p := newPCG(3)
	for i := 0; i < 10000; i++ {
		f := p.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64 out of [0,1): %v", f)
		}
	}
}

// TestNilInjector exercises every hook on a nil receiver: all must answer
// "no fault" without panicking.
func TestNilInjector(t *testing.T) {
	var in *Injector
	in.BindClock(func() uint64 { return 0 }) // no-op
	if d := in.SendDelay(0, 1); d != 0 {
		t.Errorf("nil SendDelay = %d", d)
	}
	if in.ForceMismatch(0) || in.ForceTimeout(0) || in.HandlerFault(0) {
		t.Error("nil injector fired a fault")
	}
	if _, ok := in.QuantumExpiry(0); ok {
		t.Error("nil QuantumExpiry fired")
	}
	if in.DMAStall(0) != 0 || in.GangSkew(0) != 0 {
		t.Error("nil stall hooks returned nonzero")
	}
	if _, ok := in.OutputClamp(0); ok {
		t.Error("nil OutputClamp active")
	}
	if in.WithheldFrames(0) != 0 {
		t.Error("nil WithheldFrames nonzero")
	}
	if in.Count(GIDMismatch) != 0 || in.Total() != 0 {
		t.Error("nil counts nonzero")
	}
	plan := in.Plan()
	if (in.Counts() != [NumKinds]uint64{}) || plan != (Plan{}) {
		t.Error("nil injector carries state")
	}
}

// TestNilHooksAllocFree pins the uninstrumented hot path at 0 allocs/op.
func TestNilHooksAllocFree(t *testing.T) {
	var in *Injector
	allocs := testing.AllocsPerRun(1000, func() {
		in.SendDelay(0, 1)
		in.ForceMismatch(0)
		in.ForceTimeout(0)
		in.HandlerFault(0)
		in.QuantumExpiry(0)
		in.DMAStall(0)
		in.OutputClamp(0)
		in.WithheldFrames(0)
	})
	if allocs != 0 {
		t.Fatalf("nil hooks allocate %.1f/op, want 0", allocs)
	}
}

// TestArmedHooksAllocFree pins the instrumented path at 0 allocs/op too:
// fault draws must not perturb the simulator's allocation profile.
func TestArmedHooksAllocFree(t *testing.T) {
	var plan Plan
	plan.Arm(GIDMismatch, FaultSpec{Prob: 0.5, Node: AllNodes})
	plan.Arm(LinkStall, FaultSpec{Prob: 0.5, Cycles: 100, Node: AllNodes})
	plan.Arm(TinyWindow, FaultSpec{From: 0, Until: 1 << 40, Cycles: 4, Node: AllNodes})
	in := New(plan)
	in.BindClock(func() uint64 { return 1 })
	allocs := testing.AllocsPerRun(1000, func() {
		in.SendDelay(0, 1)
		in.ForceMismatch(0)
		in.OutputClamp(0)
	})
	if allocs != 0 {
		t.Fatalf("armed hooks allocate %.1f/op, want 0", allocs)
	}
}

// TestDrawWindowing checks From/Until gating and node restriction.
func TestDrawWindowing(t *testing.T) {
	var plan Plan
	plan.Arm(GIDMismatch, FaultSpec{Prob: 1, From: 100, Until: 200, Node: 2})
	in := New(plan)
	now := uint64(0)
	in.BindClock(func() uint64 { return now })

	if in.ForceMismatch(2) {
		t.Error("fired before From")
	}
	now = 150
	if in.ForceMismatch(1) {
		t.Error("fired on wrong node")
	}
	if !in.ForceMismatch(2) {
		t.Error("did not fire inside window on its node")
	}
	now = 200
	if in.ForceMismatch(2) {
		t.Error("fired at Until (window is half-open)")
	}
	if got := in.Count(GIDMismatch); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

// TestWindowKinds checks the level-condition semantics: active across the
// whole window, one count per activation, and Prob ignored.
func TestWindowKinds(t *testing.T) {
	var plan Plan
	plan.Arm(TinyWindow, FaultSpec{From: 10, Until: 20, Cycles: 4, Node: AllNodes})
	plan.Arm(FrameStarvation, FaultSpec{From: 10, Until: 20, Cycles: 64, Node: AllNodes})
	in := New(plan)
	now := uint64(0)
	in.BindClock(func() uint64 { return now })

	if _, ok := in.OutputClamp(0); ok {
		t.Error("clamp active before window")
	}
	now = 15
	for i := 0; i < 5; i++ {
		if w, ok := in.OutputClamp(0); !ok || w != 4 {
			t.Fatalf("clamp = (%d,%v) inside window, want (4,true)", w, ok)
		}
		if f := in.WithheldFrames(0); f != 64 {
			t.Fatalf("withheld = %d, want 64", f)
		}
	}
	if got := in.Count(TinyWindow); got != 1 {
		t.Errorf("tiny-window count = %d, want 1 per activation", got)
	}
	now = 25
	if _, ok := in.OutputClamp(0); ok {
		t.Error("clamp active after window")
	}
	if in.WithheldFrames(0) != 0 {
		t.Error("frames withheld after window")
	}
}

// TestWindowKindsRequireBound: an unbounded TinyWindow/FrameStarvation
// spec is disarmed (it could wedge a run by design).
func TestWindowKindsRequireBound(t *testing.T) {
	var plan Plan
	plan.Arm(TinyWindow, FaultSpec{Cycles: 4, Node: AllNodes}) // Until == 0
	in := New(plan)
	in.BindClock(func() uint64 { return 100 })
	if _, ok := in.OutputClamp(0); ok {
		t.Error("unbounded clamp fired")
	}
}

// TestInjectorDeterminism: two injectors on the same plan fire identically.
func TestInjectorDeterminism(t *testing.T) {
	var plan Plan
	plan.Seed = 0xfeed
	plan.Arm(GIDMismatch, FaultSpec{Prob: 0.3, Node: AllNodes})
	plan.Arm(LinkStall, FaultSpec{Prob: 0.2, Cycles: 50, Node: AllNodes})
	a, b := New(plan), New(plan)
	a.BindClock(func() uint64 { return 1 })
	b.BindClock(func() uint64 { return 1 })
	for i := 0; i < 500; i++ {
		if a.ForceMismatch(i%4) != b.ForceMismatch(i%4) {
			t.Fatalf("mismatch draws diverged at %d", i)
		}
		if a.SendDelay(i%4, (i+1)%4) != b.SendDelay(i%4, (i+1)%4) {
			t.Fatalf("delay draws diverged at %d", i)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverged: %v vs %v", a.Counts(), b.Counts())
	}
	if a.Count(GIDMismatch) == 0 || a.Count(LinkStall) == 0 {
		t.Fatalf("plan with p=0.3/0.2 never fired in 500 draws: %v", a.Counts())
	}
}

// TestKindStrings covers the labels the crucible prints.
func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate label %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("out-of-range kind label")
	}
}
