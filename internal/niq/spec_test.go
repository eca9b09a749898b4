package niq

import (
	"testing"

	"fugu/internal/mesh"
	"fugu/internal/metrics"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		err  bool
	}{
		{in: "fifo", want: Spec{Model: "fifo"}},
		{in: "damq", want: Spec{Model: "damq"}},
		{in: "reserve:hybrid", want: Spec{Model: "reserve", Policy: "hybrid"}},
		{in: "damq:demand:24", want: Spec{Model: "damq", Policy: "demand", Slots: 24}},
		{in: "reserve:static:8", want: Spec{Model: "reserve", Policy: "static", Slots: 8}},
		{in: "fifo:demand", err: true},       // fifo has no shared region
		{in: "damq:fair", err: true},         // unknown policy
		{in: "srf", err: true},               // unknown model
		{in: "damq:demand:0", err: true},     // zero slots
		{in: "damq:demand:x", err: true},     // non-numeric slots
		{in: "damq:demand:8:9", err: true},   // too many fields
		{in: "reserve:hybrid:-4", err: true}, // negative slots
		{in: ":static:3", err: true},         // empty model
		{in: ":", err: true},                 // empty model and policy
		{in: ":demand:4", err: true},         // empty model
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestSpecNormalizeAndName(t *testing.T) {
	cases := []struct {
		in   Spec
		name string
	}{
		{Spec{}, "fifo:static"},
		{Spec{Model: ModelDAMQ}, "damq:demand"},
		{Spec{Model: ModelReserve}, "reserve:hybrid"},
		{Spec{Model: ModelDAMQ, Policy: PolicyStatic}, "damq:static"},
	}
	for _, c := range cases {
		if got := c.in.Name(); got != c.name {
			t.Errorf("%+v.Name() = %q, want %q", c.in, got, c.name)
		}
		n := c.in.Normalize()
		if n.BypassBudget != DefaultBypassBudget {
			t.Errorf("%+v.Normalize() budget = %d, want default %d", c.in, n.BypassBudget, DefaultBypassBudget)
		}
	}
	kept := Spec{Model: ModelDAMQ, BypassBudget: 7}.Normalize()
	if kept.BypassBudget != 7 {
		t.Errorf("Normalize clobbered an explicit bypass budget: %d", kept.BypassBudget)
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Slots: -1}).Validate(); err == nil {
		t.Error("negative slots validated")
	}
	if err := (Spec{BypassBudget: -1}).Validate(); err == nil {
		t.Error("negative bypass budget validated")
	}
	for _, s := range allSpecs(8) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

// TestReserveSplit pins the (R, B) arithmetic: R*sources + B == slots for
// every policy, demand reserves nothing, static shares only the indivisible
// remainder, hybrid sits in between.
func TestReserveSplit(t *testing.T) {
	for _, policy := range Policies() {
		for slots := 1; slots <= 40; slots++ {
			for sources := 1; sources <= 9; sources++ {
				r, b := Reserve(policy, slots, sources)
				if r < 0 || b < 0 {
					t.Fatalf("Reserve(%s, %d, %d) = (%d, %d): negative", policy, slots, sources, r, b)
				}
				if r*sources+b != slots {
					t.Fatalf("Reserve(%s, %d, %d) = (%d, %d): split loses slots", policy, slots, sources, r, b)
				}
			}
		}
	}
	if r, b := Reserve(PolicyDemand, 16, 8); r != 0 || b != 16 {
		t.Errorf("demand split = (%d, %d), want (0, 16)", r, b)
	}
	if r, b := Reserve(PolicyStatic, 16, 8); r != 2 || b != 0 {
		t.Errorf("static split = (%d, %d), want (2, 0)", r, b)
	}
	if r, b := Reserve(PolicyHybrid, 16, 8); r != 1 || b != 8 {
		t.Errorf("hybrid split = (%d, %d), want (1, 8)", r, b)
	}
	if r, b := Reserve(PolicyStatic, 8, 0); r != 8 || b != 0 {
		t.Errorf("zero-source split = (%d, %d), want whole pool reserved for the single source", r, b)
	}
}

func TestNewPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("bad model", func() { New(Spec{Model: "srf"}, 8, 4) })
	expectPanic("no slots", func() { New(Spec{}, 0, 4) })
	expectPanic("fifo overfill", func() {
		q := New(Spec{Slots: 1}, 0, 1)
		q.Push(&mesh.Packet{Words: []uint64{0}})
		q.Push(&mesh.Packet{Words: []uint64{0}})
	})
	expectPanic("shared push past admission", func() {
		q := New(Spec{Model: ModelDAMQ, Slots: 1}, 0, 2)
		q.Push(&mesh.Packet{Words: []uint64{0}})
		q.Push(&mesh.Packet{Src: 1, Words: []uint64{0}})
	})
}

// TestBypassBudget pins the liveness rule: a mismatched packet at the global
// front is bypassed by matching traffic only BypassBudget consecutive times,
// then the queue reverts to strict FIFO until the blocker is popped.
func TestBypassBudget(t *testing.T) {
	spec := Spec{Model: ModelDAMQ, Policy: PolicyDemand, Slots: 8, BypassBudget: 2}
	q := New(spec, 0, 4)
	q.Bind(func(p *mesh.Packet) bool { return p.Words[0] == 1 }, nil)

	blocker := &mesh.Packet{Src: 0, Words: []uint64{0}}
	q.Push(blocker)
	for i := 1; i <= 3; i++ {
		q.Push(&mesh.Packet{Src: i, Words: []uint64{1}})
	}
	// Two bypasses spend the budget...
	for i := 0; i < 2; i++ {
		if got := q.PopHead(); got == blocker {
			t.Fatalf("pop %d: blocker presented with budget remaining", i)
		}
	}
	// ...then the oldest is forced out even though a match is waiting.
	if got := q.PopHead(); got != blocker {
		t.Fatalf("budget exhausted but blocker still bypassed (got %v)", got)
	}
	if q.Bypasses() != 2 {
		t.Errorf("Bypasses() = %d, want 2", q.Bypasses())
	}
	// Popping the oldest reset the counter: the next match may bypass again.
	q.Push(&mesh.Packet{Src: 0, Words: []uint64{0}})
	if got := q.PopHead(); got.Words[0] != 1 {
		t.Error("bypass budget did not reset after the oldest packet popped")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelNeverBypassed pins the protection rule: matching user traffic
// must not jump a kernel packet at the global front, budget or no budget.
func TestKernelNeverBypassed(t *testing.T) {
	spec := Spec{Model: ModelReserve, Policy: PolicyDemand, Slots: 8}
	q := New(spec, 0, 4)
	q.Bind(
		func(p *mesh.Packet) bool { return p.Words[0] == 1 },
		func(p *mesh.Packet) bool { return p.Words[0] == 99 },
	)
	sysPkt := &mesh.Packet{Src: 0, Words: []uint64{99}}
	q.Push(sysPkt)
	q.Push(&mesh.Packet{Src: 1, Words: []uint64{1}})
	if got := q.Head(); got != sysPkt {
		t.Fatalf("kernel packet at the front was bypassed by a matching user packet")
	}
	if got := q.PopHead(); got != sysPkt {
		t.Fatalf("PopHead skipped the kernel packet")
	}
	if q.Bypasses() != 0 {
		t.Errorf("Bypasses() = %d, want 0", q.Bypasses())
	}
}

// TestKernelExemptFromPolicy pins the admission exemption: once a source's
// user cap is exhausted, its kernel traffic is still admitted while physical
// slots remain — and user traffic is not.
func TestKernelExemptFromPolicy(t *testing.T) {
	spec := Spec{Model: ModelReserve, Policy: PolicyStatic, Slots: 8}
	q := New(spec, 0, 4) // R=2, B=0: pure partition
	q.Bind(nil, func(p *mesh.Packet) bool { return p.Words[0] == 99 })
	for i := 0; i < 2; i++ {
		q.Push(&mesh.Packet{Src: 0, Words: []uint64{0}})
	}
	if q.Admit(0, false) {
		t.Fatal("user packet admitted past an exhausted reserve with B=0")
	}
	if !q.Admit(0, true) {
		t.Fatal("kernel packet refused by the user allocation policy")
	}
	q.Push(&mesh.Packet{Src: 0, Words: []uint64{99}})
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The system packet occupies a slot but no user budget: draining it
	// frees physical space without touching borrow accounting.
	if q.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", q.Len())
	}
}

// TestMetricsRegistration pins the instrument contract: the FIFO registers
// nothing (default-hardware snapshots keep their exact key set), the shared
// models register steals/bypass/occupancy and drive them.
func TestMetricsRegistration(t *testing.T) {
	r := metrics.NewRegistry()
	New(Spec{Slots: 4}, 0, 2).UseMetrics(r)
	if names := r.Names(); len(names) != 0 {
		t.Errorf("fifo registered instruments: %v", names)
	}

	r = metrics.NewRegistry()
	q := New(Spec{Model: ModelDAMQ, Policy: PolicyStatic, Slots: 5}, 0, 2)
	q.UseMetrics(r)
	want := map[string]bool{"niq.steals": true, "niq.bypass": true, "niq.occupancy": true}
	for _, n := range r.Names() {
		if !want[n] {
			t.Errorf("unexpected instrument %q", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missing instrument %q", n)
	}
	// R=2 per source at 5 slots (B=1): a third packet from one source
	// steals the shared remainder slot.
	for i := 0; i < 3; i++ {
		q.Push(&mesh.Packet{Src: 0, Words: []uint64{0}})
	}
	if got := q.Steals(); got != 1 {
		t.Errorf("Steals() = %d, want 1", got)
	}
}

// TestFIFOOrder pins the default model: strict arrival order regardless of
// predicates, Admit blind to the sys flag.
func TestFIFOOrder(t *testing.T) {
	q := New(Spec{}, 3, 2)
	q.Bind(func(p *mesh.Packet) bool { return p.Words[0] == 1 }, nil)
	var pkts []*mesh.Packet
	for i := 0; i < 3; i++ {
		p := &mesh.Packet{Src: i % 2, Words: []uint64{uint64(i)}}
		pkts = append(pkts, p)
		q.Push(p)
	}
	if q.Admit(0, false) || q.Admit(0, true) {
		t.Error("full fifo admitted a packet")
	}
	for i, want := range pkts {
		if got := q.PopHead(); got != want {
			t.Fatalf("pop %d: out of order", i)
		}
	}
}
