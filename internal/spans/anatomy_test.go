package spans

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestDwellConservation pins the tentpole invariant on a single span: the
// per-stage dwells sum exactly to the end-to-end latency, and each stage is
// charged the cycles between its entry and the next transition.
func TestDwellConservation(t *testing.T) {
	r := NewRecorder(nil)
	r.SetPolicy("twocase")
	r.Begin(10, 0, "user", 2, 1, 4)
	r.NetBlock(13, 0)             // sent dwelt 3
	r.Queued(20, 0, 1)            // net-blocked dwelt 7
	r.Insert(32, 0, 1, "divert")  // queued dwelt 12
	r.End(90, 0, 1, TermBuffered) // buffered dwelt 58

	slow := r.Slowest(1)
	if len(slow) != 1 {
		t.Fatalf("Slowest returned %d spans, want 1", len(slow))
	}
	s := slow[0]
	want := [NumStages]uint64{StageSent: 3, StageNetBlocked: 7, StageQueued: 12, StageBuffered: 58}
	if s.Dwell != want {
		t.Errorf("dwells = %v, want %v", s.Dwell, want)
	}
	if s.Latency() != 80 {
		t.Errorf("latency = %d, want 80", s.Latency())
	}
	var sum uint64
	for _, d := range s.Dwell {
		sum += d
	}
	if sum != s.Latency() {
		t.Errorf("dwells sum to %d, latency is %d", sum, s.Latency())
	}
	if probs := r.Check(0, 1); len(probs) != 0 {
		t.Fatalf("Check: %v", probs)
	}
	if d, l := r.StageDwellTotals(), r.LatencyTotal(); l != 80 ||
		d[StageSent]+d[StageNetBlocked]+d[StageQueued]+d[StageBuffered] != l {
		t.Errorf("aggregate dwell %v vs latency %d", d, l)
	}
}

// TestDwellConservationProperty: for random stage timings the invariant
// holds by construction, on both the fast and the buffered path.
func TestDwellConservationProperty(t *testing.T) {
	f := func(d1, d2, d3 uint16, blocked, buffered bool) bool {
		r := NewRecorder(nil)
		at := uint64(5)
		r.Begin(at, 7, "user", 0, 1, 2)
		if blocked {
			at += uint64(d1)
			r.NetBlock(at, 7)
		}
		at += uint64(d2)
		r.Queued(at, 7, 1)
		term := TermFast
		if buffered {
			at += uint64(d3)
			r.Insert(at, 7, 1, "divert")
			term = TermBuffered
		}
		at += uint64(d1) + uint64(d3)
		r.End(at, 7, 1, term)
		return r.LatencyTotal() == at-5 && len(r.Violations()) == 0 &&
			func() bool {
				var sum uint64
				for _, d := range r.StageDwellTotals() {
					sum += d
				}
				return sum == r.LatencyTotal()
			}()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedCauseAttribution: a first-offer acceptance is recorded as
// "accepted", a packet released from backpressure as "drain" — the Queued
// transition never leaves an empty cause.
func TestQueuedCauseAttribution(t *testing.T) {
	r := NewRecorder(nil)
	r.SetPolicy("twocase")
	r.Begin(0, 1, "user", 0, 1, 2)
	r.Queued(4, 1, 1)
	r.End(9, 1, 1, TermFast)
	r.Begin(0, 2, "user", 0, 1, 2)
	r.NetBlock(2, 2)
	r.Queued(6, 2, 1)
	r.End(11, 2, 1, TermFast)

	causes := map[string]uint64{}
	for _, row := range r.Anatomy() {
		if row.Stage == StageQueued {
			causes[row.Cause] += row.Count
		}
	}
	if causes["accepted"] != 1 || causes["drain"] != 1 {
		t.Errorf("queued causes = %v, want one accepted and one drain", causes)
	}
	if _, ok := causes[""]; ok {
		t.Error("queued transition recorded an empty cause")
	}
}

// TestDwellConservationViolationSurfaces: a transition that bypasses the
// bookkeeping (a clock running backwards) is reported, per-span and in the
// aggregate Check.
func TestDwellConservationViolationSurfaces(t *testing.T) {
	r := NewRecorder(nil)
	r.Begin(100, 1, "user", 0, 1, 2)
	r.Queued(50, 1, 1) // backwards: dwell bookkeeping cannot hold
	r.End(60, 1, 1, TermFast)
	v := strings.Join(r.Violations(), "\n")
	if !strings.Contains(v, "before stage entry") {
		t.Errorf("backwards transition not flagged:\n%s", v)
	}
}

// TestSlowestOrdering pins the top-K table: latency descending, (epoch, id)
// tie-break, bounded at TopK.
func TestSlowestOrdering(t *testing.T) {
	r := NewRecorder(nil)
	for i := uint64(0); i < TopK+8; i++ {
		r.Begin(0, i, "user", 0, 1, 2)
		// Latencies 10, 20, ..., with two ties at the top.
		lat := 10 * (i%(TopK+4) + 1)
		r.Queued(1, i, 1)
		r.End(lat, i, 1, TermFast)
	}
	slow := r.Slowest(TopK + 100) // clamped
	if len(slow) != TopK {
		t.Fatalf("Slowest table holds %d spans, want %d", len(slow), TopK)
	}
	for i := 1; i < len(slow); i++ {
		a, b := &slow[i-1], &slow[i]
		if a.Latency() < b.Latency() {
			t.Fatalf("slowest table out of order at %d: %d < %d", i, a.Latency(), b.Latency())
		}
		if a.Latency() == b.Latency() && !beforeSpan(a, b) {
			t.Fatalf("tie at %d not broken by (epoch, id)", i)
		}
	}
}

// TestHistoryTimeline pins the per-span stage timeline: one entry per stage
// entered, in order, with the entry causes.
func TestHistoryTimeline(t *testing.T) {
	r := NewRecorder(nil)
	r.Begin(0, 1, "user", 0, 1, 2)
	r.NetBlock(3, 1)
	r.Queued(8, 1, 1)
	r.Insert(12, 1, 1, "gid-mismatch")
	r.End(40, 1, 1, TermBuffered)
	h := r.Slowest(1)[0].History()
	want := []StageEvent{
		{At: 0, Stage: StageSent},
		{At: 3, Stage: StageNetBlocked, Cause: "backpressure"},
		{At: 8, Stage: StageQueued, Cause: "drain"},
		{At: 12, Stage: StageBuffered, Cause: "gid-mismatch"},
	}
	if len(h) != len(want) {
		t.Fatalf("timeline has %d entries, want %d: %v", len(h), len(want), h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("timeline[%d] = %+v, want %+v", i, h[i], want[i])
		}
	}
}

// TestNodeLinkHeat pins the heat aggregation.
func TestNodeLinkHeat(t *testing.T) {
	r := NewRecorder(nil)
	r.Begin(0, 1, "user", 0, 3, 2)
	r.Queued(5, 1, 3)
	r.End(10, 1, 3, TermFast)
	r.Begin(0, 2, "user", 1, 3, 2)
	r.Queued(10, 2, 3)
	r.End(30, 2, 3, TermFast)

	nodes := r.NodeHeats()
	if len(nodes) != 1 || nodes[0].Node != 3 || nodes[0].Count != 2 {
		t.Fatalf("node heats = %+v", nodes)
	}
	if nodes[0].Dwell[StageSent] != 15 || nodes[0].Dwell[StageQueued] != 25 {
		t.Errorf("node dwell = %v, want sent=15 queued=25", nodes[0].Dwell)
	}
	links := r.LinkHeats()
	if len(links) != 2 {
		t.Fatalf("link heats = %+v", links)
	}
	// Hottest first: 1->3 carried 30 cycles, 0->3 carried 10.
	if links[0].Src != 1 || links[0].Latency != 30 || links[1].Src != 0 {
		t.Errorf("link ordering = %+v", links)
	}
}
