package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/sim"
	"fugu/internal/spans"
)

// TestDwellConservationProperty is the end-to-end anatomy invariant: for ANY
// fault plan — random per-cause probabilities, random seed — and EVERY
// registered delivery policy, the per-stage dwell cycles summed over all
// terminal spans equal the summed end-to-end latencies exactly. Faults are
// what make this interesting: backpressure stalls, atomicity revocations and
// quantum expiries push messages through every stage combination, and no
// path may lose or double-charge a cycle.
func TestDwellConservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	for _, polName := range delivery.Names() {
		t.Run(polName, func(t *testing.T) {
			pol, err := delivery.ByName(polName)
			if err != nil {
				t.Fatal(err)
			}
			check := func(seed uint64, pMis, pExp, pStall uint8) bool {
				plan := cruciblePlan{
					name: fmt.Sprintf("dwell-%#x", seed),
					arm: func(p *faultinject.Plan) {
						w := func(b uint8, cycles uint64) faultinject.FaultSpec {
							return faultinject.FaultSpec{
								Prob: float64(b) / 365.0,
								From: crucibleFaultsStart, Until: crucibleFaultsLift,
								Cycles: cycles, Node: faultinject.AllNodes,
							}
						}
						p.Arm(faultinject.GIDMismatch, w(pMis, 0))
						p.Arm(faultinject.QuantumExpiry, w(pExp, 1_500))
						p.Arm(faultinject.LinkStall, w(pStall, 250))
					},
				}
				rec := spans.NewRecorder(nil)
				pt := runLab(plan, 0, NewOptions(
					WithQuick(), WithTrials(1), WithSeed(seed),
					WithDeliveryPolicy(pol), WithSpans(rec)), cruciblePreset.load)
				if len(pt.row.Problems) > 0 {
					t.Logf("seed=%#x policy=%s: %v", seed, polName, pt.row.Problems)
					return false
				}
				if rec.Terminated() == 0 {
					t.Logf("seed=%#x policy=%s: no spans terminated", seed, polName)
					return false
				}
				var dwell uint64
				for _, d := range rec.StageDwellTotals() {
					dwell += d
				}
				if dwell != rec.LatencyTotal() {
					t.Logf("seed=%#x policy=%s: dwells sum to %d, latencies to %d",
						seed, polName, dwell, rec.LatencyTotal())
					return false
				}
				// The recorder's own aggregate check must agree (it is the
				// same invariant the crucible oracle enforces).
				if probs := rec.Check(rec.Counts().Fast+rec.Counts().FlipFast, rec.Counts().Inserts); len(probs) > 0 {
					t.Logf("seed=%#x policy=%s: %v", seed, polName, probs)
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAnatomyDoesNotPerturbGolden pins the observation-only contract of this
// PR's instrumentation: running the golden experiments with the span
// recorder (dwell anatomy on) AND the engine cost profiler attached must
// reproduce the golden CSVs byte-for-byte — recording charges no simulated
// cycles, draws no RNG, and the profiler only observes dispatches.
func TestAnatomyDoesNotPerturbGolden(t *testing.T) {
	for _, name := range []string{"table4", "fig9"} {
		want := goldenFast[name]
		exp, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		rec := spans.NewRecorder(nil)
		prof := sim.NewProfiler(sim.ProfilerConfig{Wall: true})
		res, err := (&Runner{}).Run(context.Background(), exp,
			WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1),
			WithSpans(rec), WithProfiler(prof))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files := res.(CSVer).CSVFiles()
		for file, wantHash := range want {
			sum := sha256.Sum256([]byte(files[file]))
			if got := hex.EncodeToString(sum[:]); got != wantHash {
				t.Errorf("%s with anatomy+profiler attached: %s hash = %s, want golden %s "+
					"(span/profiler instrumentation must be observation-only)",
					name, file, got, wantHash)
			}
		}
		if rec.Terminated() == 0 {
			t.Errorf("%s: anatomy observed no terminal spans", name)
		}
		if prof.Snapshot().Events == 0 {
			t.Errorf("%s: profiler observed no events", name)
		}
	}
}
