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
	"fugu/internal/glaze"
	"fugu/internal/metrics"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/trace"
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

// TestObserversDoNotPerturbGolden pins the observation-only contract of
// glaze.Observers: each member attached alone leaves table4's and fig9's
// CSVs byte-identical to their goldens, and records something, so the check
// cannot pass with the observer idle.
func TestObserversDoNotPerturbGolden(t *testing.T) {
	for _, name := range []string{"table4", "fig9"} {
		exp, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		// run returns the CSVs, the dispatched engine events and the number
		// of point timelines of one serial reference run.
		run := func(obs glaze.Observers) (files map[string]string, events uint64, timelines int) {
			r := &Runner{
				OnMetrics:  func(s metrics.Snapshot) { events = s.Counters["sim.events"] },
				OnTimeline: func(int, string, telemetry.Timeline) { timelines++ },
			}
			res, err := r.Run(context.Background(), exp,
				WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1),
				optionFunc(func(o *Options) { o.Observers = obs }))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res.(CSVer).CSVFiles(), events, timelines
		}
		_, bare, _ := run(glaze.Observers{})
		log := trace.New(1 << 12)
		log.Enable(trace.Categories()...)
		rec := spans.NewRecorder(nil)
		prof := sim.NewProfiler(sim.ProfilerConfig{Wall: true})
		for _, c := range []struct {
			observer string
			obs      glaze.Observers
			recorded func(events uint64, timelines int) bool
		}{
			{"trace", glaze.Observers{Trace: log}, func(uint64, int) bool { return log.Total() > 0 }},
			{"spans", glaze.Observers{Spans: rec}, func(uint64, int) bool { return rec.Terminated() > 0 }},
			// A watchdog that never fires leaves no report; its periodic
			// checks are engine events of their own. Table4's runs last a
			// few thousand cycles, so it checks often, and the large grace
			// keeps fig9's compute phases from looking like a stall.
			{"watchdog", glaze.Observers{Watchdog: glaze.WatchdogConfig{Interval: 100, Grace: 100_000}},
				func(events uint64, _ int) bool { return events > bare }},
			{"telemetry", glaze.Observers{Telemetry: telemetry.Config{Every: telemetry.DefaultEvery}},
				func(_ uint64, timelines int) bool { return timelines > 0 }},
			{"profiler", glaze.Observers{Profiler: prof}, func(uint64, int) bool { return prof.Snapshot().Events > 0 }},
		} {
			files, events, timelines := run(c.obs)
			for file, wantHash := range goldenFast[name] {
				sum := sha256.Sum256([]byte(files[file]))
				if got := hex.EncodeToString(sum[:]); got != wantHash {
					t.Errorf("%s with %s attached: %s hash = %s, want golden %s", name, c.observer, file, got, wantHash)
				}
			}
			if !c.recorded(events, timelines) {
				t.Errorf("%s: %s recorded nothing", name, c.observer)
			}
		}
	}
}
