package harness

import (
	"context"
	"strings"
	"testing"

	"fugu/internal/apps"
	"fugu/internal/glaze"
	"fugu/internal/telemetry"
)

// collectTimelines runs an experiment with sampling enabled and returns the
// per-point timelines the Runner hook delivers, in point order.
func collectTimelines(t *testing.T, name string, every uint64, workers int) []telemetry.LabeledTimeline {
	t.Helper()
	exp, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	var tls []telemetry.LabeledTimeline
	r := &Runner{OnTimeline: func(point int, label string, tl telemetry.Timeline) {
		tls = append(tls, telemetry.LabeledTimeline{Point: point, Label: label, Timeline: tl})
	}}
	_, err := r.Run(context.Background(), exp,
		WithQuick(), WithTrials(1), WithParallelism(workers),
		WithTelemetry(telemetry.Config{Every: every, Cap: 1 << 16}))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(tls) == 0 {
		t.Fatalf("%s: no point delivered a timeline", name)
	}
	return tls
}

// checkTimelineInvariants asserts the two properties the CI smoke job also
// enforces: the cycle column is strictly monotone within each (point, epoch)
// and per-instrument interval deltas sum to the final snapshot exactly.
func checkTimelineInvariants(t *testing.T, name string, tls []telemetry.LabeledTimeline) {
	t.Helper()
	for _, lt := range tls {
		tl := lt.Timeline
		if tl.Dropped != 0 {
			t.Fatalf("%s %s: ring dropped %d intervals; raise Cap in the test", name, lt.Label, tl.Dropped)
		}
		lastCycle := map[int]uint64{}
		seen := map[int]bool{}
		for i, iv := range tl.Intervals {
			if seen[iv.Epoch] && iv.Cycle <= lastCycle[iv.Epoch] {
				t.Errorf("%s %s: interval %d cycle %d <= previous %d (epoch %d)",
					name, lt.Label, i, iv.Cycle, lastCycle[iv.Epoch], iv.Epoch)
			}
			lastCycle[iv.Epoch], seen[iv.Epoch] = iv.Cycle, true
		}
		sums := tl.SumCounters()
		for cname, want := range tl.Totals.Counters {
			if sums[cname] != want {
				t.Errorf("%s %s: counter %s deltas sum to %d, final snapshot says %d",
					name, lt.Label, cname, sums[cname], want)
			}
		}
		for cname, got := range sums {
			if want := tl.Totals.Counters[cname]; want != got {
				t.Errorf("%s %s: counter %s deltas sum to %d but totals say %d",
					name, lt.Label, cname, got, want)
			}
		}
	}
}

// TestTimelineReconciliation: the reconciliation invariant holds for a
// multi-machine point experiment (table4 splices three machines per point
// into epochs) and a sweep figure (fig9).
func TestTimelineReconciliation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	for _, name := range []string{"table4", "fig9"} {
		tls := collectTimelines(t, name, 5_000, 4)
		checkTimelineInvariants(t, name, tls)
	}
}

// TestTimelineReconciliationCrucible: crucible points install their own
// recorder even without harness telemetry, so fault-plan timelines always
// exist and must reconcile too — including across a plan that forces the
// buffered path. Run two single points (quiet and hot) rather than the full
// sweep.
func TestTimelineReconciliationCrucible(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	exp, _ := Lookup("crucible")
	opt := NewOptions(WithQuick(), WithTrials(1))
	pts := exp.Points(opt)
	ran := 0
	for i, pt := range pts {
		if !strings.HasPrefix(pt.Label, "none ") && !strings.HasPrefix(pt.Label, "starve ") {
			continue
		}
		res, err := pt.Run(context.Background(), opt)
		if err != nil {
			t.Fatalf("point %d (%s): %v", i, pt.Label, err)
		}
		c, ok := res.(TimelineCarrier)
		if !ok {
			t.Fatalf("crucible point %s result carries no timeline", pt.Label)
		}
		tl := c.TimelineData()
		if tl.Empty() {
			t.Fatalf("crucible point %s produced an empty timeline", pt.Label)
		}
		checkTimelineInvariants(t, "crucible",
			[]telemetry.LabeledTimeline{{Point: i, Label: pt.Label, Timeline: tl}})
		ran++
	}
	if ran == 0 {
		t.Fatalf("no crucible points matched; labels: %v", pointLabels(pts))
	}
}

func pointLabels(pts []Point) []string {
	out := make([]string, len(pts))
	for i, pt := range pts {
		out[i] = pt.Label
	}
	return out
}

// TestTimelineSerialParallelIdentical: with sampling enabled, a serial and a
// parallel sweep must export byte-identical timelines — the sampler is
// driven by simulated time and each machine owns its recorder, so worker
// count cannot leak into the record.
func TestTimelineSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	serial := collectTimelines(t, "fig9", 10_000, 1)
	parallel := collectTimelines(t, "fig9", 10_000, 8)
	var a, b strings.Builder
	if err := telemetry.WriteCSV(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteCSV(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("serial and parallel timeline CSVs differ")
	}
}

// TestTelemetryDoesNotPerturb: enabling the sampler must not change the
// simulation — same runtime, same delivery counters. The sampler's own
// events do move the engine's event count, so sim.* bookkeeping counters are
// exempt; everything observable about the workload must match.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	mk := func() apps.Instance { return apps.NewSynth(60, 12, 60) }
	plain := RunMultiprogrammedQ(mk, 0.03, 7, 50_000, nil)
	sampled := RunMultiprogrammedQ(mk, 0.03, 7, 50_000, func(cfg *glaze.Config) {
		cfg.Telemetry = telemetry.Config{Every: 5_000}
	})
	if plain.Runtime != sampled.Runtime {
		t.Errorf("sampling changed the runtime: %d vs %d cycles", plain.Runtime, sampled.Runtime)
	}
	for name, want := range plain.Metrics.Counters {
		if strings.HasPrefix(name, "sim.") {
			continue
		}
		if got := sampled.Metrics.Counters[name]; got != want {
			t.Errorf("sampling changed counter %s: %d vs %d", name, got, want)
		}
	}
	if sampled.Timeline.Empty() {
		t.Error("sampled run returned an empty timeline")
	}
	if !plain.Timeline.Empty() {
		t.Error("unsampled run returned a timeline")
	}
}
