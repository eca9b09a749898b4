package telemetry

import (
	"testing"

	"fugu/internal/metrics"
)

// snap builds a snapshot with the given counter values.
func snap(pairs ...any) metrics.Snapshot {
	s := metrics.NewSnapshot()
	for i := 0; i < len(pairs); i += 2 {
		s.Counters[pairs[i].(string)] = uint64(pairs[i+1].(int))
	}
	return s
}

// TestNilRecorderNoOps: a nil *Recorder is the "telemetry disabled" state —
// every method is a safe no-op and the hot-path calls allocate nothing, so
// default runs pay zero cost for the feature existing.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Every() != 0 {
		t.Errorf("nil.Every() = %d, want 0", r.Every())
	}
	r.Record(Sample{At: 10})
	if tl := r.Finish(Sample{At: 20}); !tl.Empty() {
		t.Errorf("nil.Finish returned non-empty timeline: %+v", tl)
	}
	if got := r.Recent(4); got != nil {
		t.Errorf("nil.Recent = %v, want nil", got)
	}

	s := Sample{At: 10}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Record(s)
		_ = r.Every()
	}); allocs != 0 {
		t.Errorf("nil recorder hot path allocates %.1f per run, want 0", allocs)
	}
}

// TestDeltasOmitZero: intervals carry only the counters that moved, so a
// column sum over the CSV reconciles exactly with the final totals.
func TestDeltasOmitZero(t *testing.T) {
	r := NewRecorder(Config{Every: 100})
	r.Record(Sample{At: 100, Snap: snap("a", 5, "idle", 7)})
	r.Record(Sample{At: 200, Snap: snap("a", 9, "idle", 7)}) // idle unchanged
	tl := r.Finish(Sample{At: 300, Snap: snap("a", 9, "idle", 8)})

	if len(tl.Intervals) != 3 {
		t.Fatalf("got %d intervals, want 3", len(tl.Intervals))
	}
	if d := tl.Intervals[0].Counters["a"]; d != 5 {
		t.Errorf("interval 0 Δa = %d, want 5", d)
	}
	if d := tl.Intervals[1].Counters["a"]; d != 4 {
		t.Errorf("interval 1 Δa = %d, want 4", d)
	}
	if _, ok := tl.Intervals[1].Counters["idle"]; ok {
		t.Errorf("interval 1 carries zero-delta counter idle: %v", tl.Intervals[1].Counters)
	}
	if _, ok := tl.Intervals[2].Counters["a"]; ok {
		t.Errorf("closing interval carries zero-delta counter a")
	}
	assertReconciles(t, tl)
}

// assertReconciles checks the invariant the CI smoke job enforces: with no
// ring drops, per-instrument interval deltas sum to the final snapshot.
func assertReconciles(t *testing.T, tl Timeline) {
	t.Helper()
	if tl.Dropped != 0 {
		t.Fatalf("timeline dropped %d intervals; reconciliation undefined", tl.Dropped)
	}
	sums := tl.SumCounters()
	for name, want := range tl.Totals.Counters {
		if sums[name] != want {
			t.Errorf("counter %s: interval deltas sum to %d, totals say %d", name, sums[name], want)
		}
	}
	for name, got := range sums {
		if tl.Totals.Counters[name] != got {
			t.Errorf("counter %s: deltas sum to %d but totals lack it", name, got)
		}
	}
}

// TestFinishFoldsSameCycle: when the engine stops on the same cycle as the
// last sample, the residual delta folds into that interval instead of
// duplicating the cycle value — the cycle column stays strictly monotone and
// the counts stay exact.
func TestFinishFoldsSameCycle(t *testing.T) {
	r := NewRecorder(Config{Every: 100})
	r.Record(Sample{At: 100, Snap: snap("a", 5)})
	tl := r.Finish(Sample{At: 100, Snap: snap("a", 8)})

	if len(tl.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1 (folded)", len(tl.Intervals))
	}
	if d := tl.Intervals[0].Counters["a"]; d != 8 {
		t.Errorf("folded Δa = %d, want 8", d)
	}
	assertReconciles(t, tl)
	assertMonotone(t, tl)
}

// assertMonotone checks cycles are strictly increasing within each epoch.
func assertMonotone(t *testing.T, tl Timeline) {
	t.Helper()
	last := map[int]uint64{}
	seen := map[int]bool{}
	for i, iv := range tl.Intervals {
		if seen[iv.Epoch] && iv.Cycle <= last[iv.Epoch] {
			t.Errorf("interval %d: cycle %d <= previous %d in epoch %d",
				i, iv.Cycle, last[iv.Epoch], iv.Epoch)
		}
		last[iv.Epoch], seen[iv.Epoch] = iv.Cycle, true
	}
}

// TestFinishIdempotent: a second Finish must not add intervals or
// double-merge totals, so the harness's collection and an ad-hoc caller's
// can coexist.
func TestFinishIdempotent(t *testing.T) {
	r := NewRecorder(Config{Every: 100})
	r.Record(Sample{At: 100, Snap: snap("a", 5)})
	first := r.Finish(Sample{At: 150, Snap: snap("a", 7)})
	second := r.Finish(Sample{At: 900, Snap: snap("a", 99)})
	if len(second.Intervals) != len(first.Intervals) {
		t.Errorf("second Finish grew intervals: %d -> %d", len(first.Intervals), len(second.Intervals))
	}
	if got := second.Totals.Counters["a"]; got != 7 {
		t.Errorf("second Finish totals a = %d, want 7 (no re-merge)", got)
	}
}

// TestRingEviction: the ring stays bounded, keeps the newest intervals and
// counts what it dropped.
func TestRingEviction(t *testing.T) {
	r := NewRecorder(Config{Every: 10, Cap: 4})
	for i := 1; i <= 10; i++ {
		r.Record(Sample{At: uint64(i * 10), Snap: snap("a", i)})
	}
	tl := r.Timeline()
	if len(tl.Intervals) != 4 || tl.Dropped != 6 {
		t.Fatalf("ring: %d intervals, %d dropped; want 4 and 6", len(tl.Intervals), tl.Dropped)
	}
	if tl.Intervals[0].Cycle != 70 || tl.Intervals[3].Cycle != 100 {
		t.Errorf("ring kept cycles %d..%d, want 70..100", tl.Intervals[0].Cycle, tl.Intervals[3].Cycle)
	}
	recent := r.Recent(2)
	if len(recent) != 2 || recent[0].Cycle != 90 || recent[1].Cycle != 100 {
		t.Errorf("Recent(2) = %+v, want cycles 90,100", recent)
	}
	if got := r.Recent(99); len(got) != 4 {
		t.Errorf("Recent(99) returned %d intervals, want 4", len(got))
	}
}

// TestConcat: Concat numbers the i-th single-machine timeline as epoch i,
// so cycles that restart per machine stay distinguishable, and merges the
// totals so the spliced timeline still reconciles.
func TestConcat(t *testing.T) {
	machine := func(samples ...Sample) Timeline {
		r := NewRecorder(Config{Every: 100})
		for _, s := range samples[:len(samples)-1] {
			r.Record(s)
		}
		return r.Finish(samples[len(samples)-1])
	}
	tls := []Timeline{
		machine(Sample{At: 100, Snap: snap("a", 1)}, Sample{At: 150, Snap: snap("a", 3)}),
		machine(Sample{At: 50, Snap: snap("a", 2)}),
		machine(Sample{At: 100, Snap: snap("b", 1)}, Sample{At: 200, Snap: snap("b", 4)}),
	}
	cat := Concat(tls...)
	if len(cat.Intervals) != 5 {
		t.Fatalf("concat: %d intervals, want 5", len(cat.Intervals))
	}
	want := []int{0, 0, 1, 2, 2}
	for i, iv := range cat.Intervals {
		if iv.Epoch != want[i] {
			t.Errorf("interval %d (cycle %d): epoch %d, want %d", i, iv.Cycle, iv.Epoch, want[i])
		}
	}
	if cat.Every != 100 || cat.Dropped != 0 {
		t.Errorf("concat every/dropped = %d/%d, want 100/0", cat.Every, cat.Dropped)
	}
	if cat.Totals.Counters["a"] != 5 || cat.Totals.Counters["b"] != 4 {
		t.Errorf("concat totals = %v, want a=5 b=4", cat.Totals.Counters)
	}
	assertReconciles(t, cat)
	assertMonotone(t, cat)
}

// TestBucketQuantiles: quantiles come from the interval's bucket deltas, not
// lifetime contents, and a p50 that lands in the zero bucket stays 0.
func TestBucketQuantiles(t *testing.T) {
	mkHist := func(count, sum uint64, buckets ...metrics.Bucket) metrics.HistogramValue {
		return metrics.HistogramValue{Count: count, Sum: sum, Buckets: buckets}
	}
	r := NewRecorder(Config{Every: 100})
	prev := metrics.NewSnapshot()
	prev.Histograms["lat"] = mkHist(100, 1000, metrics.Bucket{Le: 1023, Count: 100})
	r.Record(Sample{At: 100, Snap: prev})

	// Interval activity: 90 samples at <=0, 9 at <=15, 1 at <=1023.
	cur := metrics.NewSnapshot()
	cur.Histograms["lat"] = mkHist(200, 2000,
		metrics.Bucket{Le: 0, Count: 90},
		metrics.Bucket{Le: 15, Count: 9},
		metrics.Bucket{Le: 1023, Count: 101})
	r.Record(Sample{At: 200, Snap: cur})

	tl := r.Timeline()
	hd, ok := tl.Intervals[1].Hists["lat"]
	if !ok {
		t.Fatalf("interval 1 missing hist delta: %+v", tl.Intervals[1])
	}
	if hd.Count != 100 || hd.Sum != 1000 {
		t.Errorf("hist delta count/sum = %d/%d, want 100/1000", hd.Count, hd.Sum)
	}
	if hd.P50 != 0 {
		t.Errorf("p50 = %d, want 0 (90%% of interval samples in the zero bucket)", hd.P50)
	}
	if hd.P90 != 0 || hd.P99 != 15 {
		t.Errorf("p90/p99 = %d/%d, want 0/15", hd.P90, hd.P99)
	}
	// The quiet histogram in interval 0 (first delta vs empty prev) covers
	// the all-of-lifetime case: p99 within the single occupied bucket.
	hd0 := tl.Intervals[0].Hists["lat"]
	if hd0.Count != 100 || hd0.P50 != 1023 || hd0.P99 != 1023 {
		t.Errorf("interval 0 hist delta = %+v, want count 100, quantiles 1023", hd0)
	}
}

// TestOnSampleStreams: the dashboard hook sees every interval as it is
// recorded, including the closing one.
func TestOnSampleStreams(t *testing.T) {
	var got []uint64
	r := NewRecorder(Config{Every: 100, OnSample: func(iv Interval) { got = append(got, iv.Cycle) }})
	r.Record(Sample{At: 100, Snap: snap("a", 1)})
	r.Finish(Sample{At: 200, Snap: snap("a", 2)})
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("OnSample saw cycles %v, want [100 200]", got)
	}
}
