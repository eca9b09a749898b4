package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"fugu/internal/apps"
	"fugu/internal/glaze"
)

func TestTable4ExactTotals(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	want := [3]uint64{54, 87, 115}
	if r.MeasuredIntr != want {
		t.Errorf("measured interrupt totals = %v, want %v", r.MeasuredIntr, want)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "interrupt total:") {
		t.Error("print missing totals row")
	}
}

func TestTable5Measurements(t *testing.T) {
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if r.Inserts < 1000 {
		t.Errorf("only %d inserts: microbenchmark did not engage buffering", r.Inserts)
	}
	if r.VMAllocs == 0 {
		t.Error("no demand page allocations observed")
	}
	// The measured insert mean sits at or just above the configured
	// minimum (page crossings add the vmalloc cost occasionally).
	if r.MeasuredInsertMean < float64(r.InsertMin) || r.MeasuredInsertMean > float64(r.InsertMin)*1.5 {
		t.Errorf("insert mean %.1f implausible vs configured %d", r.MeasuredInsertMean, r.InsertMin)
	}
	if r.MeasuredExtractMean < float64(r.Extract) {
		t.Errorf("extract mean %.1f below configured %d", r.MeasuredExtractMean, r.Extract)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "232") {
		t.Error("print missing the 232-cycle total")
	}
}

func TestRunStandaloneChecksPass(t *testing.T) {
	rs := RunStandalone(func() apps.Instance { return apps.NewBarrierApp(100) }, 1)
	if rs.Err != nil {
		t.Fatal(rs.Err)
	}
	if rs.Msgs != 100*24+2 && rs.Msgs != 100*24 {
		t.Errorf("msgs = %d, want ~2400", rs.Msgs)
	}
	if rs.Buffered != 0 {
		t.Errorf("standalone run buffered %d messages", rs.Buffered)
	}
	if rs.THand <= 0 {
		t.Error("T_hand not measured")
	}
}

func TestRunMultiprogrammedIsDeterministic(t *testing.T) {
	mk := func() apps.Instance { return apps.NewBarrierApp(200) }
	a := RunMultiprogrammedQ(mk, 0.03, 7, 50_000, nil)
	b := RunMultiprogrammedQ(mk, 0.03, 7, 50_000, nil)
	if a.Runtime != b.Runtime || a.Buffered != b.Buffered || a.Fast != b.Fast {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	c := RunMultiprogrammedQ(mk, 0.03, 8, 50_000, nil)
	_ = c // different seed may legitimately differ; just must not crash
}

func TestZeroSkewMultiprogIsTwiceStandalone(t *testing.T) {
	// The paper: the zero-skew multiprogrammed runtime is within 1% of 2x
	// the standalone runtime. Our barrier satisfies it once the workload
	// spans several quanta.
	mk := func() apps.Instance { return apps.NewBarrierApp(2000) }
	solo := RunStandalone(mk, 1)
	multi := RunMultiprogrammedQ(mk, 0, 1, 50_000, nil)
	ratio := float64(multi.Runtime) / float64(2*solo.Runtime)
	if ratio < 0.97 || ratio > 1.06 {
		t.Errorf("multi/2*solo = %.3f, want ~1.0 (solo %d, multi %d)",
			ratio, solo.Runtime, multi.Runtime)
	}
}

func TestQuantumForScales(t *testing.T) {
	if NewOptions().QuantumFor() != Quantum {
		t.Error("full options quantum != paper's 500k")
	}
	if NewOptions(WithQuick(), WithTrials(1)).QuantumFor() >= Quantum {
		t.Error("quick quantum not scaled down")
	}
}

func TestAverageStats(t *testing.T) {
	runs := []RunStats{
		{Runtime: 100, Msgs: 10, Fast: 8, Buffered: 2, BufferedPct: 20, MaxBufferPages: 1},
		{Runtime: 200, Msgs: 20, Fast: 18, Buffered: 2, BufferedPct: 10, MaxBufferPages: 3},
	}
	avg := averageStats(runs)
	if avg.Runtime != 150 || avg.Msgs != 15 {
		t.Errorf("avg = %+v", avg)
	}
	if avg.BufferedPct != 15 {
		t.Errorf("avg pct = %v", avg.BufferedPct)
	}
	if avg.MaxBufferPages != 3 {
		t.Errorf("pages should take the max, got %d", avg.MaxBufferPages)
	}
}

func TestFig9ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r, err := Fig9(WithQuick(), WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errs) > 0 {
		t.Fatalf("checks failed: %v", r.Errs)
	}
	last := len(r.X) - 1
	// synth-1000 buffers more at the lowest interval than the highest.
	if r.Pct[2][0] <= r.Pct[2][last] {
		t.Errorf("synth-1000: %.2f%% at tb=%d vs %.2f%% at tb=%d",
			r.Pct[2][0], r.X[0], r.Pct[2][last], r.X[last])
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "synth-1000") {
		t.Error("print missing series")
	}
}

func TestFig10ShapeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	r, err := Fig10(WithQuick(), WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errs) > 0 {
		t.Fatalf("checks failed: %v", r.Errs)
	}
	last := len(r.X) - 1
	if r.Pct[2][last] <= r.Pct[2][0] {
		t.Error("synth-1000 buffering did not grow with buffered-path cost")
	}
	if r.Pct[0][last] > r.Pct[2][last] {
		t.Error("synth-10 buffered more than synth-1000 at max cost")
	}
}

func TestFig10ExtraCostIsApplied(t *testing.T) {
	// Sanity for the knob itself: the same run with a huge extra insert
	// cost must spend more kernel cycles.
	mk := func() apps.Instance { return apps.NewSynth(100, 5, 200) }
	base := RunMultiprogrammedQ(mk, 0.01, 1, Quantum, nil)
	slow := RunMultiprogrammedQ(mk, 0.01, 1, Quantum,
		func(cfg *glaze.Config) { cfg.Cost.ExtraBufferCost = 5000 })
	if base.Err != nil || slow.Err != nil {
		t.Fatal(base.Err, slow.Err)
	}
	if slow.Runtime <= base.Runtime {
		t.Errorf("extra buffer cost did not slow the run: %d vs %d", slow.Runtime, base.Runtime)
	}
}

// TestSweepLeavesNoGoroutines: every machine a point builds ends its procs.
// A task still parked when its run ends (an IRQ task, an idle upcall task)
// would otherwise keep its coroutine's goroutine, and through it the whole
// machine, alive after the sweep.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Fig7and8(WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(2)); err != nil {
		t.Fatal(err)
	}
	// The runner's workers return before Run does, but may not have exited.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before the sweep, %d after", before, after)
	}
}
