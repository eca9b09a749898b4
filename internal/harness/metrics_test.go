package harness

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"fugu/internal/apps"
	"fugu/internal/metrics"
	"fugu/internal/trace"
)

// synthPoint builds one multiprogrammed synth run as a sweep point; the
// small group count keeps a point well under a second.
func synthPoint(trial int) Point {
	return Point{
		Label: fmt.Sprintf("synth trial=%d", trial),
		Run: func(_ context.Context, opt Options) (any, error) {
			return RunMultiprogrammedQ(
				func() apps.Instance { return apps.NewSynth(10, 50, 275) },
				0.01, opt.TrialSeed(trial), 50_000, opt.machineMut(nil)), nil
		},
	}
}

// statsResult is a throwaway Result for RunStats-valued sweeps.
type statsResult struct{ runs []RunStats }

func (statsResult) Print(io.Writer) {}

func statsExperiment(n int) *Experiment {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = synthPoint(i)
	}
	return &Experiment{
		Name:        "metricstest",
		Description: "metrics aggregation test sweep",
		Points:      func(Options) []Point { return pts },
		Assemble: func(_ Options, results []any) (Result, error) {
			res := statsResult{}
			for _, r := range results {
				res.runs = append(res.runs, r.(RunStats))
			}
			return res, nil
		},
	}
}

// TestSweepMetricsSerialParallelIdentical is the metrics half of the
// determinism guarantee: the merged registry snapshot the Runner hands to
// OnMetrics is identical whether the sweep ran on one worker or eight.
func TestSweepMetricsSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	exp := statsExperiment(6)
	merged := map[int]metrics.Snapshot{}
	for _, workers := range []int{1, 8} {
		calls := 0
		r := &Runner{OnMetrics: func(s metrics.Snapshot) { calls++; merged[workers] = s }}
		if _, err := r.Run(context.Background(), exp, WithParallelism(workers)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls != 1 {
			t.Fatalf("workers=%d: OnMetrics called %d times, want 1", workers, calls)
		}
	}
	if merged[1].Empty() {
		t.Fatal("merged snapshot is empty")
	}
	if !reflect.DeepEqual(merged[1], merged[8]) {
		t.Errorf("merged metrics differ between -j 1 and -j 8:\nserial:   %s\nparallel: %s",
			merged[1].JSON(), merged[8].JSON())
	}
}

// TestOnMetricsSkipsNonCarrierResults: points whose results carry no
// snapshot simply contribute nothing.
func TestOnMetricsSkipsNonCarrierResults(t *testing.T) {
	pts := []Point{
		{Label: "plain", Run: func(context.Context, Options) (any, error) { return 7, nil }},
	}
	exp := &Experiment{
		Name:        "nocarrier",
		Description: "no metrics carriers",
		Points:      func(Options) []Point { return pts },
		Assemble: func(_ Options, results []any) (Result, error) {
			return statsResult{}, nil
		},
	}
	var got *metrics.Snapshot
	r := &Runner{OnMetrics: func(s metrics.Snapshot) { got = &s }}
	if _, err := r.Run(context.Background(), exp, WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("OnMetrics not called")
	}
	if !got.Empty() {
		t.Errorf("snapshot from carrier-free sweep not empty: %s", got.JSON())
	}
}

// TestRunStatsMetricsMatchDeliveryCounts cross-checks the registry against
// the job's own delivery ledger: the measured job is the only communicating
// job on the machine (apps.Null never sends), so the machine-wide
// glaze.deliver.* counters must equal the RunStats figures exactly.
func TestRunStatsMetricsMatchDeliveryCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("sim")
	}
	run := RunMultiprogrammedQ(
		func() apps.Instance { return apps.NewSynth(10, 100, 275) },
		0.01, 1, 50_000, nil)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	c := run.Metrics.Counters
	if c["glaze.deliver.fast"] != run.Fast {
		t.Errorf("glaze.deliver.fast = %d, RunStats.Fast = %d", c["glaze.deliver.fast"], run.Fast)
	}
	if c["glaze.deliver.buffered"] != run.Buffered {
		t.Errorf("glaze.deliver.buffered = %d, RunStats.Buffered = %d", c["glaze.deliver.buffered"], run.Buffered)
	}
	if run.Msgs == 0 {
		t.Fatal("synth run delivered no messages")
	}
	// Every delivery also passed through a UDM endpoint of some job.
	if got := c["udm.delivered"]; got < run.Msgs {
		t.Errorf("udm.delivered = %d, want at least %d", got, run.Msgs)
	}
	// Latency histograms observe one sample per delivery on each path.
	h := run.Metrics.Histograms
	if got := h["glaze.deliver.latency.fast"].Count; got != run.Fast {
		t.Errorf("fast latency samples = %d, want %d", got, run.Fast)
	}
	if got := h["glaze.deliver.latency.buffered"].Count; got != run.Buffered {
		t.Errorf("buffered latency samples = %d, want %d", got, run.Buffered)
	}
}

// TestWithTraceReachesPointMachines: a trace log handed to the option set
// is installed on the machines experiment points build, and a
// multiprogrammed run records schedule events into it.
func TestWithTraceReachesPointMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("sim")
	}
	l := trace.New(4096)
	l.Enable(trace.Categories()...)
	opt := NewOptions(WithTrace(l), WithTrials(1), WithParallelism(1))
	if opt.Trace != l {
		t.Fatal("WithTrace did not resolve into Options")
	}
	run := RunMultiprogrammedQ(
		func() apps.Instance { return apps.NewSynth(10, 50, 275) },
		0.01, 1, 50_000, opt.machineMut(nil))
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if l.Total() == 0 {
		t.Error("traced run recorded no events")
	}
	var sched bool
	for _, ev := range l.Events() {
		if ev.Cat == trace.Sched {
			sched = true
			break
		}
	}
	if !sched {
		t.Error("no sched events in a gang-scheduled run")
	}
}
