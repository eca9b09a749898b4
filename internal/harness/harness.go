// Package harness regenerates every data-bearing table and figure of the
// paper's evaluation: Table 4 (fast-path cycle counts), Table 5 (buffered-
// path costs), Table 6 (application characteristics), Figure 7 (buffered
// fraction vs schedule quality), Figure 8 (relative runtime vs schedule
// quality), Figure 9 (buffered fraction vs send interval) and Figure 10
// (buffered fraction vs buffered-path cost).
//
// Experiments are registered by name (Lookup, Names, Experiments) and
// enumerate their sweeps as independent Points; a Runner fans points and
// trials out across a worker pool with deterministic, index-keyed result
// assembly, so parallel runs are bit-identical to serial ones. Every
// experiment returns a structured Result (and an error) — rendering the
// paper-style tables and ASCII figures is cmd/fugusim's job. EXPERIMENTS.md
// records the paper-vs-measured comparison produced by `fugusim run all`.
package harness

import (
	"fmt"

	"fugu/internal/apps"
	"fugu/internal/glaze"
	"fugu/internal/metrics"
	"fugu/internal/telemetry"
)

// machineConfig builds the standard 8-node experiment machine.
// Applications ship bulk data; FUGU used a DMA engine for messages longer
// than the 16-word descriptor, which we model with a larger descriptor
// (see DESIGN.md).
func machineConfig(seed uint64) glaze.Config {
	return glaze.NewConfig(glaze.WithMachineSeed(seed), glaze.WithOutputWords(64))
}

// AppMakers returns constructors for the five Table 6 applications at the
// chosen scale.
func AppMakers(quick bool) []func() apps.Instance {
	if quick {
		return []func() apps.Instance{
			func() apps.Instance { return apps.NewBarnes(256, 2) },
			func() apps.Instance { return apps.NewWater(192, 3) },
			func() apps.Instance { return apps.NewLU(120, 10) },
			func() apps.Instance { return apps.NewBarrierApp(2000) },
			func() apps.Instance { return apps.NewEnum(5) },
		}
	}
	return []func() apps.Instance{
		func() apps.Instance { return apps.NewBarnes(2048, 3) },
		func() apps.Instance { return apps.NewWater(512, 3) },
		func() apps.Instance { return apps.NewLU(250, 10) },
		func() apps.Instance { return apps.NewBarrierApp(10000) },
		// The paper runs the triangle puzzle at 6 pegs/side. Its reference
		// count is cheap, but simulating its 8.2e11 expansions at 120
		// cycles each is not, so we run 5 pegs/side (DESIGN.md §8).
		func() apps.Instance { return apps.NewEnum(5) },
	}
}

// RunStats summarizes one application run.
type RunStats struct {
	App            string
	Model          string
	Runtime        uint64 // completion time in cycles
	Msgs           uint64
	Fast, Buffered uint64
	BufferedPct    float64
	MaxBufferPages int
	TBetw, THand   float64
	Err            error
	// Observation is the machine-wide registry snapshot taken at
	// completion (per-node registries merged) and the run's timeline.
	// Trials merge and concatenate rather than average — see averageStats.
	Observation
}

// RunStandalone executes an instance alone on eight nodes (Table 6 rows).
func RunStandalone(make func() apps.Instance, seed uint64) RunStats {
	return RunStandaloneMut(make, seed, nil)
}

// RunStandaloneMut is RunStandalone with a config mutator (trace installs,
// cost-model tweaks).
func RunStandaloneMut(make func() apps.Instance, seed uint64, mut func(*glaze.Config)) RunStats {
	inst := make()
	cfg := machineConfig(seed)
	if mut != nil {
		mut(&cfg)
	}
	m := glaze.NewMachine(cfg)
	job := m.NewJob(inst.Name())
	inst.Start(m, job)
	m.NewGang(1<<40, 0, job).Start()
	start := m.Eng.Now()
	m.RunUntilDone(0, job)
	return collect(inst, job, m, job.DoneAt()-start)
}

// RunMultiprogrammedQ executes an instance against a null application under
// a gang schedule with the given quantum and clock skew (Figures 7-10).
func RunMultiprogrammedQ(make func() apps.Instance, skew float64, seed uint64, quantum uint64, mut func(*glaze.Config)) RunStats {
	inst := make()
	cfg := machineConfig(seed)
	if mut != nil {
		mut(&cfg)
	}
	m := glaze.NewMachine(cfg)
	job := m.NewJob(inst.Name())
	null := m.NewJob("null")
	inst.Start(m, job)
	apps.Null{}.Start(m, null)
	m.NewGang(quantum, skew, job, null).Start()
	m.RunUntilDone(0, job)
	return collect(inst, job, m, job.DoneAt())
}

// collect assembles RunStats after completion, then ends the machine's
// procs. FinishTelemetry runs first so the timeline's closing interval and
// Totals agree exactly with the Metrics snapshot (the engine is stopped;
// both read the same state).
func collect(inst apps.Instance, job *glaze.Job, m *glaze.Machine, runtime uint64) RunStats {
	tl := m.FinishTelemetry()
	d := job.Delivery()
	rs := RunStats{
		App:            inst.Name(),
		Model:          inst.Model(),
		Runtime:        runtime,
		Fast:           d.Fast,
		Buffered:       d.Buffered,
		BufferedPct:    d.BufferedPct(),
		MaxBufferPages: job.MaxBufferPages(),
		Err:            inst.Check(),
		Observation:    Observation{Metrics: m.MetricsSnapshot(), Timeline: tl},
	}
	rs.Msgs = d.Total()
	if rs.Msgs > 0 {
		rs.TBetw = float64(runtime) * float64(len(job.Procs())) / float64(rs.Msgs)
	}
	rs.THand = handlerMean(job)
	m.Eng.Close()
	return rs
}

// handlerMean reads the per-endpoint handler occupancy the application rig
// registered on the job; it covers polled deliveries too, unlike the
// upcall-task accounting it falls back to.
func handlerMean(job *glaze.Job) float64 {
	if rig, ok := job.Tag.(*apps.Rig); ok {
		return rig.HandlerMean()
	}
	var cycles, msgs uint64
	for _, p := range job.Procs() {
		cycles += p.UpcallConsumed()
		msgs += p.Deliv.Fast + p.Deliv.Buffered
	}
	if msgs == 0 {
		return 0
	}
	return float64(cycles) / float64(msgs)
}

// averageStats averages runs (trials) of the same configuration. Registry
// snapshots are merged, not averaged: counts sum across trials (exact and
// deterministic, unlike a truncating division), so merged metrics from a
// parallel sweep are bit-identical to a serial one.
func averageStats(runs []RunStats) RunStats {
	if len(runs) == 1 {
		return runs[0]
	}
	avg := runs[0]
	snaps := make([]metrics.Snapshot, len(runs))
	tls := make([]telemetry.Timeline, len(runs))
	for i, r := range runs {
		snaps[i] = r.Metrics
		tls[i] = r.Timeline
	}
	avg.Metrics = metrics.Merge(snaps...)
	// Timelines concatenate (trials become distinct epochs) rather than
	// average: per-interval deltas from different trials are incomparable,
	// and concatenation preserves the deltas-sum-to-totals invariant.
	avg.Timeline = telemetry.Concat(tls...)
	var rt, msgs, fast, buf float64
	var pages int
	var pct, tb, th float64
	for _, r := range runs {
		rt += float64(r.Runtime)
		msgs += float64(r.Msgs)
		fast += float64(r.Fast)
		buf += float64(r.Buffered)
		pct += r.BufferedPct
		tb += r.TBetw
		th += r.THand
		if r.MaxBufferPages > pages {
			pages = r.MaxBufferPages
		}
		if r.Err != nil {
			avg.Err = r.Err
		}
	}
	n := float64(len(runs))
	avg.Runtime = uint64(rt / n)
	avg.Msgs = uint64(msgs / n)
	avg.Fast = uint64(fast / n)
	avg.Buffered = uint64(buf / n)
	avg.BufferedPct = pct / n
	avg.TBetw = tb / n
	avg.THand = th / n
	avg.MaxBufferPages = pages
	return avg
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func u(v uint64) string    { return fmt.Sprintf("%d", v) }
func mcyc(v uint64) string { return fmt.Sprintf("%.1fM", float64(v)/1e6) }
