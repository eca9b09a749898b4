package fugu

import (
	"testing"

	"fugu/internal/apps"
	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/harness"
	"fugu/internal/udm"
)

// The benchmarks below regenerate each data-bearing table and figure of the
// paper at the quick scale and report the headline quantities as benchmark
// metrics, so `go test -bench=.` doubles as the reproduction run. Absolute
// cycle numbers are simulation results and do not depend on b.N; wall-clock
// per iteration measures the simulator itself.

// BenchmarkTable4FastPath: protected fast-path receive costs (Table 4).
func BenchmarkTable4FastPath(b *testing.B) {
	var r harness.Table4Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Table4(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.MeasuredIntr[0]), "kernel-intr-cycles")
	b.ReportMetric(float64(r.MeasuredIntr[1]), "hard-intr-cycles")
	b.ReportMetric(float64(r.MeasuredIntr[2]), "soft-intr-cycles")
	b.ReportMetric(float64(r.MeasuredPoll[1]), "poll-cycles")
	if r.MeasuredIntr[1] != 87 {
		b.Errorf("hard-atomicity interrupt total = %d, paper says 87", r.MeasuredIntr[1])
	}
}

// BenchmarkTable5BufferedPath: software buffer insert/extract (Table 5).
func BenchmarkTable5BufferedPath(b *testing.B) {
	var r harness.Table5Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Table5(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeasuredInsertMean, "insert-cycles")
	b.ReportMetric(r.MeasuredExtractMean, "extract-cycles")
	b.ReportMetric(float64(r.InsertMin+r.Extract), "min-total-cycles")
	if r.InsertMin+r.Extract != 232 {
		b.Errorf("buffered minimum = %d, paper says 232", r.InsertMin+r.Extract)
	}
}

// BenchmarkTable6Apps: application characteristics (Table 6).
func BenchmarkTable6Apps(b *testing.B) {
	var r harness.Table6Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Table6(harness.WithQuick(), harness.WithTrials(1)); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Err != nil {
			b.Errorf("%s check failed: %v", row.App, row.Err)
		}
		b.ReportMetric(float64(row.Runtime)/1e6, row.App+"-Mcycles")
	}
}

// BenchmarkFig7BufferedFraction: % buffered vs skew (Figure 7).
func BenchmarkFig7BufferedFraction(b *testing.B) {
	var r harness.Fig78Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Fig7and8(harness.WithQuick(), harness.WithTrials(1)); err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Skews) - 1
	for _, app := range r.Apps {
		b.ReportMetric(r.Runs[app][last].BufferedPct, app+"-bufpct")
		if pages := r.Runs[app][last].MaxBufferPages; pages >= 7 {
			b.Errorf("%s used %d buffer pages/node, paper bound is <7", app, pages)
		}
	}
	// The paper's shape: enum's buffered fraction grows with skew.
	if r.Runs["enum"][last].BufferedPct <= r.Runs["enum"][0].BufferedPct {
		b.Error("enum buffered fraction did not grow with skew")
	}
}

// BenchmarkFig8Slowdown: relative runtime vs skew (Figure 8).
func BenchmarkFig8Slowdown(b *testing.B) {
	var r harness.Fig78Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Fig7and8(harness.WithQuick(), harness.WithTrials(1)); err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Skews) - 1
	for _, app := range r.Apps {
		rel := float64(r.Runs[app][last].Runtime) / float64(r.Runs[app][0].Runtime)
		b.ReportMetric(rel, app+"-slowdown")
	}
	// Barrier tracks 1/(1-skew); enum tolerates latency.
	barrier := float64(r.Runs["barrier"][last].Runtime) / float64(r.Runs["barrier"][0].Runtime)
	enum := float64(r.Runs["enum"][last].Runtime) / float64(r.Runs["enum"][0].Runtime)
	if barrier < 1.02 {
		b.Errorf("barrier slowdown %.3f at max skew: expected sensitivity", barrier)
	}
	if enum > barrier+0.2 {
		b.Errorf("enum slowdown %.3f vs barrier %.3f: enum should tolerate skew", enum, barrier)
	}
}

// BenchmarkFig9SynthInterval: % buffered vs send interval (Figure 9).
func BenchmarkFig9SynthInterval(b *testing.B) {
	var r harness.SynthSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Fig9(harness.WithQuick(), harness.WithTrials(1)); err != nil {
			b.Fatal(err)
		}
	}
	for i, n := range r.Ns {
		b.ReportMetric(r.Pct[i][0], benchName("synth", n)+"-min-tbetw-bufpct")
	}
	// Shape: below-service-rate sending buffers much more than leisurely
	// sending, and synth-10's frequent synchronization caps its buffering.
	last := len(r.X) - 1
	if r.Pct[2][0] <= r.Pct[2][last] {
		b.Error("synth-1000 buffering did not fall as T_betw grew")
	}
	if r.Pct[0][0] >= r.Pct[2][0] {
		b.Error("synth-10 buffered as much as synth-1000 at the lowest T_betw")
	}
}

// BenchmarkFig10BufferCost: % buffered vs buffered-path cost (Figure 10).
func BenchmarkFig10BufferCost(b *testing.B) {
	var r harness.SynthSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = harness.Fig10(harness.WithQuick(), harness.WithTrials(1)); err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.X) - 1
	for i, n := range r.Ns {
		b.ReportMetric(r.Pct[i][last], benchName("synth", n)+"-max-cost-bufpct")
	}
	if r.Pct[2][last] <= r.Pct[2][0] {
		b.Error("synth-1000 buffering did not grow with buffered-path cost")
	}
	if r.Pct[0][last] >= r.Pct[2][last] {
		b.Error("synth-10 should stay small: its synchronization balances the rates")
	}
}

func benchName(prefix string, n int) string {
	switch n {
	case 10:
		return prefix + "-10"
	case 100:
		return prefix + "-100"
	default:
		return prefix + "-1000"
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationAtomicity compares an interrupt-driven workload (synth,
// whose request handlers arrive as user-level interrupts) under the three
// atomicity implementations: the hardware revocable interrupt disable buys
// back most of the protection cost (Table 4's 87 vs 115 cycles), and
// unprotected kernel-mode messaging bounds the gain.
func BenchmarkAblationAtomicity(b *testing.B) {
	for _, impl := range []glaze.AtomicityImpl{glaze.KernelMode, glaze.HardAtomicity, glaze.SoftAtomicity} {
		b.Run(impl.String(), func(b *testing.B) {
			var runtime uint64
			for i := 0; i < b.N; i++ {
				rs := harness.RunMultiprogrammedQ(
					func() apps.Instance {
						s := apps.NewSynth(100, 20, 100)
						s.THandWork = 50 // overhead-dominated handlers
						return s
					},
					0, 1, 50_000,
					func(cfg *glaze.Config) { cfg.Cost = glaze.Costs(impl) })
				if rs.Err != nil {
					b.Fatal(rs.Err)
				}
				runtime = rs.Runtime
			}
			b.ReportMetric(float64(runtime)/1e6, "Mcycles")
		})
	}
}

// BenchmarkAblationOneCase compares two-case delivery against the
// always-buffered (SUNMOS-style) organization: the one-case system pays the
// 232-cycle path on every message.
func BenchmarkAblationOneCase(b *testing.B) {
	for _, oneCase := range []bool{false, true} {
		name := "two-case"
		if oneCase {
			name = "one-case"
		}
		b.Run(name, func(b *testing.B) {
			var rs harness.RunStats
			for i := 0; i < b.N; i++ {
				rs = harness.RunMultiprogrammedQ(
					func() apps.Instance { return apps.NewBarrierApp(1000) },
					0.01, 1, 50_000,
					func(cfg *glaze.Config) { cfg.AlwaysBuffered = oneCase })
				if rs.Err != nil {
					b.Fatal(rs.Err)
				}
			}
			b.ReportMetric(float64(rs.Runtime)/1e6, "Mcycles")
			b.ReportMetric(rs.BufferedPct, "bufpct")
		})
	}
}

// BenchmarkAblationVirtualBuffering compares virtual buffering against
// pinned buffers on a flood into a slowly-draining process: reclamation
// keeps the physical footprint near the live window where pinning grows
// with everything ever buffered.
func BenchmarkAblationVirtualBuffering(b *testing.B) {
	flood := func(pinned bool) (maxPages int) {
		cfg := glaze.DefaultConfig()
		cfg.W, cfg.H = 2, 1
		cfg.NoBufferReclaim = pinned
		m := glaze.NewMachine(cfg)
		job := m.NewJob("flood")
		null := m.NewJob("null")
		udm.Attach(null.Process(0))
		udm.Attach(null.Process(1))
		ep0 := udm.Attach(job.Process(0))
		ep1 := udm.Attach(job.Process(1))
		const n = 3000
		got := 0
		ep1.On(1, func(e *udm.Env, msg *udm.Msg) { got++; e.Spend(100) })
		args := make([]uint64, 14)
		job.Process(0).StartMain(func(t *cpu.Task) {
			e := ep0.Env(t)
			for i := 0; i < n; i++ {
				args[0] = uint64(i)
				e.Inject(1, 1, args...)
				t.Spend(200)
			}
		})
		job.Process(1).StartMain(func(t *cpu.Task) {
			for got < n {
				t.Spend(10_000)
			}
		})
		// Heavily skewed small quanta: production bursts buffer while the
		// receiver runs null, then drain during its job slot. Virtual
		// buffering's footprint is the burst window; pinning accumulates.
		m.NewGang(20_000, 0.9, job, null).Start()
		m.RunUntilDone(0, job)
		if got != n {
			b.Fatalf("delivered %d/%d", got, n)
		}
		return job.Process(1).BufferPagesHighWater()
	}
	for _, pinned := range []bool{false, true} {
		name := "virtual"
		if pinned {
			name = "pinned"
		}
		b.Run(name, func(b *testing.B) {
			var pages int
			for i := 0; i < b.N; i++ {
				pages = flood(pinned)
			}
			b.ReportMetric(float64(pages), "max-pages")
		})
	}
}

// BenchmarkSimulator measures raw simulator throughput: simulated cycles
// per wall second on the barrier benchmark.
func BenchmarkSimulator(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		rs := harness.RunStandalone(func() apps.Instance { return apps.NewBarrierApp(2000) }, 1)
		cycles += rs.Runtime
	}
	b.ReportMetric(float64(cycles)/float64(b.N)/1e6, "Mcycles/op")
}
