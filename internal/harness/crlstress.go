package harness

import (
	"context"
	"fmt"
	"io"

	"fugu/internal/cpu"
	"fugu/internal/crl"
	"fugu/internal/glaze"
	"fugu/internal/metrics"
	"fugu/internal/plot"
	"fugu/internal/telemetry"
	"fugu/internal/udm"
)

// crlStressOpsSweep is the sweep of per-node operation counts. It replicates
// the range the coherence stress property explores (ops = input%40 + 10) and
// includes the counts around the historical lost-request deadlock (ops >= 41
// at machine seed 0x9459729f43aff4c8), so `fugusim inspect crlstress -point N
// -with spans,watchdog` can replay exactly the schedules that wedge.
var crlStressOpsSweep = []int{10, 20, 30, 37, 41, 45}

// CRLStressRow is one sweep point's outcome.
type CRLStressRow struct {
	Ops       int    // write sections per node
	Completed bool   // all four mains finished within the cycle budget
	Total     uint64 // sum of the final region counters
	Expected  uint64 // 4*Ops — what coherent increments must add up to
	Cycles    uint64 // simulated time consumed
}

// CRLStressResult is the structured outcome of the crlstress experiment.
type CRLStressResult struct {
	Rows []CRLStressRow
}

// Print renders the sweep table.
func (r CRLStressResult) Print(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		status := "ok"
		if !row.Completed {
			status = "WEDGED"
		} else if row.Total != row.Expected {
			status = "LOST UPDATES"
		}
		rows = append(rows, []string{
			fmt.Sprint(row.Ops), status, u(row.Total), u(row.Expected), u(row.Cycles),
		})
	}
	fmt.Fprintln(w, "CRL coherence stress: per-node random section workload on a 4-node machine")
	fmt.Fprintln(w, plot.Table([]string{"ops/node", "status", "total", "expected", "cycles"}, rows))
}

// crlStressPoint carries one row plus the machine's metrics snapshot and
// flight-recorder timeline.
type crlStressPoint struct {
	row CRLStressRow
	Observation
}

// RunCRLStressOnce executes a single stress point outside the sweep — the
// bench subcommand's protocol-heavy workload. It returns the row plus the
// machine's merged metrics snapshot (for event counts) and its
// flight-recorder timeline (empty unless telemetry is enabled in opts).
// Extra options layer over the quick single-trial defaults (the bench
// passes the policy).
func RunCRLStressOnce(ops int, seed uint64, opts ...Option) (CRLStressRow, metrics.Snapshot, telemetry.Timeline) {
	base := append([]Option{WithSeed(seed), WithTrials(1), WithQuick()}, opts...)
	p := runCRLStress(ops, NewOptions(base...))
	return p.row, p.Metrics, p.Timeline
}

// crlStressExperiment sweeps the CRL stress workload over per-node op
// counts. It exists for the watchdog: the workload mixes fast-path
// request-reply traffic with buffered bulk data and has historically
// deadlocked at specific seeds, which makes it the natural target for span
// and liveness diagnosis.
func crlStressExperiment() *Experiment {
	return &Experiment{
		Name:        "crlstress",
		Description: "CRL coherence stress sweep (random sections, 4 nodes); the watchdog's deadlock testbed",
		Points: func(Options) []Point {
			pts := make([]Point, len(crlStressOpsSweep))
			for i, ops := range crlStressOpsSweep {
				pts[i] = Point{
					Label: fmt.Sprintf("ops=%d", ops),
					Run: func(_ context.Context, opt Options) (any, error) {
						return runCRLStress(ops, opt), nil
					},
				}
			}
			return pts
		},
		Assemble: func(_ Options, results []any) (Result, error) {
			res := CRLStressResult{Rows: make([]CRLStressRow, len(results))}
			for i, r := range results {
				res.Rows[i] = r.(crlStressPoint).row
			}
			return res, nil
		},
	}
}

// runCRLStress executes one sweep point. The workload replicates the
// coherence stress property test operation for operation — same region
// count, same rng consumption order, same synchronization — so a machine
// seed that wedges the test wedges this point identically and `fugusim
// inspect` can dissect it.
func runCRLStress(ops int, opt Options) crlStressPoint {
	const nodes, regions = 4, 3
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = nodes, 1
	cfg.Seed = opt.TrialSeed(0)
	opt.machineMut(nil)(&cfg)
	m := glaze.NewMachine(cfg)
	job := m.NewJob("stress")
	crls := make([]*crl.Node, nodes)
	eps := make([]*udm.EP, nodes)
	for i := 0; i < nodes; i++ {
		eps[i] = udm.Attach(job.Process(i))
		crls[i] = crl.New(eps[i], nodes)
	}
	done := udm.NewCounter()
	eps[0].On(900, func(e *udm.Env, msg *udm.Msg) { done.Add(1) })
	final := make([]uint64, regions)
	startNode := func(node int) func(*cpu.Task) {
		return func(tk *cpu.Task) {
			c := crls[node]
			rgs := make([]*crl.Region, regions)
			for r := 0; r < regions; r++ {
				if r%nodes == node {
					rgs[r] = c.Create(crl.RegionID(r), 4)
				}
			}
			tk.Spend(2000)
			for r := 0; r < regions; r++ {
				if rgs[r] == nil {
					rgs[r] = c.Map(crl.RegionID(r), 4)
				}
			}
			rng := m.Eng.Rand()
			for i := 0; i < ops; i++ {
				rg := rgs[(node+i)%regions]
				if rng.Intn(4) == 0 {
					c.StartRead(tk, rg)
					_ = rg.Read(0)
					c.EndRead(tk, rg)
				}
				c.StartWrite(tk, rg)
				rg.Write(0, rg.Read(0)+1)
				c.EndWrite(tk, rg)
				tk.Spend(uint64(rng.Intn(400)) + 20)
			}
			if node == 0 {
				done.WaitFor(tk, uint64(nodes-1))
				for r := 0; r < regions; r++ {
					c.StartRead(tk, rgs[r])
					final[r] = rgs[r].Read(0)
					c.EndRead(tk, rgs[r])
				}
			} else {
				eps[node].Env(tk).Inject(0, 900)
			}
		}
	}
	for node := 0; node < nodes; node++ {
		job.Process(node).StartMain(startNode(node))
	}
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(2_000_000_000, job)
	if job.Done() {
		// Settle window: trailing protocol traffic (a flush the final reads
		// pulled, a queued grant) may still be in flight when the last main
		// exits; give it time to land so span accounting reaches terminal
		// states before the span invariant checks.
		m.Eng.RunUntil(m.Eng.Now() + 20_000)
	}
	var total uint64
	for _, v := range final {
		total += v
	}
	return crlStressPoint{
		row: CRLStressRow{
			Ops:       ops,
			Completed: job.Done(),
			Total:     total,
			Expected:  uint64(nodes * ops),
			Cycles:    m.Eng.Now(),
		},
		// FinishTelemetry first, so the closing interval and the snapshot
		// read the same state.
		Observation: Observation{Timeline: m.FinishTelemetry(), Metrics: m.MetricsSnapshot()},
	}
}
