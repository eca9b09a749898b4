package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/metrics"
	"fugu/internal/plot"
)

// The policy lab is the head-to-head experiment behind the DeliveryPolicy
// seam: the same all-to-all microbenchmark the crucible uses, run once per
// (policy, network-fault plan) pair, with every delivery oracle still
// enforced. Where the crucible asks "does two-case delivery survive every
// adversity", the lab asks "how do rival receive-side organizations compare
// on the axes the paper cares about" — fast-path fraction, delivery latency,
// physical pages pinned for buffering, and overflow/backpressure events.

// policylabPlans are the adversity schedules the lab sweeps. "none" is the
// clean fast-path baseline. The hot-spot and link-stall plans pair network
// congestion with receive-side pressure (mismatch storms and mid-handler
// quantum expiries) so every policy's weak point engages: the two-case
// buffer grows and pays insert costs, zero-copy pins pages per message, and
// the statically partitioned bypass ring fills and pushes back with NACKs.
func policylabPlans() []cruciblePlan {
	w := func(s faultinject.FaultSpec) faultinject.FaultSpec {
		s.From, s.Until, s.Node = crucibleFaultsStart, crucibleFaultsLift, faultinject.AllNodes
		return s
	}
	pressure := func(p *faultinject.Plan) {
		p.Arm(faultinject.GIDMismatch, w(faultinject.FaultSpec{Prob: 0.5}))
		p.Arm(faultinject.QuantumExpiry, w(faultinject.FaultSpec{Prob: 0.15, Cycles: 2_000}))
	}
	return []cruciblePlan{
		{"none", func(p *faultinject.Plan) {}},
		{"hot-spot", func(p *faultinject.Plan) {
			p.Arm(faultinject.HotSpot, w(faultinject.FaultSpec{Prob: 0.4, Cycles: 300}))
			pressure(p)
		}},
		{"link-stall", func(p *faultinject.Plan) {
			p.Arm(faultinject.LinkStall, w(faultinject.FaultSpec{Prob: 0.4, Cycles: 300}))
			pressure(p)
		}},
	}
}

// PolicyLabRow is one (policy, plan, trial) run's comparison point.
type PolicyLabRow struct {
	Policy    string
	Plan      string
	Trial     int
	Completed bool
	Cycles    uint64

	Fast     uint64  // fast-path deliveries (hardware demux counts as fast)
	Buffered uint64  // second-case deliveries through the policy's store
	FastPct  float64 // Fast / (Fast + Buffered) * 100

	// Latency is injection-to-disposal, from the per-path histograms.
	LatFastMean float64
	LatBufMean  float64
	LatMax      uint64

	// PagesHighWater is the worst single node's physical pages pinned by the
	// policy's store (ring pages, remap-pinned pages, or buffer pages).
	PagesHighWater int64
	// VMAllocs counts demand allocations (two-case) or copy fallbacks
	// (zero-copy) on the insert path.
	VMAllocs uint64
	// OverflowTrips counts software overflow-control activations; Nacks
	// counts NI-level refusals (ring-full or protocol backpressure).
	OverflowTrips uint64
	Nacks         uint64

	// Problems carries the delivery-oracle violations, which the lab enforces
	// exactly as the crucible does.
	Problems []string
}

// PolicyLabResult is the structured outcome of the lab sweep.
type PolicyLabResult struct {
	Rows []PolicyLabRow
	// snaps holds each row's machine metrics snapshot for the metrics hook.
	snaps []metrics.Snapshot
}

// Problems flattens every row's oracle violations, prefixed by the run.
func (r PolicyLabResult) Problems() []string {
	var out []string
	for _, row := range r.Rows {
		for _, p := range row.Problems {
			out = append(out, fmt.Sprintf("%s/%s trial=%d: %s", row.Policy, row.Plan, row.Trial, p))
		}
	}
	return out
}

// Print renders the comparison table grouped by plan.
func (r PolicyLabResult) Print(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		status := "ok"
		if !row.Completed {
			status = "WEDGED"
		} else if len(row.Problems) > 0 {
			status = "ORACLE FAIL"
		}
		rows = append(rows, []string{
			row.Plan, row.Policy, status,
			fmt.Sprintf("%.1f%%", row.FastPct),
			f1(row.LatFastMean), f1(row.LatBufMean),
			fmt.Sprint(row.PagesHighWater),
			u(row.OverflowTrips), u(row.Nacks), u(row.VMAllocs),
			u(row.Cycles),
		})
	}
	fmt.Fprintln(w, "Policy lab: delivery policies head-to-head (8 nodes, all-to-all, oracles enforced)")
	fmt.Fprintln(w, plot.Table([]string{
		"plan", "policy", "status", "fast%", "lat.fast", "lat.buf",
		"pages.hw", "ovfl", "nacks", "vmallocs", "cycles",
	}, rows))
	if problems := r.Problems(); len(problems) > 0 {
		fmt.Fprintf(w, "\n%d oracle violation(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(w, " ", p)
		}
	} else {
		fmt.Fprintln(w, "all delivery oracles passed under every policy")
	}
}

// CSVFiles renders the sweep as policylab.csv.
func (r PolicyLabResult) CSVFiles() map[string]string {
	var b strings.Builder
	b.WriteString("policy,plan,trial,completed,cycles,fast,buffered,fast_pct," +
		"lat_fast_mean,lat_buf_mean,lat_max,pages_high_water,vmallocs," +
		"overflow_trips,nacks,problems\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%v,%d,%d,%d,%.2f,%.1f,%.1f,%d,%d,%d,%d,%d,%d\n",
			row.Policy, row.Plan, row.Trial, row.Completed, row.Cycles,
			row.Fast, row.Buffered, row.FastPct,
			row.LatFastMean, row.LatBufMean, row.LatMax,
			row.PagesHighWater, row.VMAllocs, row.OverflowTrips, row.Nacks,
			len(row.Problems))
	}
	return map[string]string{"policylab.csv": b.String()}
}

// policyLabPoint carries one row plus its machine snapshot.
type policyLabPoint struct {
	row  PolicyLabRow
	snap metrics.Snapshot
}

// MetricsSnapshot implements MetricsCarrier for the Runner's metrics hook.
func (p policyLabPoint) MetricsSnapshot() metrics.Snapshot { return p.snap }

// PolicyLab runs the delivery-policy comparison sweep.
func PolicyLab(opts ...Option) (PolicyLabResult, error) {
	return runAs[PolicyLabResult]("policylab", opts...)
}

// policyLabExperiment fans out one point per (policy, plan, trial). The
// workload and oracles are the crucible's; only the fault plans and the
// reported axes differ.
func policyLabExperiment() *Experiment {
	return &Experiment{
		Name:        "policylab",
		Description: "delivery policies head-to-head: fast-path %, latency, pinned pages, overflow",
		Points: func(opt Options) []Point {
			plans := policylabPlans()
			names := delivery.Names()
			pts := make([]Point, 0, len(names)*len(plans)*opt.trials())
			for _, polName := range names {
				for _, pl := range plans {
					for trial := 0; trial < opt.trials(); trial++ {
						polName, pl, trial := polName, pl, trial
						pts = append(pts, Point{
							Label: fmt.Sprintf("%s %s trial=%d", polName, pl.name, trial),
							Run: func(_ context.Context, opt Options) (any, error) {
								pol, err := delivery.ByName(polName)
								if err != nil {
									return nil, err
								}
								return runPolicyLab(pol, pl, trial, opt), nil
							},
						})
					}
				}
			}
			return pts
		},
		Assemble: func(_ Options, results []any) (Result, error) {
			res := PolicyLabResult{
				Rows:  make([]PolicyLabRow, len(results)),
				snaps: make([]metrics.Snapshot, len(results)),
			}
			for i, r := range results {
				p := r.(policyLabPoint)
				res.Rows[i] = p.row
				res.snaps[i] = p.snap
			}
			return res, nil
		},
		Verdict: func(res Result) []string { return res.(PolicyLabResult).Problems() },
	}
}

// runPolicyLab executes one (policy, plan, trial) run through the crucible
// workload and distills the comparison axes from its metrics snapshot.
func runPolicyLab(pol delivery.Policy, pl cruciblePlan, trial int, opt Options) policyLabPoint {
	opt.Policy = pol
	pt := runCrucible(pl, trial, opt)
	snap := pt.snap

	row := PolicyLabRow{
		Policy:    pol.Name(),
		Plan:      pl.name,
		Trial:     trial,
		Completed: pt.row.Completed,
		Cycles:    pt.row.Cycles,
		Fast:      pt.row.Fast,
		Buffered:  pt.row.Buffered,
		Problems:  pt.row.Problems,

		PagesHighWater: snap.Gauges["glaze.buffer.pages"].Max,
		VMAllocs:       snap.Counters["glaze.buffer.insert_vmallocs"],
		OverflowTrips:  snap.Counters["glaze.overflow.trips"],
		Nacks:          snap.Counters["nic.nacked"],
	}
	if total := row.Fast + row.Buffered; total > 0 {
		row.FastPct = 100 * float64(row.Fast) / float64(total)
	}
	hf := snap.Histograms["glaze.deliver.latency.fast"]
	hb := snap.Histograms["glaze.deliver.latency.buffered"]
	row.LatFastMean = hf.Mean()
	row.LatBufMean = hb.Mean()
	row.LatMax = max(hf.Max, hb.Max)
	return policyLabPoint{row: row, snap: snap}
}
