package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"fugu/internal/faultinject"
	"fugu/internal/metrics"
	"fugu/internal/niq"
	"fugu/internal/plot"
	"fugu/internal/telemetry"
)

// The buffer lab is the economics experiment behind the InputQueue seam:
// the crucible's all-to-all workload run once per (queue model, allocation
// policy, fault plan) at equal total NI slots, with every crucible and
// timeline oracle still enforced. Where the policy lab compares rival
// *delivery* organizations, the buffer lab holds delivery fixed (two-case by
// default) and asks what the same receive SRAM buys under each buffer
// organization: overflow (refusal) rate, time spent in kernel-buffered mode,
// and tail latency per pinned slot.

// bufferlabSlots is the total NI pool every spec runs at — the comparison is
// meaningful only at equal SRAM. 16 (the default hardware depth) is where all
// three (R, B) splits differ for 8 sources: static pins 2 per source with
// nothing shared, hybrid reserves 1 and pools 8, demand pools all 16 — and
// the lab's convergent bursts (7 senders x 4 back-to-back sends at one
// destination) oversubscribe it roughly 2:1, so refusal behaviour separates
// the organizations.
const bufferlabSlots = 16

// bufferlabLoad is the hot-spot offered load from the DAMQ literature:
// every node fires 4-message bursts at one shared rotating destination, so
// the victim NI absorbs the whole machine's burst while its own drain rate
// decides how much of it bounces.
var bufferlabLoad = crucibleLoad{burst: 4, converge: true}

// bufferlabSpecs enumerates the sweep's queue configurations: the static
// FIFO baseline plus both multi-queue models under each allocation policy,
// all at bufferlabSlots.
func bufferlabSpecs() []niq.Spec {
	specs := []niq.Spec{{Model: niq.ModelFIFO, Policy: niq.PolicyStatic, Slots: bufferlabSlots}}
	for _, model := range []string{niq.ModelDAMQ, niq.ModelReserve} {
		for _, policy := range niq.Policies() {
			specs = append(specs, niq.Spec{Model: model, Policy: policy, Slots: bufferlabSlots})
		}
	}
	return specs
}

// bufferlabPlans are the adversity schedules the lab sweeps: the clean
// baseline, the PR 5 network plans paired with the receive-side pressure the
// policy lab uses (mismatch storms head-of-line-block a FIFO straight into
// divert mode, which is exactly the failure the multi-queue models attack),
// and the frame-starvation plan that drives overflow control.
func bufferlabPlans() []cruciblePlan {
	w := func(s faultinject.FaultSpec) faultinject.FaultSpec {
		s.From, s.Until, s.Node = crucibleFaultsStart, crucibleFaultsLift, faultinject.AllNodes
		return s
	}
	// The mismatch trickle is deliberately light: a storm would pin every
	// node in divert mode (where all organizations drain identically through
	// the kernel), but a trickle lands the occasional mismatched packet at
	// the front of a convergent burst — exactly the head-of-line block that
	// separates strict-FIFO presentation from the multi-queue bypass.
	pressure := func(p *faultinject.Plan) {
		p.Arm(faultinject.GIDMismatch, w(faultinject.FaultSpec{Prob: 0.1}))
		p.Arm(faultinject.QuantumExpiry, w(faultinject.FaultSpec{Prob: 0.05, Cycles: 2_000}))
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
		{"starve", func(p *faultinject.Plan) {
			p.Arm(faultinject.FrameStarvation, w(faultinject.FaultSpec{Cycles: 1 << 16}))
			p.Arm(faultinject.GIDMismatch, w(faultinject.FaultSpec{Prob: 0.2}))
		}},
	}
}

// BufferLabRow is one (queue spec, plan, trial) run's outcome.
type BufferLabRow struct {
	Model     string
	Policy    string
	Slots     int
	Plan      string
	Trial     int
	Completed bool
	Cycles    uint64

	// Arrived and Refused are NI admission events summed over nodes;
	// OverflowRate is Refused / (Arrived + Refused) — the fraction of
	// delivery offers the queue organization pushed back into the network.
	Arrived      uint64
	Refused      uint64
	OverflowRate float64

	Fast     uint64
	Buffered uint64
	FastPct  float64 // Fast / (Fast + Buffered) * 100

	// Residency is the fraction of flight-recorder intervals with any node
	// in kernel-buffered mode (the 'b'/'B' glyphs), over the whole run.
	Residency float64

	// P99 delivery latency (injection to disposal) per path, and the
	// headline economics number: overall p99 per pinned slot.
	P99Fast    uint64
	P99Buf     uint64
	P99PerSlot float64

	// Steals counts shared-pool slots taken beyond a source's reserve;
	// Bypasses counts fast-path pops that jumped a mismatched front packet.
	// Both are zero for the static FIFO.
	Steals   uint64
	Bypasses uint64

	// Problems carries the crucible + timeline oracle violations.
	Problems []string
}

// BufferLabResult is the structured outcome of the buffer-economics sweep.
type BufferLabResult struct {
	Rows  []BufferLabRow
	snaps []metrics.Snapshot
}

// Problems flattens every row's oracle violations, prefixed by the run.
func (r BufferLabResult) Problems() []string {
	var out []string
	for _, row := range r.Rows {
		for _, p := range row.Problems {
			out = append(out, fmt.Sprintf("%s:%s/%s trial=%d: %s",
				row.Model, row.Policy, row.Plan, row.Trial, p))
		}
	}
	return out
}

// Dominance aggregates refusals across every plan and trial per queue spec
// and reports whether at least one shared organization strictly beats the
// static FIFO on overflow rate at the same slot count — the economics claim
// the sweep exists to test. ok is false when the FIFO never refused (the
// workload was not scarce enough to compare) or no shared spec won.
func (r BufferLabResult) Dominance() (fifoRate float64, bestSpec string, bestRate float64, ok bool) {
	type agg struct{ arrived, refused uint64 }
	sums := map[string]*agg{}
	order := []string{}
	for _, row := range r.Rows {
		key := row.Model + ":" + row.Policy
		a := sums[key]
		if a == nil {
			a = &agg{}
			sums[key] = a
			order = append(order, key)
		}
		a.arrived += row.Arrived
		a.refused += row.Refused
	}
	rate := func(a *agg) float64 {
		if a.arrived+a.refused == 0 {
			return 0
		}
		return float64(a.refused) / float64(a.arrived+a.refused)
	}
	fifo := sums["fifo:static"]
	if fifo == nil || fifo.refused == 0 {
		return 0, "", 0, false
	}
	fifoRate = rate(fifo)
	bestSpec, bestRate = "", fifoRate
	for _, key := range order {
		if key == "fifo:static" {
			continue
		}
		if rr := rate(sums[key]); bestSpec == "" || rr < bestRate {
			bestSpec, bestRate = key, rr
		}
	}
	return fifoRate, bestSpec, bestRate, bestSpec != "" && bestRate < fifoRate
}

// Print renders the economics table grouped by plan, then the dominance
// verdict and any oracle violations.
func (r BufferLabResult) Print(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		status := "ok"
		if !row.Completed {
			status = "WEDGED"
		} else if len(row.Problems) > 0 {
			status = "ORACLE FAIL"
		}
		rows = append(rows, []string{
			row.Plan, row.Model + ":" + row.Policy, status,
			fmt.Sprintf("%.2f%%", row.OverflowRate*100),
			fmt.Sprintf("%.1f%%", row.FastPct),
			fmt.Sprintf("%.0f%%", row.Residency*100),
			u(row.P99Fast), u(row.P99Buf),
			u(row.Steals), u(row.Bypasses), u(row.Cycles),
		})
	}
	fmt.Fprintf(w, "Buffer lab: NI queue organizations at equal SRAM (%d slots, 8 nodes, all-to-all, oracles enforced)\n", bufferlabSlots)
	fmt.Fprintln(w, plot.Table([]string{
		"plan", "queue", "status", "ovfl%", "fast%", "resid", "p99.fast", "p99.buf",
		"steals", "bypass", "cycles",
	}, rows))
	if fifoRate, best, bestRate, ok := r.Dominance(); ok {
		fmt.Fprintf(w, "dominance: %s overflow %.2f%% < fifo:static %.2f%% at %d slots\n",
			best, bestRate*100, fifoRate*100, bufferlabSlots)
	} else {
		fmt.Fprintln(w, "dominance: NO shared organization beat the static FIFO on overflow rate")
	}
	if problems := r.Problems(); len(problems) > 0 {
		fmt.Fprintf(w, "\n%d oracle violation(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(w, " ", p)
		}
	} else {
		fmt.Fprintln(w, "all delivery oracles passed under every queue organization")
	}
}

// CSVFiles renders the sweep as bufferlab.csv.
func (r BufferLabResult) CSVFiles() map[string]string {
	var b strings.Builder
	b.WriteString("model,policy,slots,plan,trial,completed,cycles,arrived,refused," +
		"overflow_rate,fast,buffered,fast_pct,residency,p99_fast,p99_buf," +
		"p99_per_slot,steals,bypasses,problems\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%d,%v,%d,%d,%d,%.4f,%d,%d,%.2f,%.3f,%d,%d,%.1f,%d,%d,%d\n",
			row.Model, row.Policy, row.Slots, row.Plan, row.Trial, row.Completed,
			row.Cycles, row.Arrived, row.Refused, row.OverflowRate,
			row.Fast, row.Buffered, row.FastPct, row.Residency,
			row.P99Fast, row.P99Buf, row.P99PerSlot, row.Steals, row.Bypasses,
			len(row.Problems))
	}
	return map[string]string{"bufferlab.csv": b.String()}
}

// bufferLabPoint carries one row plus its machine snapshot.
type bufferLabPoint struct {
	row  BufferLabRow
	snap metrics.Snapshot
}

// MetricsSnapshot implements MetricsCarrier for the Runner's metrics hook.
func (p bufferLabPoint) MetricsSnapshot() metrics.Snapshot { return p.snap }

// BufferLab runs the buffer-economics sweep.
func BufferLab(opts ...Option) (BufferLabResult, error) {
	return runAs[BufferLabResult]("bufferlab", opts...)
}

// bufferLabExperiment fans out one point per (queue spec, plan, trial). The
// workload and oracles are the crucible's; only the queue organization and
// the reported axes differ.
func bufferLabExperiment() *Experiment {
	return &Experiment{
		Name:        "bufferlab",
		Description: "NI input-queue economics: FIFO vs DAMQ vs reserve-plus-borrow at equal slots",
		Points: func(opt Options) []Point {
			specs := bufferlabSpecs()
			plans := bufferlabPlans()
			pts := make([]Point, 0, len(specs)*len(plans)*opt.trials())
			for _, spec := range specs {
				for _, pl := range plans {
					for trial := 0; trial < opt.trials(); trial++ {
						spec, pl, trial := spec, pl, trial
						pts = append(pts, Point{
							Label: fmt.Sprintf("%s %s trial=%d", spec.Name(), pl.name, trial),
							Run: func(_ context.Context, opt Options) (any, error) {
								return runBufferLab(spec, pl, trial, opt), nil
							},
						})
					}
				}
			}
			return pts
		},
		Assemble: func(_ Options, results []any) (Result, error) {
			res := BufferLabResult{
				Rows:  make([]BufferLabRow, len(results)),
				snaps: make([]metrics.Snapshot, len(results)),
			}
			for i, r := range results {
				p := r.(bufferLabPoint)
				res.Rows[i] = p.row
				res.snaps[i] = p.snap
			}
			return res, nil
		},
		Verdict: bufferlabVerdict,
	}
}

// bufferlabVerdict fails the sweep on any oracle violation and unless a
// shared organization strictly beat the static FIFO on overflow rate.
func bufferlabVerdict(res Result) []string {
	r := res.(BufferLabResult)
	out := r.Problems()
	if _, _, _, ok := r.Dominance(); !ok {
		out = append(out, "no shared queue organization dominated the static FIFO on overflow rate")
	}
	return out
}

// runBufferLab executes one (queue spec, plan, trial) run through the
// crucible workload and distills the buffer-economics axes.
func runBufferLab(spec niq.Spec, pl cruciblePlan, trial int, opt Options) bufferLabPoint {
	opt.Queue = spec
	pt := runCrucibleLoad(pl, trial, opt, bufferlabLoad)
	snap := pt.snap
	norm := spec.Normalize()

	row := BufferLabRow{
		Model:     norm.Model,
		Policy:    norm.Policy,
		Slots:     norm.Slots,
		Plan:      pl.name,
		Trial:     trial,
		Completed: pt.row.Completed,
		Cycles:    pt.row.Cycles,
		Arrived:   snap.Counters["nic.arrived"],
		Refused:   snap.Counters["nic.refused"],
		Fast:      pt.row.Fast,
		Buffered:  pt.row.Buffered,
		Residency: bufferedResidency(pt.timeline),
		Steals:    snap.Counters["niq.steals"],
		Bypasses:  snap.Counters["niq.bypass"],
		Problems:  pt.row.Problems,
	}
	if offered := row.Arrived + row.Refused; offered > 0 {
		row.OverflowRate = float64(row.Refused) / float64(offered)
	}
	if total := row.Fast + row.Buffered; total > 0 {
		row.FastPct = 100 * float64(row.Fast) / float64(total)
	}
	hf := snap.Histograms["glaze.deliver.latency.fast"]
	hb := snap.Histograms["glaze.deliver.latency.buffered"]
	row.P99Fast = histP99(hf)
	row.P99Buf = histP99(hb)
	if row.Slots > 0 {
		row.P99PerSlot = float64(max(row.P99Fast, row.P99Buf)) / float64(row.Slots)
	}
	return bufferLabPoint{row: row, snap: snap}
}

// bufferedResidency is the fraction of flight-recorder intervals in which
// any node sat in kernel-buffered mode, over the whole run.
func bufferedResidency(tl telemetry.Timeline) float64 {
	if len(tl.Intervals) == 0 {
		return 0
	}
	buffered := 0
	for _, iv := range tl.Intervals {
		if strings.ContainsAny(iv.Modes, "bB") {
			buffered++
		}
	}
	return float64(buffered) / float64(len(tl.Intervals))
}

// histP99 estimates the 99th percentile of an exported log2-bucket
// histogram: the upper bound of the bucket where the cumulative count
// crosses 99% (the same estimate the telemetry quantiles use).
func histP99(h metrics.HistogramValue) uint64 {
	if h.Count == 0 {
		return 0
	}
	need := h.Count - h.Count/100 // ceil semantics: rank of the p99 sample
	var cum uint64
	for _, bk := range h.Buckets {
		cum += bk.Count
		if cum >= need {
			if bk.Le > h.Max {
				return h.Max
			}
			return bk.Le
		}
	}
	return h.Max
}
