package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/niq"
	"fugu/internal/plot"
	"fugu/internal/telemetry"
)

// The lab matrix runs the crucible workload over delivery policy × NI input
// queue × fault plan × trial, with every delivery and timeline oracle
// enforced on every run. Three presets make up the labs:
//
//   - crucible asks whether two-case delivery survives every adversity: its
//     plans force each second-case cause, and it claims every cause the
//     delivery policy can express was forced.
//   - policylab compares rival receive-side organizations (two-case,
//     zero-copy remapping, a bypass ring) on fast-path fraction, delivery
//     latency, pinned pages and overflow/backpressure events.
//   - bufferlab holds delivery fixed and asks what the same receive SRAM
//     buys under each NI queue organization: it claims a shared
//     organization beats the static FIFO on overflow rate.

// labPreset is one named lab: its plans and load shape, the axes it sweeps
// and the claims its verdict makes.
type labPreset struct {
	name, description string
	// title heads the printed table.
	title string
	plans func() []cruciblePlan
	load  crucibleLoad
	// policies (delivery-policy names) and queues are the preset's swept
	// axes; nil runs the machine default (see policyAxis and queueAxis).
	policies []string
	queues   []niq.Spec
	// coverage claims every second-case cause each policy can express was
	// forced; dominance claims a shared queue organization beat the static
	// FIFO on overflow rate.
	coverage, dominance bool
}

var (
	cruciblePreset = &labPreset{
		name:        "crucible",
		description: "fault-plan sweep with delivery oracles; forces every second-case cause",
		title:       "Crucible: fault plans x seeds under delivery oracles (8 nodes, all-to-all)",
		plans:       cruciblePlans,
		load:        crucibleLoad{burst: 1},
		coverage:    true,
	}
	policylabPreset = &labPreset{
		name:        "policylab",
		description: "delivery policies head-to-head: fast-path %, latency, pinned pages, overflow",
		title:       "Policy lab: delivery policies head-to-head (8 nodes, all-to-all, oracles enforced)",
		plans:       policylabPlans,
		load:        crucibleLoad{burst: 1},
		policies:    delivery.Names(),
	}
	bufferlabPreset = &labPreset{
		name:        "bufferlab",
		description: "NI input-queue economics: FIFO vs DAMQ vs reserve-plus-borrow at equal slots",
		title: fmt.Sprintf("Buffer lab: NI queue organizations at equal SRAM "+
			"(%d slots, 8 nodes, all-to-all, oracles enforced)", bufferlabSlots),
		plans:     bufferlabPlans,
		load:      bufferlabLoad,
		queues:    bufferlabSpecs(),
		dominance: true,
	}
)

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
// baseline, the policy lab's network plans paired with a lighter
// receive-side pressure (mismatch storms head-of-line-block a FIFO straight into
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

// policyAxis is the delivery-policy axis: the run's -policy if set, else
// the preset's list, else the machine default (nil).
func (p *labPreset) policyAxis(opt Options) []delivery.Policy {
	if opt.Policy != nil || p.policies == nil {
		return []delivery.Policy{opt.Policy}
	}
	out := make([]delivery.Policy, len(p.policies))
	for i, name := range p.policies {
		pol, err := delivery.ByName(name)
		if err != nil {
			panic(err) // presets list registered policies only
		}
		out[i] = pol
	}
	return out
}

// queueAxis is the input-queue axis: the run's -niq if set, else the
// preset's list, else the machine default (the zero spec).
func (p *labPreset) queueAxis(opt Options) []niq.Spec {
	if opt.Queue.Model != "" || p.queues == nil {
		return []niq.Spec{opt.Queue}
	}
	return p.queues
}

// label names a point — and the row it produces — as `-list` shows and
// `-point` replays: the preset's swept axes, then the plan and trial.
func (p *labPreset) label(policy, queue, plan string, trial int) string {
	s := fmt.Sprintf("%s trial=%d", plan, trial)
	if p.queues != nil {
		s = queue + " " + s
	}
	if p.policies != nil {
		s = policy + " " + s
	}
	return s
}

// labExperiment fans a preset out into one point per (policy, queue, plan,
// trial).
func labExperiment(p *labPreset) *Experiment {
	return &Experiment{
		Name:        p.name,
		Description: p.description,
		Points: func(opt Options) []Point {
			var pts []Point
			for _, pol := range p.policyAxis(opt) {
				polName := ""
				if pol != nil {
					polName = pol.Name()
				}
				for _, q := range p.queueAxis(opt) {
					for _, pl := range p.plans() {
						for trial := 0; trial < opt.trials(); trial++ {
							pts = append(pts, Point{
								Label: p.label(polName, q.Name(), pl.name, trial),
								Run: func(_ context.Context, opt Options) (any, error) {
									opt.Policy, opt.Queue = pol, q
									return runLab(pl, trial, opt, p.load), nil
								},
							})
						}
					}
				}
			}
			return pts
		},
		Assemble: func(_ Options, results []any) (Result, error) {
			res := LabResult{Rows: make([]LabRow, len(results)), preset: p}
			for i, r := range results {
				res.Rows[i] = r.(labPoint).row
			}
			return res, nil
		},
		Verdict: labVerdict,
	}
}

// Crucible runs the fault-plan sweep.
func Crucible(opts ...Option) (LabResult, error) { return runAs[LabResult]("crucible", opts...) }

// PolicyLab runs the delivery-policy comparison sweep.
func PolicyLab(opts ...Option) (LabResult, error) { return runAs[LabResult]("policylab", opts...) }

// LabRow is one (policy, queue, plan, trial) run's outcome.
type LabRow struct {
	// Policy is the delivery policy; KernelBuffered mirrors its
	// Policy.KernelBuffered() and decides which causes it can be forced
	// into (see requiredCauses).
	Policy         string
	KernelBuffered bool
	// Queue names the NI input-queue organization ("model:policy", e.g.
	// "damq:demand"); Slots is its total pool in messages.
	Queue     string
	Slots     int
	Plan      string
	Trial     int
	Seed      uint64 // machine seed (the plan's PCG seed derives from it)
	Completed bool
	Cycles    uint64

	Fast     uint64  // fast-path deliveries (hardware demux counts as fast)
	Buffered uint64  // second-case deliveries through the policy's store
	FastPct  float64 // Fast / (Fast + Buffered) * 100

	// Arrived and Refused are NI admission events summed over nodes;
	// OverflowRate is Refused / (Arrived + Refused) — the fraction of
	// delivery offers the queue organization pushed back into the network.
	Arrived, Refused uint64
	OverflowRate     float64

	// Residency is the fraction of flight-recorder intervals with any node
	// in kernel-buffered mode (the 'b'/'B' glyphs), over the whole run.
	Residency float64

	// Delivery latency (injection to disposal) per path, from the per-path
	// histograms: means, the overall maximum, p99s capped at the path's
	// maximum, and the buffer economics headline — overall p99 per pinned
	// slot.
	LatFastMean, LatBufMean float64
	LatMax                  uint64
	P99Fast, P99Buf         uint64
	P99PerSlot              float64

	// PagesHighWater is the worst single node's physical pages pinned by the
	// policy's store (ring pages, remap-pinned pages, or buffer pages).
	PagesHighWater int64
	// VMAllocs counts demand allocations (two-case) or copy fallbacks
	// (zero-copy) on the insert path.
	VMAllocs uint64
	// OverflowTrips counts software overflow-control activations; Nacks
	// counts NI-level refusals (ring-full or protocol backpressure).
	OverflowTrips, Nacks uint64
	// Steals counts shared-pool slots taken beyond a source's reserve;
	// Bypasses counts fast-path pops that jumped a mismatched front packet.
	// Both are zero for the static FIFO.
	Steals, Bypasses uint64
	// Revocations and FaultsInHandler count the kernel taking the atomicity
	// and in-handler fault transitions (see forced).
	Revocations, FaultsInHandler uint64
	// Injected counts the fault injector's firings per kind.
	Injected [faultinject.NumKinds]uint64

	// Problems lists delivery- and timeline-oracle violations; empty on a
	// healthy run.
	Problems []string
}

// labPoint carries one row plus the machine's metrics snapshot and
// flight-recorder timeline.
type labPoint struct {
	row LabRow
	Observation
}

// runLab runs one matrix point through the crucible workload and fills the
// row's measured fields from the run's metrics snapshot and timeline.
func runLab(pl cruciblePlan, trial int, opt Options, load crucibleLoad) labPoint {
	pt := runCrucibleLoad(pl, trial, opt, load)
	row, snap := &pt.row, pt.Metrics
	c := snap.Counters
	row.Fast, row.Buffered = c["glaze.deliver.fast"], c["glaze.deliver.buffered"]
	if total := row.Fast + row.Buffered; total > 0 {
		row.FastPct = 100 * float64(row.Fast) / float64(total)
	}
	row.Arrived, row.Refused = c["nic.arrived"], c["nic.refused"]
	if offered := row.Arrived + row.Refused; offered > 0 {
		row.OverflowRate = float64(row.Refused) / float64(offered)
	}
	row.Residency = bufferedResidency(pt.Timeline)
	hf := snap.Histograms["glaze.deliver.latency.fast"]
	hb := snap.Histograms["glaze.deliver.latency.buffered"]
	row.LatFastMean, row.LatBufMean, row.LatMax = hf.Mean(), hb.Mean(), max(hf.Max, hb.Max)
	row.P99Fast, row.P99Buf = hf.Quantile(99), hb.Quantile(99)
	row.P99PerSlot = float64(max(row.P99Fast, row.P99Buf)) / float64(row.Slots)
	row.PagesHighWater = snap.Gauges["glaze.buffer.pages"].Max
	row.VMAllocs = c["glaze.buffer.insert_vmallocs"]
	row.OverflowTrips, row.Nacks = c["glaze.overflow.trips"], c["nic.nacked"]
	row.Steals, row.Bypasses = c["niq.steals"], c["niq.bypass"]
	row.Revocations, row.FaultsInHandler = c["glaze.revocations"], c["glaze.faults_in_handler"]
	return pt
}

// LabResult is the structured outcome of one lab preset's sweep.
type LabResult struct {
	Rows   []LabRow
	preset *labPreset
}

// Problems flattens every row's oracle violations, prefixed by the row's
// point label.
func (r LabResult) Problems() []string {
	var out []string
	for _, row := range r.Rows {
		for _, p := range row.Problems {
			out = append(out, r.preset.label(row.Policy, row.Queue, row.Plan, row.Trial)+": "+p)
		}
	}
	return out
}

// requiredCauses lists the second-case causes a sweep must force under a
// delivery policy. A policy with no kernel-buffered mode (hardware demux
// into protected rings) structurally cannot revoke atomicity or trip
// software-buffer overflow control — those causes are absent by design, not
// missed by the sweep.
func requiredCauses(kernelBuffered bool) []string {
	if kernelBuffered {
		return CrucibleCauses
	}
	out := make([]string, 0, len(CrucibleCauses))
	for _, c := range CrucibleCauses {
		if c != "atomicity-timeout" && c != "buffer-overflow" {
			out = append(out, c)
		}
	}
	return out
}

// forced reports which second-case causes the run forced: the fault fired
// and, where the kernel must take the transition, its counter moved.
func (row LabRow) forced() map[string]bool {
	inj := row.Injected
	return map[string]bool{
		"gid-mismatch":      inj[faultinject.GIDMismatch] > 0,
		"atomicity-timeout": inj[faultinject.AtomicityTimeout] > 0 && row.Revocations > 0,
		"handler-fault":     inj[faultinject.HandlerPageFault] > 0 && row.FaultsInHandler > 0,
		"quantum-expiry":    inj[faultinject.QuantumExpiry] > 0,
		"buffer-overflow":   inj[faultinject.FrameStarvation] > 0 && row.OverflowTrips > 0,
	}
}

// CauseCoverage is one delivery policy's share of the crucible's claim: the
// causes the policy can express and which of them some run forced.
type CauseCoverage struct {
	Policy   string
	Required []string
	Forced   map[string]bool
}

// CauseCoverage reports cause coverage per delivery policy, in row order.
func (r LabResult) CauseCoverage() []CauseCoverage {
	var out []CauseCoverage
	at := map[string]int{}
	for _, row := range r.Rows {
		i, ok := at[row.Policy]
		if !ok {
			i = len(out)
			at[row.Policy] = i
			out = append(out, CauseCoverage{
				Policy: row.Policy, Required: requiredCauses(row.KernelBuffered), Forced: map[string]bool{},
			})
		}
		for cause, hit := range row.forced() {
			if hit {
				out[i].Forced[cause] = true
			}
		}
	}
	return out
}

// dominanceUntested returns why the sweep cannot test the dominance claim,
// or "" when it can. The claim compares shared organizations against the
// static FIFO, so a queue axis narrowed (by -niq) to leave out either side
// has nothing to compare.
func (r LabResult) dominanceUntested() string {
	fifo, shared := false, false
	for _, row := range r.Rows {
		if row.Queue == "fifo:static" {
			fifo = true
		} else {
			shared = true
		}
	}
	switch {
	case !fifo:
		return "the queue axis does not include fifo:static"
	case !shared:
		return "the queue axis includes no organization but fifo:static"
	}
	return ""
}

// Dominance aggregates refusals across every plan and trial per queue
// organization and reports whether at least one shared organization strictly
// beats the static FIFO on overflow rate at the same slot count — the
// economics claim the buffer lab exists to test. ok is false when the FIFO
// never refused (the workload was not scarce enough to compare) or no shared
// organization won, and also when the sweep left out either side (see
// dominanceUntested).
func (r LabResult) Dominance() (fifoRate float64, bestSpec string, bestRate float64, ok bool) {
	type agg struct{ arrived, refused uint64 }
	sums := map[string]*agg{}
	var order []string
	for _, row := range r.Rows {
		if sums[row.Queue] == nil {
			sums[row.Queue] = &agg{}
			order = append(order, row.Queue)
		}
		sums[row.Queue].arrived += row.Arrived
		sums[row.Queue].refused += row.Refused
	}
	rate := func(a *agg) float64 { return float64(a.refused) / float64(max(1, a.arrived+a.refused)) }
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

// labVerdict fails the sweep on any oracle violation and on any claim the
// preset makes that the sweep did not demonstrate.
func labVerdict(res Result) []string {
	r := res.(LabResult)
	out := r.Problems()
	if r.preset.coverage {
		for _, cov := range r.CauseCoverage() {
			for _, cause := range cov.Required {
				if !cov.Forced[cause] {
					out = append(out, fmt.Sprintf("cause %q never forced under policy %s", cause, cov.Policy))
				}
			}
		}
	}
	if r.preset.dominance && r.dominanceUntested() == "" {
		if _, _, _, ok := r.Dominance(); !ok {
			out = append(out, "no shared queue organization dominated the static FIFO on overflow rate")
		}
	}
	return out
}

// Print renders the sweep table, the preset's claim lines and any oracle
// violations.
func (r LabResult) Print(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		status := "ok"
		if !row.Completed {
			status = "WEDGED"
		} else if len(row.Problems) > 0 {
			status = "ORACLE FAIL"
		}
		var inj uint64
		for _, c := range row.Injected {
			inj += c
		}
		rows = append(rows, []string{
			row.Plan, row.Policy, row.Queue, fmt.Sprint(row.Trial), status,
			u(row.Fast), u(row.Buffered), fmt.Sprintf("%.1f%%", row.FastPct), u(inj),
			fmt.Sprintf("%.2f%%", row.OverflowRate*100), fmt.Sprintf("%.0f%%", row.Residency*100),
			f1(row.LatFastMean), f1(row.LatBufMean), u(row.P99Fast), u(row.P99Buf),
			fmt.Sprint(row.PagesHighWater), u(row.OverflowTrips), u(row.Nacks), u(row.VMAllocs),
			u(row.Steals), u(row.Bypasses), u(row.Cycles),
		})
	}
	fmt.Fprintln(w, r.preset.title)
	fmt.Fprintln(w, plot.Table([]string{
		"plan", "policy", "queue", "trial", "status", "fast", "buffered", "fast%", "injected",
		"ovfl%", "resid", "lat.fast", "lat.buf", "p99.fast", "p99.buf",
		"pages.hw", "trips", "nacks", "vmallocs", "steals", "bypass", "cycles",
	}, rows))
	if r.preset.coverage {
		for _, cov := range r.CauseCoverage() {
			line := "cause coverage under " + cov.Policy + ":"
			for _, c := range cov.Required {
				line += " " + c + "=" + map[bool]string{true: "forced", false: "MISSING"}[cov.Forced[c]]
			}
			fmt.Fprintln(w, line)
		}
	}
	if r.preset.dominance {
		if why := r.dominanceUntested(); why != "" {
			fmt.Fprintln(w, "dominance: not evaluated:", why)
		} else if fifoRate, best, bestRate, ok := r.Dominance(); ok {
			fmt.Fprintf(w, "dominance: %s overflow %.2f%% < fifo:static %.2f%% at %d slots\n",
				best, bestRate*100, fifoRate*100, bufferlabSlots)
		} else {
			fmt.Fprintln(w, "dominance: NO shared organization beat the static FIFO on overflow rate")
		}
	}
	if problems := r.Problems(); len(problems) > 0 {
		fmt.Fprintf(w, "\n%d oracle violation(s):\n", len(problems))
		for _, p := range problems {
			fmt.Fprintln(w, " ", p)
		}
	} else {
		fmt.Fprintln(w, "all delivery oracles passed")
	}
}

// CSVFiles renders the sweep as <preset>.csv, one schema for every preset.
func (r LabResult) CSVFiles() map[string]string {
	var b strings.Builder
	b.WriteString("policy,queue,slots,plan,trial,seed,completed,cycles,fast,buffered,fast_pct," +
		"arrived,refused,overflow_rate,residency,lat_fast_mean,lat_buf_mean,lat_max," +
		"p99_fast,p99_buf,p99_per_slot,pages_high_water,vmallocs,overflow_trips,nacks," +
		"steals,bypasses")
	for k := faultinject.Kind(0); k < faultinject.NumKinds; k++ {
		b.WriteString(",inj_" + strings.ReplaceAll(k.String(), "-", "_"))
	}
	b.WriteString(",problems\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%d,%s,%d,%d,%v,%d,%d,%d,%.2f,%d,%d,%.4f,%.3f,%.1f,%.1f,%d,"+
			"%d,%d,%.1f,%d,%d,%d,%d,%d,%d",
			row.Policy, row.Queue, row.Slots, row.Plan, row.Trial, row.Seed, row.Completed,
			row.Cycles, row.Fast, row.Buffered, row.FastPct,
			row.Arrived, row.Refused, row.OverflowRate, row.Residency,
			row.LatFastMean, row.LatBufMean, row.LatMax,
			row.P99Fast, row.P99Buf, row.P99PerSlot, row.PagesHighWater, row.VMAllocs,
			row.OverflowTrips, row.Nacks, row.Steals, row.Bypasses)
		for _, c := range row.Injected {
			fmt.Fprintf(&b, ",%d", c)
		}
		fmt.Fprintf(&b, ",%d\n", len(row.Problems))
	}
	return map[string]string{r.preset.name + ".csv": b.String()}
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
