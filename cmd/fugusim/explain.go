package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"fugu/internal/harness"
	"fugu/internal/sim"
	"fugu/internal/spans"
)

// explainCmd implements `fugusim explain`: replay one sweep point with the
// message-lifecycle span recorder and the engine cost profiler installed,
// then render the latency anatomy — where a message's cycles go (the
// per-stage dwell waterfall with percentiles), which (policy, stage,
// cause) buckets dominate, which destination nodes and source→destination
// links run hot, the slowest messages with their full stage timelines, and
// which schedule sites the engine itself spends its time on. The dwell
// conservation invariant (per-stage dwells sum exactly to end-to-end
// latency) is checked along with the delivery invariants; a violation exits
// with status 1, so CI can replay a point and assert the anatomy holds.
func explainCmd(args []string) {
	r := newReplay("explain")
	topK := r.fs.Int("topk", 8, fmt.Sprintf("slowest messages to list with timelines (max %d)", spans.TopK))
	links := r.fs.Int("links", 8, "hottest src->dst links to list")
	out := r.fs.String("o", "-", "also write the report to this path (- means stdout only)")
	folded := r.fs.String("folded", "", "write the engine cost profile as folded stacks (flamegraph input) to this path")
	allocs := r.fs.Bool("allocs", false, "also attribute heap allocations per schedule site (slower)")
	name := r.parse(args)

	rec := spans.NewRecorder(nil)
	prof := sim.NewProfiler(sim.ProfilerConfig{Wall: true, Allocs: *allocs})
	p := r.run(name, []string{*out, *folded}, harness.WithSpans(rec), harness.WithProfiler(prof))

	problems := checkSpans(rec, p)
	var b strings.Builder
	fmt.Fprintf(&b, "explain: %s\n", p)
	fmt.Fprintf(&b, "%s\n\n", rec.Summary())
	writeWaterfall(&b, rec)
	writeAnatomy(&b, rec)
	writeHeat(&b, rec, *links)
	writeSlowest(&b, rec, *topK)
	fmt.Fprintf(&b, "engine cost profile (by schedule site)\n")
	prof.Snapshot().WriteTable(&b)
	for _, p := range problems {
		fmt.Fprintf(&b, "\nPROBLEM: %s\n", p)
	}
	writeOutput(*out, b.String(), true)
	if *folded != "" {
		var fb strings.Builder
		prof.Snapshot().WriteFolded(&fb)
		writeOutput(*folded, fb.String(), false)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "explain: %d invariant violation(s)\n", len(problems))
		os.Exit(1)
	}
}

// writeWaterfall renders the per-stage dwell waterfall: for each pipeline
// stage, the share of all terminal-span cycles dwelt there plus dwell
// percentiles over the spans that visited it.
func writeWaterfall(w io.Writer, rec *spans.Recorder) {
	totals := rec.StageDwellTotals()
	latency := rec.LatencyTotal()
	fmt.Fprintf(w, "stage-dwell waterfall (%d terminal spans, %d total latency cycles)\n",
		rec.Terminated(), latency)
	fmt.Fprintf(w, "  %-12s %14s %7s %10s %10s %10s %10s %10s\n",
		"stage", "cycles", "share", "visits", "p50", "p90", "p99", "max")
	for st := spans.Stage(0); st < spans.NumStages; st++ {
		h := rec.StageHist(st)
		share := 0.0
		if latency > 0 {
			share = 100 * float64(totals[st]) / float64(latency)
		}
		bar := strings.Repeat("#", int(share/5))
		fmt.Fprintf(w, "  %-12s %14d %6.1f%% %10d %10d %10d %10d %10d  %s\n",
			st, totals[st], share, h.Count,
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max, bar)
	}
	fmt.Fprintln(w)
}

// writeAnatomy renders the per-(policy, stage, cause) dwell breakdown.
func writeAnatomy(w io.Writer, rec *spans.Recorder) {
	rows := rec.Anatomy()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "dwell by (policy, stage, cause)\n")
	fmt.Fprintf(w, "  %-10s %-12s %-14s %10s %14s %10s %10s %10s %10s\n",
		"policy", "stage", "cause", "count", "cycles", "p50", "p90", "p99", "max")
	for _, r := range rows {
		cause := r.Cause
		if cause == "" {
			cause = "-"
		}
		fmt.Fprintf(w, "  %-10s %-12s %-14s %10d %14d %10d %10d %10d %10d\n",
			r.Policy, r.Stage, cause, r.Count, r.Sum, r.P50, r.P90, r.P99, r.Max)
	}
	fmt.Fprintln(w)
}

// writeHeat renders the per-destination-node dwell table and the hottest
// src->dst links by summed end-to-end latency.
func writeHeat(w io.Writer, rec *spans.Recorder, nLinks int) {
	nodes := rec.NodeHeats()
	if len(nodes) > 0 {
		fmt.Fprintf(w, "destination-node heat (dwell cycles by stage)\n")
		fmt.Fprintf(w, "  %-6s %8s", "node", "msgs")
		for st := spans.Stage(0); st < spans.NumStages; st++ {
			fmt.Fprintf(w, " %12s", st)
		}
		fmt.Fprintln(w)
		for _, nh := range nodes {
			fmt.Fprintf(w, "  %-6d %8d", nh.Node, nh.Count)
			for _, d := range nh.Dwell {
				fmt.Fprintf(w, " %12d", d)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	heats := rec.LinkHeats()
	if len(heats) == 0 {
		return
	}
	if nLinks > 0 && len(heats) > nLinks {
		heats = heats[:nLinks]
	}
	fmt.Fprintf(w, "hottest links (by summed end-to-end latency)\n")
	fmt.Fprintf(w, "  %-10s %8s %14s %12s\n", "link", "msgs", "cycles", "avg")
	for _, lh := range heats {
		avg := uint64(0)
		if lh.Count > 0 {
			avg = lh.Latency / lh.Count
		}
		fmt.Fprintf(w, "  %3d->%-5d %8d %14d %12d\n", lh.Src, lh.Dst, lh.Count, lh.Latency, avg)
	}
	fmt.Fprintln(w)
}

// writeSlowest renders the top-K slowest messages with their full stage
// timelines: when each span entered each stage and why, plus the dwell the
// span accumulated in it.
func writeSlowest(w io.Writer, rec *spans.Recorder, k int) {
	slow := rec.Slowest(k)
	if len(slow) == 0 {
		return
	}
	fmt.Fprintf(w, "slowest %d message(s)\n", len(slow))
	for i := range slow {
		s := &slow[i]
		fmt.Fprintf(w, "  #%-2d e%d#%d %s %d->%d %dw latency=%d (%s)\n",
			i+1, s.Epoch, s.ID, s.Class, s.Src, s.Dst, s.Words, s.Latency(), s.Term)
		for _, ev := range s.History() {
			cause := ev.Cause
			if cause == "" {
				cause = "-"
			}
			fmt.Fprintf(w, "      @%-12d %-12s %-14s dwell=%d\n",
				ev.At, ev.Stage, cause, s.Dwell[ev.Stage])
		}
	}
	fmt.Fprintln(w)
}
