package main

import (
	"fmt"
	"io"
	"strings"

	"fugu/internal/spans"
	"fugu/internal/telemetry"
)

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
			h.Quantile(50), h.Quantile(90), h.Quantile(99), h.Max, bar)
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

// watchHeaderEvery is how many dashboard rows print between header reprints,
// so a long scroll never strands the reader without column names.
const watchHeaderEvery = 20

// watchHeader is the dashboard's column header.
func watchHeader() string {
	return fmt.Sprintf("%-3s %-12s %7s %7s %6s %7s %6s %6s %9s %7s %8s %13s  %s\n",
		"ep", "cycle", "Δfast", "Δbuf", "fast%", "Δins", "Δovfl", "Δnack",
		"pages", "queue", "inflight", "Δdwell q/b", "modes")
}

// watchRow formats one flight-recorder interval as a dashboard line:
// per-interval fast/buffered deliveries, buffer inserts, overflow trips,
// NACKs, pinned buffer pages, NI queue depths, handler spans in flight and
// the per-node delivery-mode glyph string. The rows are the recorder's
// OnSample stream, so what scrolls past is exactly what -timeline exports.
func watchRow(iv telemetry.Interval) string {
	fast := iv.Counters["glaze.deliver.fast"]
	buf := iv.Counters["glaze.deliver.buffered"]
	fastPct := "-"
	if fast+buf > 0 {
		fastPct = fmt.Sprintf("%5.1f", float64(fast)/float64(fast+buf)*100)
	}
	pages := iv.Gauges["glaze.buffer.pages"]
	// Per-interval dwell-cycle deltas for the two stages worth watching live:
	// queued (NI residency) and buffered (second-case store residency).
	dwell := fmt.Sprintf("%d/%d", iv.Dwell["queued"], iv.Dwell["buffered"])
	return fmt.Sprintf("%-3d %-12d %7d %7d %6s %7d %6d %6d %4d/%-4d %3d/%-3d %8d %13s  %s\n",
		iv.Epoch, iv.Cycle, fast, buf, fastPct,
		iv.Counters["glaze.buffer.inserts"],
		iv.Counters["glaze.overflow.trips"],
		iv.Counters["nic.nacked"],
		pages.Cur, pages.Max,
		iv.QueueSum, iv.QueueMax,
		iv.SpansInFlight, dwell, iv.Modes)
}
