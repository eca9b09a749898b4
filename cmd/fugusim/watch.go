package main

import (
	"fmt"

	"fugu/internal/harness"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
)

// watchHeaderEvery is how many dashboard rows print between header reprints,
// so a long scroll never strands the reader without column names.
const watchHeaderEvery = 20

// watchCmd implements `fugusim watch`: replay one sweep point with interval
// sampling enabled and stream a dashboard row per interval as simulated
// time advances — per-interval fast/buffered deliveries, buffer
// inserts, overflow trips, NACKs, pinned buffer pages, NI queue depths,
// handler spans in flight and the per-node delivery-mode glyph string. The
// stream is the flight recorder's OnSample hook, so what scrolls past is
// exactly what `-timeline` would export; simulated time, not wall clock,
// paces the rows.
func watchCmd(args []string) {
	r := newReplay("watch")
	name := r.parse(args)

	// Watching forces sampling on even without -timeline flags; the shared
	// flags still tune interval and ring capacity when given.
	tc := r.common.telemetryConfig()
	if !tc.Enabled() {
		tc = telemetry.Config{Every: telemetry.DefaultEvery, Cap: *r.common.tlCap}
	}
	rowN := 0
	tc.OnSample = func(iv telemetry.Interval) {
		if rowN%watchHeaderEvery == 0 {
			fmt.Printf("%-3s %-12s %7s %7s %6s %7s %6s %6s %9s %7s %8s %13s  %s\n",
				"ep", "cycle", "Δfast", "Δbuf", "fast%", "Δins", "Δovfl", "Δnack",
				"pages", "queue", "inflight", "Δdwell q/b", "modes")
		}
		rowN++
		fmt.Print(watchRow(iv))
	}

	// A span recorder feeds the sampler's per-stage dwell totals, so the
	// dashboard (and any -timeline export) shows dwell drift per interval.
	p := r.run(name, nil, harness.WithSpans(spans.NewRecorder(nil)), harness.WithTelemetry(tc))
	if c, ok := p.res.(harness.TimelineCarrier); ok {
		if tl := c.TimelineData(); !tl.Empty() {
			sum := tl.SumCounters()
			fmt.Printf("watch: %d intervals of %d cycles (%d dropped from ring), final: fast=%d buffered=%d inserts=%d overflow=%d\n",
				len(tl.Intervals), tc.Every, tl.Dropped,
				sum["glaze.deliver.fast"], sum["glaze.deliver.buffered"],
				sum["glaze.buffer.inserts"], sum["glaze.overflow.trips"])
		}
	}
}

// watchRow formats one interval as a dashboard line.
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
