package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"

	"fugu/internal/glaze"
	"fugu/internal/harness"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/trace"
)

// observerNames are the observers `inspect -with` accepts, in the order
// their report sections print.
var observerNames = []string{"timeline", "watchdog", "spans", "profile", "trace"}

// observerSet is a set of -with observers: bit i stands for observerNames[i].
type observerSet uint8

const (
	withTimeline observerSet = 1 << iota
	withWatchdog
	withSpans
	withProfile
	withTrace
)

// parseWith parses a comma-separated -with list. Every element must name an
// observer, so an empty list or element is an error; repeats are harmless.
func parseWith(s string) (observerSet, error) {
	var set observerSet
	for _, part := range strings.Split(s, ",") {
		i := slices.Index(observerNames, strings.TrimSpace(part))
		if i < 0 {
			return 0, fmt.Errorf("-with: unknown observer %q (have %s)", part, strings.Join(observerNames, ","))
		}
		set |= 1 << i
	}
	return set, nil
}

// String lists the set's observer names in report order, the form
// parseWith reads back and the report header shows.
func (s observerSet) String() string {
	var names []string
	for i, name := range observerNames {
		if s&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// inspectCmd implements `fugusim inspect`: replay one sweep point serially
// under the -with observers, each of which adds its own section to the text
// report. The report streams to stdout as it grows (timeline rows arrive as
// simulated time advances) and is returned along with the exit status: 0
// clean, 1 a failed run or span invariant, 2 bad usage, 3 a fired watchdog.
func inspectCmd(args []string, stdout, stderr io.Writer) (string, int) {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	common := registerCommon(fs)
	point := fs.Int("point", 0, "sweep point index to replay (see -list)")
	list := fs.Bool("list", false, "list the experiment's sweep points and exit")
	force := fs.Bool("force", false, "overwrite existing output files (-o, -folded, -trace-out) and -metrics/-timeline artifacts")
	with := fs.String("with", "spans", "comma-separated observers: "+strings.Join(observerNames, ","))
	out := fs.String("o", "-", "also write the text report to this path (- means stdout only)")
	traceOut := fs.String("trace-out", "", "trace: export path; a .jsonl path gets JSON Lines, any other Chrome trace_event JSON")
	cats := fs.String("cats", "", "trace: comma-separated categories to record (default all): mode,sched,overflow,span")
	capN := fs.Int("cap", 1<<16, "trace: event ring capacity; oldest events beyond it are dropped")
	// The stall threshold (interval*grace) must exceed the longest healthy
	// quiet phase; the gang quantum is 500k cycles, and a descheduled job
	// legitimately makes no delivery progress for a whole quantum, so the
	// default threshold is two quanta.
	interval := fs.Uint64("interval", 200_000, "watchdog: check interval in cycles")
	grace := fs.Int("grace", 5, "watchdog: consecutive stale checks before firing (stall threshold = interval*grace)")
	folded := fs.String("folded", "", "profile: also write the cost profile as folded stacks (flamegraph input) to this path")
	allocs := fs.Bool("allocs", false, "profile: also attribute heap allocations per schedule site (slower)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fugusim inspect [flags] <experiment> -point N -with %s\n", strings.Join(observerNames, ","))
		fmt.Fprintf(stderr, "experiments: %v\n", harness.Names())
		fs.PrintDefaults()
	}
	usage := func(err error) (string, int) {
		fmt.Fprintf(stderr, "fugusim: %v\n", err)
		return "", 2
	}

	names, err := parseInterleaved(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return "", 0
	}
	if err != nil {
		return "", 2 // the flag package has already reported it
	}
	if len(names) != 1 {
		fs.Usage()
		return "", 2
	}
	obs, err := parseWith(*with)
	if err == nil {
		err = common.resolve()
	}
	var enabled []trace.Category
	if err == nil {
		enabled, err = trace.ParseCats(*cats)
	}
	if err == nil && (obs&withTrace != 0) != (*traceOut != "") {
		err = errors.New("-with trace and -trace-out go together")
	}
	if err == nil && *folded != "" && obs&withProfile == 0 {
		err = errors.New("-folded needs -with profile")
	}
	if err != nil {
		return usage(err)
	}

	opt := harness.NewOptions(append(common.harnessOptions(), harness.WithTrials(1), harness.WithParallelism(1))...)
	exp, pts, sel, err := resolvePoint(names[0], *point, *list, opt)
	if err != nil {
		return usage(err)
	}
	if *list {
		listPoints(stdout, pts)
		return "", 0
	}
	// Refuse clobbering outputs before the replay, not after: a long run
	// that ends by destroying the previous report or export is the worst
	// failure order.
	for _, path := range []string{*out, *folded, *traceOut} {
		if err := prepareOutputPath(path, *force); err != nil {
			return usage(err)
		}
	}
	if err := common.vetArtifacts(*force, exp); err != nil {
		return usage(err)
	}

	var report strings.Builder
	w := io.MultiWriter(stdout, &report)
	target := fmt.Sprintf("%s point %d (%s) seed=%#x", exp.Name, *point, sel.Label, opt.Seed)
	fmt.Fprintf(w, "inspect: %s -with %s\n", target, obs)

	if obs&withTrace != 0 {
		opt.Trace = trace.New(*capN)
		opt.Trace.Enable(enabled...)
	}
	if obs&(withTimeline|withWatchdog|withSpans) != 0 {
		// The watchdog reports through the span recorder, and the timeline
		// samples its per-stage dwell.
		opt.Spans = spans.NewRecorder(opt.Trace)
	}
	if obs&withWatchdog != 0 {
		opt.Watchdog = glaze.WatchdogConfig{Interval: *interval, Grace: *grace}
	}
	if obs&withProfile != 0 {
		opt.Profiler = sim.NewProfiler(sim.ProfilerConfig{Wall: true, Allocs: *allocs})
	}
	if obs&withTimeline != 0 {
		// The timeline forces sampling on even without -timeline; the
		// shared flags still tune interval and ring capacity when given.
		if !opt.Telemetry.Enabled() {
			opt.Telemetry = telemetry.Config{Every: telemetry.DefaultEvery, Cap: *common.tlCap}
		}
		rows := 0
		opt.Telemetry.OnSample = func(iv telemetry.Interval) {
			if rows%watchHeaderEvery == 0 {
				fmt.Fprint(w, watchHeader())
			}
			rows++
			fmt.Fprint(w, watchRow(iv))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := sel.Run(ctx, opt)
	if err == nil {
		err = writeArtifacts(common, exp.Name, *point, sel.Label, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fugusim: %s (%s): %v\n", exp.Name, sel.Label, err)
		return report.String(), 1
	}

	code := 0
	if oc, ok := res.(harness.ObservationCarrier); ok && obs&withTimeline != 0 {
		if tl := oc.Observed().Timeline; !tl.Empty() {
			sum := tl.SumCounters()
			fmt.Fprintf(w, "timeline: %d intervals of %d cycles (%d dropped from ring), final: fast=%d buffered=%d inserts=%d overflow=%d\n",
				len(tl.Intervals), tl.Every, tl.Dropped,
				sum["glaze.deliver.fast"], sum["glaze.deliver.buffered"],
				sum["glaze.buffer.inserts"], sum["glaze.overflow.trips"])
		}
	}
	if obs&withWatchdog != 0 {
		if rep := opt.Spans.Report(); rep != nil {
			fmt.Fprint(w, rep.String())
			code = 3
		} else {
			fmt.Fprintf(w, "watchdog: no stall (checked every %d cycles, grace %d)\n", *interval, *grace)
		}
	}
	if obs&withSpans != 0 {
		rec := opt.Spans
		problems := checkSpans(rec, res, target, stderr)
		fmt.Fprintf(w, "%s\n", rec.Summary())
		if len(problems) == 0 {
			fmt.Fprintf(w, "spans: OK — all spans terminal, counts reconcile with delivery counters\n")
		} else if code == 0 {
			code = 1
		}
		for _, p := range problems {
			fmt.Fprintf(w, "PROBLEM: %s\n", p)
		}
		fmt.Fprintln(w)
		writeWaterfall(w, rec)
		writeAnatomy(w, rec)
		writeHeat(w, rec)
		writeSlowest(w, rec)
	}
	if obs&withProfile != 0 {
		fmt.Fprintf(w, "engine cost profile (by schedule site)\n")
		opt.Profiler.Snapshot().WriteTable(w)
	}
	if obs&withTrace != 0 {
		fmt.Fprintf(w, "trace: %d events recorded (%d retained, %d dropped)\n",
			opt.Trace.Total(), opt.Trace.Total()-opt.Trace.Dropped(), opt.Trace.Dropped())
		var b strings.Builder
		export := opt.Trace.WriteChromeTrace
		if strings.HasSuffix(*traceOut, ".jsonl") {
			export = opt.Trace.WriteJSONL
		}
		if err = export(&b); err == nil {
			err = writeOutput(*traceOut, b.String(), stdout)
		}
	}
	if err == nil && *folded != "" {
		var b strings.Builder
		opt.Profiler.Snapshot().WriteFolded(&b)
		err = writeOutput(*folded, b.String(), stdout)
	}
	if err == nil && !isStdout(*out) {
		err = writeOutput(*out, report.String(), stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "fugusim: %v\n", err)
		return report.String(), 1
	}
	switch code {
	case 3:
		fmt.Fprintf(stderr, "inspect: watchdog fired — see report above\n")
	case 1:
		fmt.Fprintf(stderr, "inspect: span invariant violation(s) — see report above\n")
	}
	return report.String(), code
}

// writeArtifacts writes a replayed point's -metrics snapshot and -timeline
// export, the same files `run` writes for a whole sweep.
func writeArtifacts(common *commonFlags, name string, point int, label string, res any) error {
	oc, ok := res.(harness.ObservationCarrier)
	if !ok {
		return nil
	}
	o := oc.Observed()
	if *common.metricsDir != "" {
		if err := writeMetrics(*common.metricsDir, name, o.Metrics); err != nil {
			return err
		}
	}
	if !o.Timeline.Empty() {
		return common.writeTimelines(name,
			[]telemetry.LabeledTimeline{{Point: point, Label: label, Timeline: o.Timeline}})
	}
	return nil
}

// resolvePoint resolves the (experiment, sweep point) target of a replay:
// look the experiment up, enumerate its sweep for the given options, and
// select the point by index. With listOnly it skips the selection (the
// -list path wants the enumeration only) and returns a nil point.
func resolvePoint(name string, index int, listOnly bool, opt harness.Options) (*harness.Experiment, []harness.Point, *harness.Point, error) {
	exp, ok := harness.Lookup(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown experiment %q (try `fugusim list`)", name)
	}
	pts := exp.Points(opt)
	if listOnly {
		return exp, pts, nil, nil
	}
	if index < 0 || index >= len(pts) {
		return exp, pts, nil, fmt.Errorf("point %d out of range (%s has %d points; see -list)",
			index, name, len(pts))
	}
	return exp, pts, &pts[index], nil
}

// listPoints prints a sweep enumeration, one indexed point per line.
func listPoints(w io.Writer, pts []harness.Point) {
	for i, pt := range pts {
		fmt.Fprintf(w, "%3d  %s\n", i, pt.Label)
	}
}

// isStdout reports whether an output path means standard output.
func isStdout(path string) bool { return path == "-" || path == "" }

// prepareOutputPath vets a report destination before a long run: "-" (or
// empty) means stdout and needs nothing; otherwise the parent directory is
// created and an already-existing file is refused unless force is set, so a
// replay can never silently destroy the previous diagnosis.
func prepareOutputPath(path string, force bool) error {
	if isStdout(path) {
		return nil
	}
	if _, err := os.Stat(path); err == nil {
		if !force {
			return fmt.Errorf("output file %s already exists (use -force to overwrite)", path)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		return os.MkdirAll(dir, 0o755)
	}
	return nil
}

// writeOutput writes text to path, or to stdout when path is "-".
func writeOutput(path, text string, stdout io.Writer) error {
	if isStdout(path) {
		_, err := io.WriteString(stdout, text)
		return err
	}
	return os.WriteFile(path, []byte(text), 0o644)
}

// checkSpans runs the span recorder's delivery invariants for a replayed
// point, reconciling span counts with the point's delivery counters when
// its result carries a metrics snapshot.
func checkSpans(rec *spans.Recorder, res any, target string, stderr io.Writer) []string {
	if oc, ok := res.(harness.ObservationCarrier); ok {
		snap := oc.Observed().Metrics
		return rec.Check(snap.Counters["glaze.deliver.fast"], snap.Counters["glaze.deliver.buffered"])
	}
	// No snapshot to reconcile against: still require terminal states.
	fmt.Fprintf(stderr, "fugusim: %s carries no metrics snapshot; span/metrics reconciliation skipped\n", target)
	return rec.Check(rec.Counts().Fast, rec.Counts().Inserts)
}
