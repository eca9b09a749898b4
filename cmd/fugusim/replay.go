package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"fugu/internal/glaze"
	"fugu/internal/harness"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/trace"
)

// replay is the shell the single-point replay subcommands (trace, doctor,
// explain, watch) share. It parses one experiment name and the common
// flags, resolves the sweep point, refuses clobbering outputs before the
// run, replays the point serially and writes its -metrics and -timeline
// artifacts. Each subcommand adds only its observers and its report.
type replay struct {
	fs     *flag.FlagSet
	common *commonFlags
	point  *int
	list   *bool
	force  *bool
}

// newReplay registers the shared replay flags on a fresh FlagSet for the
// named subcommand; the subcommand registers its own flags on r.fs before
// calling parse.
func newReplay(name string) *replay {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	r := &replay{fs: fs, common: registerCommon(fs)}
	r.point = fs.Int("point", 0, "sweep point index to replay (see -list)")
	r.list = fs.Bool("list", false, "list the experiment's sweep points and exit")
	r.force = fs.Bool("force", false, "overwrite existing output files (-o, -folded) and -metrics/-timeline artifacts")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fugusim %s [flags] <experiment>\n", name)
		fmt.Fprintf(os.Stderr, "experiments: %v\n", harness.Names())
		fs.PrintDefaults()
	}
	return r
}

// parse parses args, which must name exactly one experiment, and validates
// the shared flags. It returns the experiment name.
func (r *replay) parse(args []string) string {
	names := parseInterleaved(r.fs, args)
	if len(names) != 1 {
		r.fs.Usage()
		os.Exit(2)
	}
	r.common.resolve()
	return names[0]
}

// replayed is one replayed sweep point.
type replayed struct {
	exp   *harness.Experiment
	index int
	label string
	seed  uint64
	res   any
}

// String names the point the way reports head it.
func (p replayed) String() string {
	return fmt.Sprintf("%s point %d (%s) seed=%#x", p.exp.Name, p.index, p.label, p.seed)
}

// run replays the named experiment's selected point serially with the
// subcommand's observers installed. outputs are the subcommand's own report
// paths; they are vetted with the -metrics/-timeline artifacts before the
// replay. With -list, run prints the sweep and exits.
func (r *replay) run(name string, outputs []string, observers ...harness.Option) replayed {
	opts := append(r.common.harnessOptions(), harness.WithTrials(1), harness.WithParallelism(1))
	opt := harness.NewOptions(append(opts, observers...)...)
	exp, pts, sel, err := resolvePoint(name, pointIndex(*r.point, *r.list), opt)
	if err != nil {
		fatal(2, err)
	}
	if *r.list {
		listPoints(os.Stdout, pts)
		os.Exit(0)
	}

	// Refuse clobbering outputs before the replay, not after: a long run
	// that ends by destroying the previous report or export is the worst
	// failure order.
	for _, path := range outputs {
		if err := prepareOutputPath(path, *r.force); err != nil {
			fatal(2, err)
		}
	}
	if err := r.common.vetArtifacts(*r.force, exp); err != nil {
		fatal(2, err)
	}

	p := replayed{exp: exp, index: *r.point, label: sel.Label, seed: opt.Seed}
	fmt.Fprintf(os.Stderr, "%s: replaying %s\n", r.fs.Name(), p)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	p.res, err = sel.Run(ctx, opt)
	if err != nil {
		fatal(1, fmt.Errorf("%s (%s): %w", exp.Name, sel.Label, err))
	}
	if mc, ok := p.res.(harness.MetricsCarrier); ok && *r.common.metricsDir != "" {
		writeMetrics(*r.common.metricsDir, exp.Name)(mc.MetricsSnapshot())
	}
	if tc, ok := p.res.(harness.TimelineCarrier); ok {
		if tl := tc.TimelineData(); !tl.Empty() {
			r.common.writeTimelines(exp.Name,
				[]telemetry.LabeledTimeline{{Point: p.index, Label: p.label, Timeline: tl}})
		}
	}
	return p
}

// pointIndex turns a -list invocation into the sentinel index resolvePoint
// treats as "enumerate only".
func pointIndex(point int, listOnly bool) int {
	if listOnly {
		return -1
	}
	return point
}

// resolvePoint resolves the (experiment, sweep point) target of a replay:
// look the experiment up, enumerate its sweep for the given options, and
// select the point by index. A negative index skips selection (the -list
// path wants the enumeration only) and returns a nil point.
func resolvePoint(name string, index int, opt harness.Options) (*harness.Experiment, []harness.Point, *harness.Point, error) {
	exp, ok := harness.Lookup(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown experiment %q (try `fugusim list`)", name)
	}
	pts := exp.Points(opt)
	if index < 0 {
		return exp, pts, nil, nil
	}
	if index >= len(pts) {
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

// writeOutput writes text to path, or to stdout when path is "-" or empty;
// with echo, text bound for a file is printed to stdout as well.
func writeOutput(path, text string, echo bool) {
	if echo || isStdout(path) {
		fmt.Print(text)
	}
	if !isStdout(path) {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fatal(1, err)
		}
	}
}

// checkSpans runs the span recorder's delivery invariants for a replayed
// point, reconciling span counts with the point's delivery counters when
// its result carries a metrics snapshot.
func checkSpans(rec *spans.Recorder, p replayed) []string {
	if mc, ok := p.res.(harness.MetricsCarrier); ok {
		snap := mc.MetricsSnapshot()
		return rec.Check(snap.Counters["glaze.deliver.fast"], snap.Counters["glaze.deliver.buffered"])
	}
	// No snapshot to reconcile against: still require terminal states.
	fmt.Fprintf(os.Stderr, "fugusim: %s carries no metrics snapshot; span/metrics reconciliation skipped\n", p)
	return rec.Check(rec.Counts().Fast, rec.Counts().Inserts)
}

// traceCmd implements `fugusim trace`: replay one sweep point with an event
// log installed, then export the timeline.
func traceCmd(args []string) {
	r := newReplay("trace")
	cats := r.fs.String("cats", "", "comma-separated categories to record (default all): mode,sched,overflow,message,span")
	out := r.fs.String("o", "-", "output path (- writes to stdout)")
	jsonl := r.fs.Bool("jsonl", false, "emit JSON Lines instead of Chrome trace_event JSON")
	capN := r.fs.Int("cap", 1<<16, "event ring capacity; oldest events beyond it are dropped")
	name := r.parse(args)

	enabled, err := trace.ParseCats(*cats)
	if err != nil {
		fatal(2, err)
	}
	log := trace.New(*capN)
	log.Enable(enabled...)
	r.run(name, []string{*out}, harness.WithTrace(log))

	var b strings.Builder
	if *jsonl {
		err = log.WriteJSONL(&b)
	} else {
		err = log.WriteChromeTrace(&b)
	}
	if err != nil {
		fatal(1, fmt.Errorf("trace export: %w", err))
	}
	writeOutput(*out, b.String(), false)
	fmt.Fprintf(os.Stderr, "%d events recorded (%d retained, %d dropped)\n",
		log.Total(), log.Total()-log.Dropped(), log.Dropped())
}

// doctorCmd implements `fugusim doctor`: replay one sweep point with the
// span recorder and liveness watchdog installed, then check the delivery
// invariants (every injected message reached exactly one terminal state,
// and span counts reconcile with the delivery counters). A watchdog firing
// prints the diagnostic report — per-node run-queue and buffer state,
// in-flight spans, the waits-for graph — and exits with status 3.
func doctorCmd(args []string) {
	r := newReplay("doctor")
	// The stall threshold (interval*grace) must exceed the longest healthy
	// quiet phase; the gang quantum is 500k cycles, and a descheduled job
	// legitimately makes no delivery progress for a whole quantum, so the
	// default threshold is two quanta.
	interval := r.fs.Uint64("interval", 200_000, "watchdog check interval in cycles")
	grace := r.fs.Int("grace", 5, "consecutive stale watchdog checks before firing (stall threshold = interval*grace)")
	out := r.fs.String("o", "-", "also write the report/diagnosis to this path (- means stdout only)")
	name := r.parse(args)

	rec := spans.NewRecorder(nil)
	p := r.run(name, []string{*out}, harness.WithSpans(rec),
		harness.WithWatchdog(glaze.WatchdogConfig{Interval: *interval, Grace: *grace}))

	if rep := rec.Report(); rep != nil {
		writeOutput(*out, rep.String(), true)
		fmt.Fprintf(os.Stderr, "doctor: watchdog fired — see report above\n")
		os.Exit(3)
	}

	problems := checkSpans(rec, p)
	var b strings.Builder
	fmt.Fprintf(&b, "doctor: %s\n", p)
	fmt.Fprintf(&b, "%s\n", rec.Summary())
	if len(problems) == 0 {
		fmt.Fprintf(&b, "doctor: OK — all spans terminal, counts reconcile with delivery counters\n")
		writeOutput(*out, b.String(), true)
		return
	}
	for _, p := range problems {
		fmt.Fprintf(&b, "PROBLEM: %s\n", p)
	}
	writeOutput(*out, b.String(), true)
	os.Exit(1)
}
