// Command fugusim regenerates the tables and figures of "Exploiting
// Two-Case Delivery for Fast Protected Messaging" (HPCA 1998) on the
// simulated FUGU machine.
//
// Usage:
//
//	fugusim list
//	fugusim run [flags] <experiment>... | all
//	fugusim inspect [flags] <experiment> -point N -with spans,profile,watchdog,timeline,trace
//
// Experiments are discovered from the harness registry (`fugusim list`
// prints them). Sweep points and trials fan out across -j workers; results
// are deterministic regardless of the worker count, because every point is
// an independent simulated machine and results are assembled by point
// index, not completion order. Flags may appear before or after experiment
// names (`fugusim run fig9 -quick -metrics out/`).
//
// `run` is the only sweep command. After printing an experiment (and
// writing its -csv files) it enforces the experiment's verdict and exits 1
// if a claim failed: the crucible fault-injection sweep must pass every
// delivery oracle and force every second-case cause its -policy can
// express, the policy lab must pass every oracle, and the NI
// buffer-economics sweep (bufferlab; `-niq` selects a queue organization on
// either subcommand) must pass every oracle with a shared organization
// beating the static FIFO on overflow rate. `run -metrics <dir>` writes
// each experiment's merged registry snapshot (every point machine's
// counters, gauges and histograms) as <experiment>.metrics.json and .csv.
//
// `inspect` replays one sweep point serially under the observers named by
// -with, and each observer adds its own section to the text report:
//
//   - spans: the message-lifecycle recorder's delivery invariants (every
//     message reached exactly one terminal state, span counts reconcile
//     with the delivery counters, per-stage dwells sum to end-to-end
//     latency; a violation exits 1), the per-stage dwell waterfall, dwell
//     by (policy, stage, cause), per-node and per-link heat, and the
//     slowest messages with their stage timelines.
//   - profile: the engine's own cost by schedule site; -folded also writes
//     it as flamegraph input.
//   - watchdog: the liveness watchdog; a wedged run stops with a
//     diagnostic report and exit status 3 instead of hanging.
//   - timeline: interval sampling, streamed as dashboard rows
//     (fast/buffered deliveries, queue depths, pinned pages, NACKs,
//     per-node mode glyphs) as simulated time advances.
//   - trace: an event log exported to -trace-out as Chrome trace_event JSON
//     (chrome://tracing, Perfetto), or as JSON Lines when the path ends in
//     .jsonl.
//
// `-timeline <dir>` (either subcommand) enables the flight recorder on
// every point machine and writes each experiment's per-interval timelines
// as <experiment>.timeline.csv and .jsonl; `-timeline-every` tunes the
// sampling interval in simulated cycles. Existing -metrics and -timeline
// files are refused before the run unless -force is given.
//
// Quick mode (default) scales workloads down so the whole suite runs in
// minutes; -full uses the paper's sizes. This command is the only place
// that prints tables — the harness itself just returns structured results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"fugu/internal/harness"
	"fugu/internal/metrics"
	"fugu/internal/telemetry"
)

func main() {
	common := registerCommon(flag.CommandLine)
	trials := flag.Int("trials", 0, "trials per data point (default: 1 quick, 3 full)")
	csvDir := flag.String("csv", "", "also write experiment data as CSV files into this directory")
	jobs := flag.Int("j", 0, "worker-pool size for sweep points (default: GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report each completed sweep point on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	force := flag.Bool("force", false, "overwrite existing -metrics/-timeline artifact files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage:\n")
		fmt.Fprintf(os.Stderr, "  fugusim list\n")
		fmt.Fprintf(os.Stderr, "  fugusim run [flags] <experiment>... | all\n")
		fmt.Fprintf(os.Stderr, "  fugusim inspect [flags] <experiment> -point N -with %s\n", strings.Join(observerNames, ","))
		fmt.Fprintf(os.Stderr, "experiments: %v\n", harness.Names())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	var names []string
	switch flag.Arg(0) {
	case "list":
		list(os.Stdout)
		return
	case "inspect":
		_, code := inspectCmd(flag.Args()[1:], os.Stdout, os.Stderr)
		os.Exit(code)
	case "run":
		// Flags may also follow the subcommand and the experiment names:
		// `fugusim run fig9 -quick -metrics out/`. flag.CommandLine exits
		// on a bad flag, so no parse error comes back here.
		names, _ = parseInterleaved(flag.CommandLine, flag.Args()[1:])
	default:
		// Legacy spelling: `fugusim table4`, `fugusim all`.
		names, _ = parseInterleaved(flag.CommandLine, flag.Args())
	}
	if len(names) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := common.resolve(); err != nil {
		fatal(2, err)
	}
	exps, err := expandNames(names)
	if err != nil {
		fatal(2, err)
	}

	// Refuse clobbering -metrics/-timeline artifacts before the sweep, not
	// after: destroying the previous exports as the final act of a long run
	// is the worst order.
	if err := common.vetArtifacts(*force, exps...); err != nil {
		fatal(2, err)
	}

	opts := append(common.harnessOptions(), harness.WithParallelism(*jobs))
	if *trials > 0 {
		opts = append(opts, harness.WithTrials(*trials))
	}

	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(1, err)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := &harness.Runner{}
	if *progress {
		runner.Progress = func(p harness.Progress) {
			status := "ok"
			if p.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "%s: %d/%d %s %s\n", p.Experiment, p.Done, p.Total, p.Label, status)
		}
	}

	for _, exp := range exps {
		if *common.metricsDir != "" {
			runner.OnMetrics = func(s metrics.Snapshot) {
				if err := writeMetrics(*common.metricsDir, exp.Name, s); err != nil {
					fatal(1, err)
				}
			}
		}
		var tls []telemetry.LabeledTimeline
		common.timelineHook(runner, &tls)
		start := time.Now()
		fmt.Printf("== %s ==\n", exp.Name)
		res, err := runner.Run(ctx, exp, opts...)
		if err != nil {
			fatal(1, fmt.Errorf("%s: %w", exp.Name, err))
		}
		if err := common.writeTimelines(exp.Name, tls); err != nil {
			fatal(1, err)
		}
		res.Print(os.Stdout)
		fmt.Printf("(%s took %.1fs)\n\n", exp.Name, time.Since(start).Seconds())
		if *csvDir != "" {
			if csv, ok := res.(harness.CSVer); ok {
				for file, content := range csv.CSVFiles() {
					if err := harness.WriteCSV(*csvDir, file, content); err != nil {
						fatal(1, fmt.Errorf("csv: %w", err))
					}
				}
			}
		}
		if exp.Verdict != nil {
			if failed := exp.Verdict(res); len(failed) > 0 {
				for _, line := range failed {
					fmt.Fprintf(os.Stderr, "fugusim: %s: %s\n", exp.Name, line)
				}
				os.Exit(1)
			}
		}
	}
}

// fatal reports err on stderr and exits with the given status: 2 for bad
// usage, 1 for a failed run.
func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "fugusim: %v\n", err)
	os.Exit(code)
}

// writeMetrics saves an experiment's merged snapshot as <name>.metrics.json
// and <name>.metrics.csv under dir.
func writeMetrics(dir, name string, s metrics.Snapshot) error {
	err := harness.WriteCSV(dir, name+".metrics.json", string(s.JSON()))
	if err == nil {
		err = harness.WriteCSV(dir, name+".metrics.csv", s.CSV())
	}
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// parseInterleaved parses flags that may appear before, between or after
// positional arguments; Go's flag package stops at the first positional, so
// re-parse the remainder each time one (or a run of them) is collected.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var names []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		i := 0
		for i < len(args) && !strings.HasPrefix(args[i], "-") {
			names = append(names, args[i])
			i++
		}
		if i == len(args) {
			return names, nil
		}
		args = args[i:]
	}
}

// list prints the registry.
func list(w *os.File) {
	for _, e := range harness.Experiments() {
		fmt.Fprintf(w, "%-10s %s\n", e.Name, e.Description)
	}
}

// expandNames resolves the command-line names to experiments: "all" expands
// to the registry, the legacy fig7/fig8 aliases map to the shared fig7and8
// sweep, and duplicates drop. Any unknown name is an error, so a typo fails
// before anything runs.
func expandNames(names []string) ([]*harness.Experiment, error) {
	var out []*harness.Experiment
	seen := map[string]bool{}
	for _, n := range names {
		expanded := []string{n}
		switch n {
		case "all":
			expanded = harness.Names()
		case "fig7", "fig8":
			expanded = []string{"fig7and8"}
		}
		for _, name := range expanded {
			exp, ok := harness.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (try `fugusim list`)", name)
			}
			if !seen[name] {
				seen[name] = true
				out = append(out, exp)
			}
		}
	}
	return out, nil
}
