package main

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"strings"

	"fugu/internal/delivery"
	"fugu/internal/harness"
	"fugu/internal/niq"
	"fugu/internal/telemetry"
)

// commonFlags is the flag block every fugusim subcommand shares — the
// -quick/-full scale pair, the base -seed, the -metrics snapshot directory
// and the -policy delivery-policy selector. Each subcommand registers it on
// its own FlagSet so `fugusim <sub> -h` shows one consistent spelling
// everywhere and a new shared flag lands in every subcommand at once.
type commonFlags struct {
	quick      *bool
	full       *bool
	seed       *uint64
	metricsDir *string
	policyName *string
	niqSpec    *string

	// Timeline telemetry: -timeline enables the flight recorder on every
	// point machine and names the export directory; the companion flags
	// tune the sampling interval and ring capacity.
	timelineDir *string
	tlEvery     *uint64
	tlCap       *int

	// policy is the resolved delivery policy, nil when -policy was not given
	// (the machine default, delivery.TwoCase, then applies).
	policy delivery.Policy
	// queue is the resolved input-queue spec, zero when -niq was not given
	// (the machine default, the static FIFO, then applies).
	queue niq.Spec
}

// registerCommon installs the shared flag block on fs.
func registerCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	c.quick = fs.Bool("quick", false, "run the scaled-down workloads (the default; -full overrides)")
	c.full = fs.Bool("full", false, "run the paper-scale workloads (slow)")
	c.seed = fs.Uint64("seed", 1, "base random seed (trial t runs at seed+t)")
	c.metricsDir = fs.String("metrics", "", "write merged registry snapshots (JSON+CSV) into this directory")
	c.timelineDir = fs.String("timeline", "",
		"enable interval sampling and write flight-recorder timelines (CSV+JSONL) into this directory")
	c.tlEvery = fs.Uint64("timeline-every", 0,
		fmt.Sprintf("sampling interval in simulated cycles (default %d; implies -timeline sampling)", telemetry.DefaultEvery))
	c.tlCap = fs.Int("timeline-cap", 0,
		fmt.Sprintf("flight-recorder ring capacity in intervals (default %d)", telemetry.DefaultCap))
	c.policyName = fs.String("policy", "",
		fmt.Sprintf("delivery policy, one of %v (default: twocase)", delivery.Names()))
	c.niqSpec = fs.String("niq", "",
		fmt.Sprintf("NI input-queue model[:policy[:slots]], models %v, policies %v (default: fifo)",
			niq.Models(), niq.Policies()))
	return c
}

// resolve validates the shared flags after parsing: -quick and -full are
// mutually exclusive, -policy must name a registered policy and -niq must
// parse. Callers exit with usage status on an error, like any other bad
// flag.
func (c *commonFlags) resolve() error {
	if *c.quick && *c.full {
		return errors.New("-quick and -full are mutually exclusive")
	}
	if *c.policyName != "" {
		pol, err := delivery.ByName(*c.policyName)
		if err != nil {
			return err
		}
		c.policy = pol
	}
	if *c.niqSpec != "" {
		spec, err := niq.ParseSpec(*c.niqSpec)
		if err != nil {
			return err
		}
		c.queue = spec
	}
	return nil
}

// harnessOptions turns the shared flags into the base harness option set:
// scale, scale-appropriate default trial count, seed and policy. Subcommand
// flags (-trials, -j, ...) append after these and so override the defaults.
func (c *commonFlags) harnessOptions() []harness.Option {
	opts := []harness.Option{harness.WithSeed(*c.seed)}
	if *c.full {
		opts = append(opts, harness.WithFull(), harness.WithTrials(3))
	} else {
		opts = append(opts, harness.WithQuick(), harness.WithTrials(1))
	}
	if c.policy != nil {
		opts = append(opts, harness.WithDeliveryPolicy(c.policy))
	}
	if c.queue.Model != "" {
		opts = append(opts, harness.WithInputQueue(c.queue))
	}
	if tc := c.telemetryConfig(); tc.Enabled() {
		opts = append(opts, harness.WithTelemetry(tc))
	}
	return opts
}

// telemetryConfig resolves the timeline flags into a sampling config —
// disabled (the zero value) unless -timeline or -timeline-every was given.
func (c *commonFlags) telemetryConfig() telemetry.Config {
	if *c.timelineDir == "" && *c.tlEvery == 0 {
		return telemetry.Config{}
	}
	every := *c.tlEvery
	if every == 0 {
		every = telemetry.DefaultEvery
	}
	return telemetry.Config{Every: every, Cap: *c.tlCap}
}

// timelineHook wires the Runner's OnTimeline callback to accumulate into
// tls when -timeline is set, else leaves the runner untouched.
func (c *commonFlags) timelineHook(r *harness.Runner, tls *[]telemetry.LabeledTimeline) {
	if *c.timelineDir == "" {
		return
	}
	r.OnTimeline = func(point int, label string, tl telemetry.Timeline) {
		*tls = append(*tls, telemetry.LabeledTimeline{Point: point, Label: label, Timeline: tl})
	}
}

// writeTimelines exports the accumulated timelines as <name>.timeline.csv
// and .jsonl under the -timeline directory. No timelines, no files.
func (c *commonFlags) writeTimelines(name string, tls []telemetry.LabeledTimeline) error {
	if *c.timelineDir == "" || len(tls) == 0 {
		return nil
	}
	var csvB, jsonB strings.Builder
	err := telemetry.WriteCSV(&csvB, tls)
	if err == nil {
		err = telemetry.WriteJSONL(&jsonB, tls)
	}
	if err == nil {
		err = harness.WriteCSV(*c.timelineDir, name+".timeline.csv", csvB.String())
	}
	if err == nil {
		err = harness.WriteCSV(*c.timelineDir, name+".timeline.jsonl", jsonB.String())
	}
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	return nil
}

// vetArtifacts refuses pre-existing -metrics/-timeline artifact files for
// the given experiments before the run starts, unless force is set — the
// same refuse-overwrite treatment inspect gives -o, so a long
// sweep can never end by silently destroying the previous run's exports.
func (c *commonFlags) vetArtifacts(force bool, exps ...*harness.Experiment) error {
	for _, exp := range exps {
		if *c.metricsDir != "" {
			for _, suffix := range []string{".metrics.json", ".metrics.csv"} {
				if err := prepareOutputPath(filepath.Join(*c.metricsDir, exp.Name+suffix), force); err != nil {
					return err
				}
			}
		}
		if *c.timelineDir != "" {
			for _, suffix := range []string{".timeline.csv", ".timeline.jsonl"} {
				if err := prepareOutputPath(filepath.Join(*c.timelineDir, exp.Name+suffix), force); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
