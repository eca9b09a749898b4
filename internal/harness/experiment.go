package harness

import (
	"context"
	"fmt"
	"io"
)

// Point is one independent unit of work inside an experiment sweep — one
// (configuration, trial) pair. Each point builds and runs its own
// deterministic glaze.Machine, so points may execute concurrently and in
// any order; the Runner keys results by enumeration index, never by
// completion order.
type Point struct {
	// Label names the point for progress reporting and error messages,
	// e.g. "barnes skew=1.0% trial=0".
	Label string
	// Run executes the point. It must be safe to call concurrently with
	// other points. The context is advisory: simulation points run to
	// completion, but long-running or synthetic points should honor
	// cancellation.
	Run func(ctx context.Context, opt Options) (any, error)
}

// Result is a structured experiment outcome. Rendering is the caller's
// business (cmd/fugusim is the only place that prints tables); experiments
// themselves only return data.
type Result interface {
	// Print renders the paper-style table or ASCII figure.
	Print(w io.Writer)
}

// CSVer is implemented by results that can also render themselves as CSV
// files, keyed by file name.
type CSVer interface {
	CSVFiles() map[string]string
}

// Experiment is a named, discoverable reproduction of one of the paper's
// data-bearing tables or figures.
type Experiment struct {
	// Name is the registry key ("table4", "fig9", ...).
	Name string
	// Description is the one-line summary `fugusim list` prints.
	Description string
	// Points enumerates the sweep for the given options. The enumeration
	// must be deterministic: same options, same points, same order.
	Points func(opt Options) []Point
	// Assemble folds the per-point results — results[i] belongs to
	// Points(opt)[i] — into the experiment's structured result.
	Assemble func(opt Options, results []any) (Result, error)
	// Verdict checks the assembled result against the claims the experiment
	// exists to demonstrate and returns one line per failed claim; empty
	// means every claim held. `fugusim run` exits nonzero on any line. Nil
	// means the experiment makes no claim.
	Verdict func(Result) []string
}

// registry holds every registered experiment in registration order (the
// order `fugusim list` and `fugusim run all` use).
var registry []*Experiment

// register adds an experiment; duplicate names are a programming error.
func register(e *Experiment) {
	if _, ok := Lookup(e.Name); ok {
		panic("harness: duplicate experiment " + e.Name)
	}
	registry = append(registry, e)
}

func init() {
	register(table4Experiment())
	register(table5Experiment())
	register(table6Experiment())
	register(fig7and8Experiment())
	register(fig9Sweep.experiment())
	register(fig10Sweep.experiment())
	register(crlStressExperiment())
	register(labExperiment(cruciblePreset))
	register(labExperiment(policylabPreset))
	register(labExperiment(bufferlabPreset))
}

// Experiments returns every registered experiment in registration order.
func Experiments() []*Experiment {
	out := make([]*Experiment, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered experiment names in registration order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (*Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// Run looks up a registered experiment and runs it on a default Runner.
func Run(ctx context.Context, name string, opts ...Option) (Result, error) {
	exp, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, Names())
	}
	return new(Runner).Run(ctx, exp, opts...)
}

// runAs runs a registered experiment and asserts its concrete result type,
// backing the typed convenience entry points (Table4, Fig9, ...).
func runAs[T Result](name string, opts ...Option) (T, error) {
	res, err := Run(context.Background(), name, opts...)
	if err != nil {
		var zero T
		return zero, err
	}
	return res.(T), nil
}
