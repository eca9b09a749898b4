package harness

import (
	"runtime"

	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/glaze"
	"fugu/internal/niq"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/trace"
)

// Options is the resolved experiment configuration. Construct it with
// NewOptions and functional Option values.
type Options struct {
	Quick  bool
	Trials int // paper averages 3 trials
	Seed   uint64
	// Parallelism is the worker count the Runner fans sweep points out
	// across; zero or negative means runtime.GOMAXPROCS(0). Parallelism
	// never changes results: points are keyed by enumeration index, and
	// every point simulates its own deterministic machine.
	Parallelism int
	// Faults, when non-nil, arms the deterministic fault injector on every
	// point machine. Each machine builds its own injector from the plan, so
	// parallel points stay independent; a disarmed plan is bit-identical to
	// no plan at all.
	Faults *faultinject.Plan
	// Policy, when non-nil, selects the delivery policy on every point
	// machine. Nil leaves the machine default (delivery.TwoCase), keeping
	// default runs bit-identical.
	Policy delivery.Policy
	// Queue, when its Model is non-empty, selects every NI's input-queue
	// organization (see niq.Spec). The zero value leaves the machine
	// default (static FIFO), keeping default runs bit-identical.
	Queue niq.Spec
	// QueueAudit re-checks every NI input queue's structural invariants
	// after each queue mutation (see nic.Config.QueueAudit). Property
	// tests enable it; it changes no simulated behaviour, only walks the
	// structure and panics on the first violation.
	QueueAudit bool
	// Observers are installed on every point machine. A telemetry config
	// gives each machine its own recorder, so parallel sweeps stay
	// deterministic and the per-point timelines come back on the point
	// results (Runner.OnTimeline). Trace, Spans and Profiler are single
	// unsynchronized instruments: pair them with WithParallelism(1), as
	// `fugusim inspect` does, or concurrent points interleave arbitrarily.
	glaze.Observers
}

// Option configures an experiment run.
type Option interface{ applyOption(*Options) }

type optionFunc func(*Options)

func (f optionFunc) applyOption(o *Options) { f(o) }

// WithTrials sets the number of trials averaged per sweep point.
func WithTrials(n int) Option { return optionFunc(func(o *Options) { o.Trials = n }) }

// WithQuick selects the scaled-down workloads benches and CI use; the
// relationships survive scaling (see EXPERIMENTS.md).
func WithQuick() Option { return optionFunc(func(o *Options) { o.Quick = true }) }

// WithFull selects the paper-scale workloads (slow).
func WithFull() Option { return optionFunc(func(o *Options) { o.Quick = false }) }

// WithSeed sets the base random seed; trial t of any experiment runs at
// seed Seed+t (see Options.TrialSeed).
func WithSeed(s uint64) Option { return optionFunc(func(o *Options) { o.Seed = s }) }

// WithParallelism sets the Runner's worker count.
func WithParallelism(n int) Option { return optionFunc(func(o *Options) { o.Parallelism = n }) }

// WithTrace installs an event log on every point machine the experiment
// builds. Enable the log's categories first; run serially (see
// Options.Observers).
func WithTrace(l *trace.Log) Option { return optionFunc(func(o *Options) { o.Trace = l }) }

// WithSpans installs a message-lifecycle recorder on every point machine;
// run serially (see Options.Observers).
func WithSpans(rec *spans.Recorder) Option {
	return optionFunc(func(o *Options) { o.Spans = rec })
}

// WithFaults arms a deterministic fault plan on every point machine (see
// Options.Faults).
func WithFaults(plan *faultinject.Plan) Option {
	return optionFunc(func(o *Options) { o.Faults = plan })
}

// WithDeliveryPolicy selects the delivery policy on every point machine
// (see Options.Policy).
func WithDeliveryPolicy(p delivery.Policy) Option {
	return optionFunc(func(o *Options) { o.Policy = p })
}

// WithInputQueue selects the NI input-queue organization on every point
// machine (see Options.Queue).
func WithInputQueue(spec niq.Spec) Option {
	return optionFunc(func(o *Options) { o.Queue = spec })
}

// WithQueueAudit enables per-mutation input-queue invariant checking on
// every point machine (see Options.QueueAudit).
func WithQueueAudit() Option {
	return optionFunc(func(o *Options) { o.QueueAudit = true })
}

// WithTelemetry enables the flight recorder on every point machine (see
// Options.Observers).
func WithTelemetry(cfg telemetry.Config) Option {
	return optionFunc(func(o *Options) { o.Telemetry = cfg })
}

// WithProfiler attaches the engine cost profiler to every point machine;
// run serially (see Options.Observers).
func WithProfiler(p *sim.Profiler) Option {
	return optionFunc(func(o *Options) { o.Profiler = p })
}

// NewOptions resolves a full option set: the paper's defaults (full sizes,
// 3 trials, seed 1) overlaid with the given options.
func NewOptions(opts ...Option) Options {
	o := Options{Trials: 3, Seed: 1}
	for _, op := range opts {
		op.applyOption(&o)
	}
	return o
}

// Quantum is the scheduler timeslice, 500,000 cycles as in Section 5.
const Quantum = 500_000

// QuantumFor returns the timeslice for the chosen scale: quick mode shrinks
// the quantum along with the workloads so runs still span many timeslices
// (the schedule-quality experiments are meaningless inside one quantum).
func (o Options) QuantumFor() uint64 {
	if o.Quick {
		return 50_000
	}
	return Quantum
}

// TrialSeed derives the seed for one trial. Every experiment must use this
// helper so trial seeding stays consistent across tables and figures (and
// so serial and parallel runs agree bit for bit).
func (o Options) TrialSeed(trial int) uint64 { return o.Seed + uint64(trial) }

// trials returns the effective trial count, at least one.
func (o Options) trials() int { return max(1, o.Trials) }

// machineMut composes the option set's machine-level installs (observers,
// faults, policy, queue) with a point's own config mutator. Experiment
// points pass the result wherever a func(*glaze.Config) is accepted, so
// options reach every machine without widening run signatures.
func (o Options) machineMut(extra func(*glaze.Config)) func(*glaze.Config) {
	return func(cfg *glaze.Config) {
		cfg.Observers = o.Observers
		if o.Faults != nil {
			cfg.Faults = o.Faults
		}
		if o.Policy != nil {
			cfg.Delivery = o.Policy
		}
		if o.Queue.Model != "" {
			cfg.NIConfig.Queue = o.Queue
		}
		if o.QueueAudit {
			cfg.NIConfig.QueueAudit = true
		}
		if extra != nil {
			extra(cfg)
		}
	}
}

// workers returns the effective worker-pool size.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
