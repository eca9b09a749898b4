package glaze

import (
	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/nic"
	"fugu/internal/niq"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/trace"
)

// ConfigOption adjusts a Config. Options compose over DefaultConfig via
// NewConfig or over any explicit base via NewMachine(cfg, opts...), so
// callers no longer reach into struct fields for the common knobs.
type ConfigOption func(*Config)

// WithTrace installs an event log on the machine. Enable the categories of
// interest on the log before running.
func WithTrace(l *trace.Log) ConfigOption {
	return func(c *Config) { c.Trace = l }
}

// WithSpans installs a message-lifecycle recorder on the machine: every
// injected packet is tracked from send to its terminal disposal.
func WithSpans(rec *spans.Recorder) ConfigOption {
	return func(c *Config) { c.Spans = rec }
}

// WithWatchdog enables the liveness watchdog (see WatchdogConfig). A span
// recorder is installed implicitly if none is configured.
func WithWatchdog(wc WatchdogConfig) ConfigOption {
	return func(c *Config) { c.Watchdog = wc }
}

// WithMesh sets the mesh dimensions (the machine has w*h nodes).
func WithMesh(w, h int) ConfigOption {
	return func(c *Config) { c.W, c.H = w, h }
}

// WithAtomicity selects the cost model for one of Table 4's three
// atomicity implementations.
func WithAtomicity(impl AtomicityImpl) ConfigOption {
	return func(c *Config) { c.Cost = Costs(impl) }
}

// WithFrames sets the per-node physical frame pool size (4 KB frames).
func WithFrames(n int) ConfigOption {
	return func(c *Config) { c.FramesPerNode = n }
}

// WithMachineSeed sets the simulation seed (per-node clock skew jitter and
// any other randomized behaviour derive from it).
func WithMachineSeed(seed uint64) ConfigOption {
	return func(c *Config) { c.Seed = seed }
}

// WithOutputWords sets the NI output-descriptor length in words; the
// harness uses a 64-word descriptor to model FUGU's DMA engine for bulk
// messages (see DESIGN.md).
func WithOutputWords(words int) ConfigOption {
	return func(c *Config) { c.NIConfig.OutputWords = words }
}

// WithNIConfig applies nic options over the machine's NI configuration
// (the glaze-level counterpart of nic.NewConfig).
func WithNIConfig(opts ...nic.ConfigOption) ConfigOption {
	return func(c *Config) {
		for _, o := range opts {
			o(&c.NIConfig)
		}
	}
}

// WithInputQueue selects every NI's input-queue organization (model,
// allocation policy, slot count; see niq.Spec). The zero spec — and the
// default — is the static FIFO, bit-identical to the original hardware.
func WithInputQueue(spec niq.Spec) ConfigOption {
	return func(c *Config) { c.NIConfig.Queue = spec }
}

// WithQueueAudit checks every NI's input-queue invariants after each queue
// mutation (see nic.Config.QueueAudit). Test-only: property tests use it to
// fail at the exact event that violates a reserve guarantee.
func WithQueueAudit() ConfigOption {
	return func(c *Config) { c.NIConfig.QueueAudit = true }
}

// WithDeliveryPolicy selects the receive-side delivery policy. Nil (and the
// default) is delivery.TwoCase{}, which reproduces the paper's organization
// bit-for-bit; delivery.ZeroCopyRemap and delivery.BypassRing are the rival
// organizations for head-to-head comparison.
func WithDeliveryPolicy(p delivery.Policy) ConfigOption {
	return func(c *Config) { c.Delivery = p }
}

// WithTelemetry attaches a flight recorder: the machine samples its
// registry every recorder interval of simulated time and keeps the
// interval deltas in a bounded ring (see the telemetry package). Sampling
// never perturbs simulation results.
func WithTelemetry(rec *telemetry.Recorder) ConfigOption {
	return func(c *Config) { c.Telemetry = rec }
}

// WithFaults arms a deterministic fault injector executing the plan. Faults
// draw from their own PCG stream, so a machine with a disarmed plan stays
// bit-identical to one with no plan at all.
func WithFaults(plan *faultinject.Plan) ConfigOption {
	return func(c *Config) { c.Faults = plan }
}

// WithProfiler attaches an engine cost profiler: every dispatched event is
// attributed to its named schedule site (counts, simulated cycles and —
// per the profiler's config — wall nanoseconds and allocations).
// Observation only; simulation results are identical with or without it.
func WithProfiler(p *sim.Profiler) ConfigOption {
	return func(c *Config) { c.Profiler = p }
}

// NewConfig returns DefaultConfig with the given options applied.
func NewConfig(opts ...ConfigOption) Config {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}
