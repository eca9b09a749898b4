package glaze

import (
	"fugu/internal/delivery"
	"fugu/internal/sim"
)

// ConfigOption adjusts a Config. Options compose over DefaultConfig via
// NewConfig or over any explicit base via NewMachine(cfg, opts...), so
// callers no longer reach into struct fields for the common knobs.
type ConfigOption func(*Config)

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

// WithDeliveryPolicy selects the receive-side delivery policy. Nil (and the
// default) is delivery.TwoCase{}, which reproduces the paper's organization
// bit-for-bit; delivery.ZeroCopyRemap and delivery.BypassRing are the rival
// organizations for head-to-head comparison.
func WithDeliveryPolicy(p delivery.Policy) ConfigOption {
	return func(c *Config) { c.Delivery = p }
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
