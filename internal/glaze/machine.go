package glaze

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/mesh"
	"fugu/internal/metrics"
	"fugu/internal/nic"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
	"fugu/internal/trace"
	"fugu/internal/vm"
)

// Config parameterizes a simulated FUGU machine.
type Config struct {
	W, H          int // mesh dimensions
	Seed          uint64
	Cost          CostModel
	NIConfig      nic.Config
	Latency       mesh.LatencyModel
	FramesPerNode int

	// Delivery selects the receive-side delivery policy. Nil means
	// delivery.TwoCase{}, the paper's organization and the bit-exact
	// default; see the delivery package for the rivals.
	Delivery delivery.Policy

	// AlwaysBuffered disables the fast case entirely: every message is
	// delivered through the software buffer, the SUNMOS-style one-case
	// organization the paper contrasts against (ablation knob).
	AlwaysBuffered bool
	// NoBufferReclaim pins buffer pages: consumed pages are never returned
	// to the frame pool, modelling a pinned-buffer design against which
	// virtual buffering's physical-memory advantage is measured.
	NoBufferReclaim bool

	// Faults, when non-nil, arms a deterministic fault injector executing
	// the plan. The injector draws from its own PCG stream seeded by
	// Faults.Seed, so the engine RNG sequence — and therefore every
	// fault-free golden — is untouched even with a plan installed.
	Faults *faultinject.Plan

	// Observers are the machine's instruments; the zero value attaches
	// none.
	Observers
}

// Observers bundles the instruments a machine can carry. None of them
// charges simulated cycles or draws from the engine RNG, so results are
// bit-identical with or without any of them. The pointer-valued ones are
// unsynchronized: share one across machines only in serial sweeps.
type Observers struct {
	// Trace, when non-nil, is installed as the machine's event log. Enable
	// the categories of interest before running.
	Trace *trace.Log

	// Spans, when non-nil, records every message's lifecycle (injection,
	// arrival, buffer insertion, terminal disposal) for invariant checks
	// and liveness diagnostics.
	Spans *spans.Recorder

	// Watchdog, when enabled (Interval > 0), periodically checks for
	// delivery progress and dumps a diagnostic report when the machine
	// wedges. See WatchdogConfig.
	Watchdog WatchdogConfig

	// Telemetry, when enabled (Every > 0), attaches a flight recorder built
	// for this machine: a sampler event diffs the registry every interval
	// of simulated time. Each machine gets its own recorder (Machine.
	// Telemetry), so parallel sweeps stay deterministic and race-free.
	Telemetry telemetry.Config

	// Profiler, when non-nil, attaches the engine cost profiler: every
	// dispatched event is attributed to its schedule site (mesh hop, NI
	// drain, gang tick, ...).
	Profiler *sim.Profiler
}

// DefaultConfig returns the configuration the experiments use: eight nodes
// (4x2, as in the paper's simulated system), soft-atomicity costs and a
// 1024-frame (4 MB) pool per node.
func DefaultConfig() Config {
	return Config{
		W: 4, H: 2,
		Seed:          1,
		Cost:          Costs(SoftAtomicity),
		NIConfig:      nic.DefaultConfig(),
		Latency:       mesh.DefaultLatency(),
		FramesPerNode: 1024,
	}
}

// Node bundles one node's hardware and kernel.
type Node struct {
	Index  int
	CPU    *cpu.CPU
	NI     *nic.NI
	Frames *vm.Frames
	Kernel *Kernel

	// Metrics is the node's instrument registry: NI, kernel, delivery and
	// CRL instruments for this node record here.
	Metrics *metrics.Registry
}

// Machine is a simulated FUGU multiprocessor.
type Machine struct {
	Eng   *sim.Engine
	Net   *mesh.Net
	Nodes []*Node
	Gang  *Gang

	cost    CostModel
	nextGID nic.GID
	jobs    []*Job

	// policy is the receive-side delivery organization (never nil; TwoCase
	// by default).
	policy delivery.Policy

	alwaysBuffered bool
	noReclaim      bool

	// Trace is an optional event log; nil (the default) records nothing.
	// Enable categories before running: m.Trace = trace.New(4096);
	// m.Trace.Enable(trace.Mode, trace.Overflow).
	Trace *trace.Log

	// Spans is the optional message-lifecycle recorder (nil records
	// nothing); the watchdog installs one implicitly if enabled alone.
	Spans *spans.Recorder

	// Faults is the machine's fault injector, nil unless Config.Faults was
	// set. Each machine gets its own injector (the PCG state mutates).
	Faults *faultinject.Injector

	telemetry *telemetry.Recorder
	diags     []Diagnostic

	// Metrics holds the machine-wide instruments (engine, mesh, gang
	// scheduler); per-node instruments live on each Node. MetricsSnapshot
	// merges all of them.
	Metrics *metrics.Registry
}

// NewMachine builds the machine: engine, mesh, per-node CPU, NI, frame pool
// and kernel, all wired together. Any options are applied over cfg first.
func NewMachine(cfg Config, opts ...ConfigOption) *Machine {
	for _, o := range opts {
		o(&cfg)
	}
	eng := sim.NewEngine(cfg.Seed)
	if cfg.Watchdog.Enabled() && cfg.Spans == nil {
		// The watchdog's progress fingerprint and report need a recorder.
		cfg.Spans = spans.NewRecorder(cfg.Trace)
	}
	if cfg.Delivery == nil {
		cfg.Delivery = delivery.TwoCase{}
	}
	if cfg.AlwaysBuffered && !cfg.Delivery.KernelBuffered() {
		panic(fmt.Sprintf("glaze: AlwaysBuffered requires a kernel-buffered delivery policy, not %q", cfg.Delivery.Name()))
	}
	m := &Machine{
		Eng:            eng,
		Net:            mesh.New(eng, cfg.W, cfg.H, cfg.Latency),
		cost:           cfg.Cost,
		nextGID:        1,
		policy:         cfg.Delivery,
		alwaysBuffered: cfg.AlwaysBuffered,
		noReclaim:      cfg.NoBufferReclaim,
		Trace:          cfg.Trace,
		Spans:          cfg.Spans,
		Metrics:        metrics.NewRegistry(),
	}
	eng.UseMetrics(m.Metrics)
	if cfg.Profiler != nil {
		eng.UseProfiler(cfg.Profiler)
	}
	m.Net.UseMetrics(m.Metrics)
	if cfg.Faults != nil {
		m.Faults = faultinject.New(*cfg.Faults)
		m.Faults.BindClock(eng.Now)
		m.Net.UseFaults(m.Faults)
	}
	if m.Spans != nil {
		m.Spans.AttachMachine()
		m.Spans.SetPolicy(m.policy.Name())
		m.Net.UseSpans(m.Spans)
	}
	n := cfg.W * cfg.H
	m.Nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		node := &Node{
			Index:   i,
			CPU:     cpu.New(eng, fmt.Sprintf("cpu%d", i)),
			Frames:  vm.NewFrames(cfg.FramesPerNode),
			Metrics: metrics.NewRegistry(),
		}
		node.NI = nic.New(eng, m.Net, i, cfg.NIConfig)
		node.NI.AttachCPU(node.CPU)
		node.NI.UseMetrics(node.Metrics)
		if m.Faults != nil {
			node.NI.UseFaults(m.Faults)
		}
		if m.Spans != nil {
			node.NI.UseSpans(m.Spans)
		}
		m.Nodes[i] = node
	}
	for i := 0; i < n; i++ {
		m.Nodes[i].Kernel = newKernel(m, i)
	}
	if cfg.Watchdog.Enabled() {
		startWatchdog(m, cfg.Watchdog)
	}
	if cfg.Telemetry.Enabled() {
		m.telemetry = telemetry.NewRecorder(cfg.Telemetry)
		newSampler(m, m.telemetry)
	}
	return m
}

// Diagnostic lets a higher-level subsystem (e.g. the CRL coherence layer)
// contribute protocol state and waits-for edges to liveness reports
// without glaze depending on it.
type Diagnostic interface {
	// DiagSections renders the subsystem's state at time at.
	DiagSections(at uint64) []spans.Section
	// WaitEdges reports the subsystem's current waits-for edges.
	WaitEdges() []spans.WaitEdge
}

// RegisterDiag adds a diagnostic provider consulted by Diagnose.
func (m *Machine) RegisterDiag(d Diagnostic) { m.diags = append(m.diags, d) }

// Cost returns the machine's cost model.
func (m *Machine) Cost() CostModel { return m.cost }

// Policy returns the machine's delivery policy (never nil).
func (m *Machine) Policy() delivery.Policy { return m.policy }

// MetricsSnapshot merges the machine-wide and every node's registry into one
// snapshot: counters and histogram contents sum across nodes; gauge maxima
// report the worst single node (per-node high-water semantics).
func (m *Machine) MetricsSnapshot() metrics.Snapshot {
	parts := make([]metrics.Snapshot, 0, len(m.Nodes)+1)
	parts = append(parts, m.Metrics.Snapshot())
	for _, node := range m.Nodes {
		parts = append(parts, node.Metrics.Snapshot())
	}
	return metrics.Merge(parts...)
}

// NewJob creates a gang-scheduled job with one process per node.
func (m *Machine) NewJob(name string) *Job {
	j := &Job{m: m, name: name, gid: m.nextGID}
	m.nextGID++
	if m.nextGID >= nullGID {
		panic("glaze: GID space exhausted")
	}
	j.procs = make([]*Process, len(m.Nodes))
	for i, node := range m.Nodes {
		p := newProcess(node.Kernel, j, j.gid)
		node.Kernel.procs[j.gid] = p
		j.procs[i] = p
	}
	m.jobs = append(m.jobs, j)
	return j
}

// RunUntilDone starts the engine and stops it once every listed job
// completes (or the optional cycle limit is hit; 0 means none). It returns
// the stop time.
func (m *Machine) RunUntilDone(limit uint64, jobs ...*Job) uint64 {
	remaining := 0
	for _, j := range jobs {
		if !j.Done() {
			remaining++
			j.OnDone(func() {
				remaining--
				if remaining == 0 {
					m.Eng.Stop()
				}
			})
		}
	}
	if remaining == 0 {
		return m.Eng.Now()
	}
	if limit != 0 {
		return m.Eng.RunUntil(m.Eng.Now() + limit)
	}
	return m.Eng.Run()
}
