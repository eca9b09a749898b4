// Package fugu is a deterministic, cycle-accounted simulation of the MIT
// FUGU multiprocessor and its Glaze operating system, built to reproduce
// "Exploiting Two-Case Delivery for Fast Protected Messaging" (MacKenzie et
// al., HPCA 1998).
//
// The package is a facade over the implementation layers:
//
//   - a discrete-event engine with coroutine tasks (internal/sim, internal/cpu)
//   - the two-network mesh interconnect (internal/mesh)
//   - the FUGU network interface with GID protection and the revocable
//     interrupt disable (internal/nic)
//   - the Glaze kernel: two-case delivery, virtual buffering, overflow
//     control and the gang scheduler (internal/glaze, internal/vm)
//   - the user-level UDM messaging library (internal/udm)
//   - CRL software shared memory and the paper's applications
//     (internal/crl, internal/apps)
//   - the experiment harness regenerating the paper's tables and figures
//     (internal/harness)
//
// A minimal program sends one message between two nodes:
//
//	m := fugu.NewMachine(fugu.DefaultConfig())
//	job := m.NewJob("hello")
//	ep0 := fugu.Attach(job.Process(0))
//	ep1 := fugu.Attach(job.Process(1))
//	ep1.On(1, func(e *fugu.Env, msg *fugu.Msg) { fmt.Println("got", msg.Args) })
//	job.Process(0).StartMain(func(t *fugu.Task) {
//	    ep0.Env(t).Inject(1, 1, 42)
//	})
//	m.NewGang(1<<40, 0, job).Start()
//	m.RunUntilDone(0, job)
//
// See examples/ for runnable programs and cmd/fugusim for the experiment
// runner.
package fugu

import (
	"fugu/internal/apps"
	"fugu/internal/cpu"
	"fugu/internal/delivery"
	"fugu/internal/glaze"
	"fugu/internal/harness"
	"fugu/internal/udm"
)

// Core machine types.
type (
	// Machine is a simulated FUGU multiprocessor.
	Machine = glaze.Machine
	// Config parameterizes a machine (mesh size, cost model, NI, frames).
	Config = glaze.Config
	// Job is a gang-scheduled parallel application (one process per node).
	Job = glaze.Job
	// Process is one node's half of a job.
	Process = glaze.Process
	// Gang is the system scheduler with skewable per-node clocks.
	Gang = glaze.Gang
	// CostModel carries the cycle constants of Tables 4 and 5.
	CostModel = glaze.CostModel
	// Task is a simulated thread; application code runs in one.
	Task = cpu.Task
)

// UDM user-level messaging types.
type (
	// EP is a process's UDM endpoint.
	EP = udm.EP
	// Env is the execution environment handed to threads and handlers.
	Env = udm.Env
	// Msg is one extracted message.
	Msg = udm.Msg
	// Handler is a user message handler.
	Handler = udm.Handler
	// Counter is the user-level synchronization primitive.
	Counter = udm.Counter
)

// Atomicity implementations (the three columns of Table 4).
const (
	KernelMode    = glaze.KernelMode
	HardAtomicity = glaze.HardAtomicity
	SoftAtomicity = glaze.SoftAtomicity
)

// NewMachine builds a machine: engine, mesh, per-node CPU, NI, frame pool
// and kernel. Optional ConfigOptions are applied over cfg, e.g.
// fugu.NewMachine(fugu.DefaultConfig(), fugu.WithMesh(2, 1)).
func NewMachine(cfg Config, opts ...ConfigOption) *Machine { return glaze.NewMachine(cfg, opts...) }

// DefaultConfig returns the 8-node, soft-atomicity configuration the
// paper's experiments use.
func DefaultConfig() Config { return glaze.DefaultConfig() }

// ConfigOption adjusts a Config without reaching into struct fields.
type ConfigOption = glaze.ConfigOption

// Machine configuration options.
var (
	// NewConfig returns DefaultConfig with options applied.
	NewConfig = glaze.NewConfig
	// WithMesh sets the mesh dimensions (w*h nodes).
	WithMesh = glaze.WithMesh
	// WithAtomicity selects one of Table 4's atomicity implementations.
	WithAtomicity = glaze.WithAtomicity
	// WithFrames sets the per-node physical frame pool size.
	WithFrames = glaze.WithFrames
	// WithMachineSeed sets the simulation seed.
	WithMachineSeed = glaze.WithMachineSeed
	// WithOutputWords sets the NI output-descriptor length in words.
	WithOutputWords = glaze.WithOutputWords
)

// Delivery policies: the receive-side strategy a machine runs under. The
// default is two-case delivery; the alternatives trade protection machinery
// for memory or hardware (see internal/delivery and the policylab
// experiment).
type (
	// DeliveryPolicy decides how messages reach a protected process.
	DeliveryPolicy = delivery.Policy
	// TwoCase is the paper's design: fast path plus kernel-buffered second case.
	TwoCase = delivery.TwoCase
	// ZeroCopyRemap buffers by flipping whole pages instead of copying.
	ZeroCopyRemap = delivery.ZeroCopyRemap
	// BypassRing demultiplexes in NI hardware into pinned per-process rings.
	BypassRing = delivery.BypassRing
)

// Delivery-policy selection and discovery.
var (
	// WithDeliveryPolicy selects a machine's delivery policy (nil = two-case).
	WithDeliveryPolicy = glaze.WithDeliveryPolicy
	// DefaultBypassRing returns the standard 4-page, 128-word-slot ring.
	DefaultBypassRing = delivery.DefaultBypassRing
	// DeliveryPolicies lists the registered policy names (-policy flag values).
	DeliveryPolicies = delivery.Names
	// DeliveryPolicyByName resolves a -policy flag value to its policy.
	DeliveryPolicyByName = delivery.ByName
)

// Costs returns the cost model for one of Table 4's columns.
func Costs(impl glaze.AtomicityImpl) CostModel { return glaze.Costs(impl) }

// Attach binds a UDM endpoint to a process and installs its upcall.
func Attach(p *Process) *EP { return udm.Attach(p) }

// NewCounter returns a user-level synchronization counter.
func NewCounter() *Counter { return udm.NewCounter() }

// Workloads from the paper, re-exported for example programs and benches.
var (
	// NewBarrierApp returns the barrier benchmark.
	NewBarrierApp = apps.NewBarrierApp
	// NewEnum returns the triangle-puzzle enumeration benchmark.
	NewEnum = apps.NewEnum
	// NewSynth returns the synth-N producer-consumer microbenchmark.
	NewSynth = apps.NewSynth
	// NewLU returns the blocked LU decomposition on CRL.
	NewLU = apps.NewLU
	// NewWater returns the particle-dynamics benchmark on CRL.
	NewWater = apps.NewWater
	// NewBarnes returns the Barnes-Hut N-body benchmark on CRL.
	NewBarnes = apps.NewBarnes
)

// Experiment API: named, discoverable experiments run on a parallel worker
// pool (see cmd/fugusim for the CLI).
type (
	// Experiment is one registered reproduction of a table or figure.
	Experiment = harness.Experiment
	// ExperimentResult is a structured experiment outcome.
	ExperimentResult = harness.Result
	// Runner fans an experiment's sweep points out across workers.
	Runner = harness.Runner
	// ExperimentOption configures an experiment run (WithTrials, ...).
	ExperimentOption = harness.Option
	// ExperimentOptions is the resolved option set.
	ExperimentOptions = harness.Options
)

// Experiment discovery and execution.
var (
	// RunExperiment runs a registered experiment by name.
	RunExperiment = harness.Run
	// LookupExperiment finds a registered experiment by name.
	LookupExperiment = harness.Lookup
	// Experiments lists every registered experiment.
	Experiments = harness.Experiments
	// ExperimentNames lists the registered experiment names.
	ExperimentNames = harness.Names
)

// Experiment options.
var (
	// WithTrials sets the trials averaged per sweep point.
	WithTrials = harness.WithTrials
	// WithQuick selects the scaled-down workloads.
	WithQuick = harness.WithQuick
	// WithFull selects the paper-scale workloads.
	WithFull = harness.WithFull
	// WithSeed sets the base seed (trial t runs at seed+t).
	WithSeed = harness.WithSeed
	// WithParallelism sets the Runner's worker count.
	WithParallelism = harness.WithParallelism
	// WithExperimentPolicy runs every sweep point under a delivery policy.
	WithExperimentPolicy = harness.WithDeliveryPolicy
	// NewExperimentOptions resolves a full option set.
	NewExperimentOptions = harness.NewOptions
)

// Typed experiment entry points (each returns its structured result and an
// error; rendering is the caller's job).
var (
	// Table4 reproduces the fast-path cycle counts.
	Table4 = harness.Table4
	// Table5 reproduces the buffered-path costs.
	Table5 = harness.Table5
	// Table6 reproduces the application characteristics.
	Table6 = harness.Table6
	// Fig7and8 runs the schedule-quality sweep behind Figures 7 and 8.
	Fig7and8 = harness.Fig7and8
	// Fig9 sweeps the send interval for synth-N.
	Fig9 = harness.Fig9
	// Fig10 sweeps the buffered-path cost for synth-N.
	Fig10 = harness.Fig10
	// Crucible runs the fault-injection sweep with delivery oracles.
	Crucible = harness.Crucible
	// PolicyLab compares the delivery policies head-to-head under faults.
	PolicyLab = harness.PolicyLab
)
