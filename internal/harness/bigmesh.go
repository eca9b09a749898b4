package harness

import (
	"fmt"

	"fugu/internal/mesh"
	"fugu/internal/metrics"
	"fugu/internal/sim"
)

// BigMeshConfig parameterizes the open-loop mesh traffic workload used to
// exercise the parallel partition driver. Unlike the glaze experiments —
// which share zero-latency cross-node state (gang schedules, job counters,
// the fault injector's stream) and therefore run on one serial engine —
// bigmesh is partition-clean by construction: every node's state is
// touched only from its own engine, all cross-node interaction travels
// through the mesh at physical latency, and randomness comes from per-node
// streams seeded independently of the partition count. That makes it safe
// under parallel groups and deterministic across any partition count.
type BigMeshConfig struct {
	W, H     int    // mesh dimensions
	Parts    int    // partition count; <=1 runs a plain serial engine
	Msgs     int    // messages each node injects
	Words    int    // payload words per packet (also sets the lookahead)
	MeanGap  uint64 // mean cycles between a node's injections
	QueueCap int    // receiver input-queue capacity (refusals beyond it)
	Seed     uint64
}

// DefaultBigMesh returns the bench configuration: the paper-scale 64x64
// mesh, or a 32x32 quick variant CI can afford. QueueCap is sized so the
// default run is refusal-free: refusals resolve at the exact cycle a drain
// frees space, which is the one place same-cycle ordering (serial seq order
// vs. staged source order) could leak into results.
func DefaultBigMesh(quick bool) BigMeshConfig {
	cfg := BigMeshConfig{
		W: 64, H: 64, Msgs: 80, Words: 8, MeanGap: 100, QueueCap: 4096, Seed: 1,
	}
	if quick {
		// Fewer nodes but a tighter injection gap: each lookahead window
		// still carries hundreds of events per partition, so the quick
		// variant measures the window protocol, not goroutine overhead.
		cfg.W, cfg.H, cfg.Msgs, cfg.MeanGap = 32, 32, 60, 50
	}
	return cfg
}

// BigMeshResult is one run's observables. Every field except Barriers and
// Staged (which describe the partition driver itself) is identical across
// partition counts — TestBigMeshDeterminism pins that.
type BigMeshResult struct {
	Nodes     int
	Cycles    uint64 // simulated end time
	Events    uint64 // dispatched engine events (sum over partitions)
	Injected  uint64
	Delivered uint64
	// LatencySum totals per-packet network latency (arrival - send), a
	// commutative sum so same-cycle arrival order cannot perturb it.
	LatencySum uint64
	MaxBatch   int    // largest same-cycle batch one drain consumed
	Refused    uint64 // endpoint queue-full rejections (0 at the default config)
	Barriers   uint64 // parallel window count (0 when serial)
	Staged     uint64 // cross-partition events staged (0 when serial)
	Metrics    metrics.Snapshot
}

// Sites for the engine cost profiler / event attribution.
var (
	siteBigInject = sim.NewSite("bigmesh.inject")
	siteBigDrain  = sim.NewSite("bigmesh.drain")
)

// bigNode is one node's injector state and receive endpoint. All fields
// are owned by the node's partition engine; arrivals from other partitions
// reach Arrive only through the staged mesh.deliver event, which the
// partition driver hands to this node's engine.
type bigNode struct {
	bm   *bigMesh
	idx  int
	rng  *sim.Rand // per-node stream, independent of partitioning
	sent int

	// queue batches same-cycle deliveries: the first arrival schedules one
	// zero-delay drain event and later same-cycle arrivals just append, so
	// a k-packet burst costs one dispatch instead of k (the same batching
	// that pays off on the crlstress allocation profile).
	queue    []*mesh.Packet
	drainDue bool
	received uint64
	latSum   uint64
	maxBatch int
	refusals uint64
}

type bigMesh struct {
	cfg      BigMeshConfig
	net      *mesh.Net
	nodes    []*bigNode
	injectFn func(any)
	drainFn  func(any)
}

// Arrive implements mesh.Endpoint.
func (nd *bigNode) Arrive(pkt *mesh.Packet) bool {
	if len(nd.queue) >= nd.bm.cfg.QueueCap {
		nd.refusals++
		return false
	}
	nd.queue = append(nd.queue, pkt)
	if !nd.drainDue {
		nd.drainDue = true
		// Zero delay: the drain lands at the current cycle with a later
		// sequence number, i.e. after every already-scheduled same-cycle
		// arrival, in serial and partitioned runs alike (arrivals are
		// always scheduled at earlier cycles than they land).
		nd.bm.net.EngineFor(nd.idx).ScheduleArgSite(siteBigDrain, 0, nd.bm.drainFn, nd)
	}
	return true
}

func (bm *bigMesh) drain(arg any) {
	nd := arg.(*bigNode)
	batch := nd.queue
	if len(batch) > nd.maxBatch {
		nd.maxBatch = len(batch)
	}
	for _, pkt := range batch {
		nd.latSum += pkt.ArrivedAt - pkt.SentAt
		nd.received++
		bm.net.Release(nd.idx, pkt)
	}
	nd.queue = nd.queue[:0]
	nd.drainDue = false
	// Re-offer anything the cap refused; re-accepted packets schedule the
	// next drain through Arrive as usual.
	bm.net.NotifySpace(nd.idx, mesh.Main)
}

func (bm *bigMesh) inject(arg any) {
	nd := arg.(*bigNode)
	n := len(bm.nodes)
	dst := int(nd.rng.Uint64n(uint64(n - 1)))
	if dst >= nd.idx {
		dst++ // uniform over the other n-1 nodes
	}
	pkt := bm.net.Acquire(nd.idx, bm.cfg.Words)
	pkt.Words[0] = uint64(nd.idx)
	pkt.Words[1] = uint64(nd.sent)
	for i := 2; i < len(pkt.Words); i++ {
		pkt.Words[i] = 0
	}
	bm.net.SendPacket(mesh.Main, nd.idx, dst, pkt)
	nd.sent++
	if nd.sent < bm.cfg.Msgs {
		gap := nd.rng.UniformAround(bm.cfg.MeanGap)
		bm.net.EngineFor(nd.idx).ScheduleArgSite(siteBigInject, gap, bm.injectFn, nd)
	}
}

// RunBigMesh runs the workload to completion and returns its observables.
// Parts <= 1 uses a single serial engine; Parts > 1 builds a Parallel group
// with the mesh's minimum cross-node latency as the lookahead (one hop,
// packet-sized payload — every remote delivery is at least that far in the
// future, which is exactly the promise conservative windows need).
func RunBigMesh(cfg BigMeshConfig) (BigMeshResult, error) {
	n := cfg.W * cfg.H
	parts := cfg.Parts
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	lat := mesh.DefaultLatency()
	lookahead := lat.Delay(1, cfg.Words)

	engs := make([]*sim.Engine, n)
	var group *sim.Group
	var regs []*metrics.Registry
	var eng0 *sim.Engine
	if parts > 1 {
		group = sim.NewParallelGroup(cfg.Seed, parts, lookahead)
		for p := 0; p < parts; p++ {
			// One registry per partition: metrics instruments are shared
			// mutable state, so each shard counts into its own and the
			// result merges them (order-independent by construction).
			reg := metrics.NewRegistry()
			group.Shard(p).UseMetrics(reg)
			regs = append(regs, reg)
		}
		for i := range engs {
			engs[i] = group.Shard(i * parts / n)
		}
		eng0 = group.Shard(0)
	} else {
		eng0 = sim.NewEngine(cfg.Seed)
		reg := metrics.NewRegistry()
		eng0.UseMetrics(reg)
		regs = append(regs, reg)
		for i := range engs {
			engs[i] = eng0
		}
	}

	net := mesh.New(eng0, cfg.W, cfg.H, lat)
	net.ShardEngines(engs)

	bm := &bigMesh{cfg: cfg, net: net, nodes: make([]*bigNode, n)}
	bm.injectFn = bm.inject
	bm.drainFn = bm.drain
	for i := 0; i < n; i++ {
		nd := &bigNode{
			bm: bm, idx: i,
			// Per-node streams derive from (seed, node) only, so traffic is
			// identical no matter how nodes map to partitions.
			rng: sim.NewRand(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))),
		}
		bm.nodes[i] = nd
		net.Register(i, mesh.Main, nd)
		if cfg.Msgs > 0 {
			gap := nd.rng.UniformAround(cfg.MeanGap)
			net.EngineFor(i).ScheduleArgSite(siteBigInject, gap, bm.injectFn, nd)
		}
	}

	end := eng0.Run()

	res := BigMeshResult{Nodes: n, Cycles: end}
	for _, nd := range bm.nodes {
		res.Injected += uint64(nd.sent)
		res.Delivered += nd.received
		res.LatencySum += nd.latSum
		res.Refused += nd.refusals
		if nd.maxBatch > res.MaxBatch {
			res.MaxBatch = nd.maxBatch
		}
	}
	if group != nil {
		st := group.Stats()
		res.Barriers, res.Staged = st.Barriers, st.Staged
	}
	snaps := make([]metrics.Snapshot, len(regs))
	for i, reg := range regs {
		snaps[i] = reg.Snapshot()
	}
	res.Metrics = metrics.Merge(snaps...)
	res.Events = res.Metrics.Counters["sim.events"]

	want := uint64(n * cfg.Msgs)
	if res.Injected != want || res.Delivered != want {
		return res, fmt.Errorf("bigmesh: injected %d delivered %d, want %d each",
			res.Injected, res.Delivered, want)
	}
	return res, nil
}
