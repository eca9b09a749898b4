// Package mesh models the FUGU interconnect: a 2-D mesh carrying two
// independent logical networks — the main user/data network and the reserved
// operating-system network the paper relies on for a deadlock-free path to
// backing store (implemented in the UCU as a bit-serial network).
//
// The model is deliberately at the level the paper's experiments need:
// deterministic per-pair in-order delivery, dimension-ordered hop latency,
// per-word serialization, and receiver backpressure (a full NI input queue
// leaves packets queued in the network, which is exactly the condition the
// atomicity-timeout mechanism exists to police). Router microarchitecture is
// out of scope (see DESIGN.md).
package mesh

import (
	"fmt"

	"fugu/internal/faultinject"
	"fugu/internal/metrics"
	"fugu/internal/sim"
	"fugu/internal/spans"
)

// Class selects one of the two logical networks.
type Class int

// Logical networks.
const (
	Main Class = iota // user messages
	OS                // reserved kernel network (paging, overflow control)
	numClasses
)

func (c Class) String() string {
	if c == Main {
		return "main"
	}
	return "os"
}

// Packet is one message in flight. Words[0] is the routing header written by
// the sender's NI (destination and GID stamp); Words[1] is the handler
// address; the rest is payload.
type Packet struct {
	ID    uint64 // global injection sequence number
	Src   int
	Dst   int
	Class Class
	Words []uint64

	SentAt    uint64 // injection time
	ArrivedAt uint64 // time the packet reached the destination port

	// FaultMismatch marks a packet whose GID the receiving NI must treat
	// as mismatched regardless of the stamp (deterministic fault
	// injection); the kernel still demultiplexes it by its real header.
	FaultMismatch bool

	// pooled is set while the packet sits on a free list, so a second
	// Release of the same packet panics instead of letting two later
	// messages share its Words.
	pooled bool
}

// Len returns the packet length in words.
func (p *Packet) Len() int { return len(p.Words) }

// Endpoint receives packets at a node. Arrive must not consume simulated
// time; it returns false to refuse the packet (input queue full), in which
// case the network holds it and re-offers after NotifySpace.
type Endpoint interface {
	Arrive(pkt *Packet) bool
}

// LatencyModel gives the fixed delivery cost of a packet.
type LatencyModel struct {
	Base    uint64 // router pipeline + launch-to-head latency
	PerHop  uint64 // per mesh hop
	PerWord uint64 // serialization per word
}

// DefaultLatency roughly matches Alewife's network: a handful of cycles of
// base latency plus small per-hop and per-word costs.
func DefaultLatency() LatencyModel {
	return LatencyModel{Base: 10, PerHop: 2, PerWord: 1}
}

// Delay computes the latency for a packet of n words over h hops.
func (m LatencyModel) Delay(h, n int) uint64 {
	return m.Base + m.PerHop*uint64(h) + m.PerWord*uint64(n)
}

// Net is the interconnect for a machine of W×H nodes.
type Net struct {
	eng       *sim.Engine
	w, h      int
	lat       LatencyModel
	nextID    uint64
	deliverFn func(any) // n.deliver bound once; Send schedules it with the packet as arg

	// engs maps each node to its partition engine, nil when the whole mesh
	// lives on one engine. parallel is set when those engines belong to a
	// parallel group: injections then route through the conservative
	// staging protocol and per-node ID lanes (see ShardEngines).
	engs     []*sim.Engine
	parallel bool
	// ids are the per-node injection counters used instead of nextID in
	// parallel mode (a shared counter would race and make IDs depend on
	// worker interleaving). The source index in the high bits keeps IDs
	// globally unique and deterministic.
	ids []uint64

	endpoints [numClasses][]Endpoint
	// blocked packets per (class, dst), FIFO in arrival order.
	blocked [numClasses][][]*Packet
	// inflight enforces per-(src,dst) FIFO: a short packet must not
	// overtake an earlier long one on the same route (packets follow the
	// same path and cannot reorder in a wormhole mesh). Indexed [class][src],
	// each list holds the last arrival time per destination for the
	// source's packets in flight (landed entries are dropped when a new
	// destination is added, see order), so the guard costs memory per route
	// in use rather than per node pair. The lists start as windows of one
	// backing array (see New); only the source's engine touches its list.
	inflight [numClasses][][]arrival
	// pool recycles packets per engine, indexed by the engine's partition
	// (sim.Engine.Part): Acquire pops the free list of the node's engine,
	// Release pushes it. A packet released at its receiver is reusable by
	// every sender on that engine, so the pool tracks peak traffic in
	// flight, and one list per engine keeps it partition-clean (only that
	// shard's goroutine touches it).
	pool [][]*Packet

	// Metrics instruments, nil (no-op) unless UseMetrics is called.
	mPackets [numClasses]*metrics.Counter
	mWords   [numClasses]*metrics.Counter
	mRefused [numClasses]*metrics.Counter
	mBlocked *metrics.Gauge // packets parked in-network (link back-pressure)

	// rec observes message lifecycles, nil (no-op) unless UseSpans is called.
	rec *spans.Recorder

	// inj adds fault-plan latency to main-network sends, nil (no-op)
	// unless UseFaults is called.
	inj *faultinject.Injector
}

// UseSpans installs a lifecycle recorder: every Send begins a span and
// arrival/backpressure transitions are recorded against the packet ID.
func (n *Net) UseSpans(rec *spans.Recorder) { n.rec = rec }

// UseFaults installs a fault injector: main-network sends pick up link-stall
// and hot-spot delays from the plan. The OS network is never delayed — its
// deadlock-free guarantee is what overflow control and paging stand on.
func (n *Net) UseFaults(inj *faultinject.Injector) { n.inj = inj }

// UseMetrics binds the network's instruments into a registry: per-class
// traffic counters ("mesh.<class>.packets", ".words", ".refused") and a
// "mesh.blocked" gauge tracking packets held in the network by receiver
// back-pressure — its Max is the worst instantaneous congestion, the mesh
// link-utilization signal the overflow experiments care about.
func (n *Net) UseMetrics(r *metrics.Registry) {
	for c := Class(0); c < numClasses; c++ {
		n.mPackets[c] = r.Counter("mesh." + c.String() + ".packets")
		n.mWords[c] = r.Counter("mesh." + c.String() + ".words")
		n.mRefused[c] = r.Counter("mesh." + c.String() + ".refused")
	}
	n.mBlocked = r.Gauge("mesh.blocked")
}

// arrival is one FIFO-guard entry: the arrival time of the last packet a
// source sent to dst.
type arrival struct {
	dst int
	at  uint64
}

// inflightCap is the initial per-source capacity of the FIFO guard: the
// number of destinations a source can have packets in flight to before its
// list grows out of the shared backing array.
const inflightCap = 8

// New creates a mesh of w×h nodes on the engine with the given latency model.
func New(eng *sim.Engine, w, h int, lat LatencyModel) *Net {
	n := w * h
	net := &Net{eng: eng, w: w, h: h, lat: lat}
	net.deliverFn = func(arg any) { net.deliver(arg.(*Packet)) }
	net.pool = make([][]*Packet, 1)
	k := min(n, inflightCap)
	backing := make([]arrival, int(numClasses)*n*k)
	for c := range net.endpoints {
		net.endpoints[c] = make([]Endpoint, n)
		net.blocked[c] = make([][]*Packet, n)
		net.inflight[c] = make([][]arrival, n)
		for src := range net.inflight[c] {
			// Full-slice windows: a list that outgrows its window
			// reallocates instead of spilling into its neighbour's.
			off := (c*n + src) * k
			net.inflight[c][src] = backing[off : off : off+k]
		}
	}
	return net
}

// ShardEngines places each node on its partition engine (engs[node]); the
// constructor engine remains the default for nodes past the slice. With a
// parallel group, packet IDs switch to per-source lanes (src<<40 | seq) and
// UseMetrics/UseSpans/UseFaults must not be used — those observers are
// shared mutable state, exactly what parallel partitions cannot have.
func (n *Net) ShardEngines(engs []*sim.Engine) {
	if len(engs) != n.Nodes() {
		panic(fmt.Sprintf("mesh: ShardEngines got %d engines for %d nodes", len(engs), n.Nodes()))
	}
	n.engs = engs
	n.parallel = engs[0].Group() != nil
	if n.parallel {
		n.ids = make([]uint64, n.Nodes())
	}
	parts := 1
	for _, e := range engs {
		parts = max(parts, e.Part()+1)
	}
	n.pool = make([][]*Packet, parts)
}

// EngineFor returns the engine owning a node's events: the node's
// partition engine after ShardEngines, the constructor engine otherwise.
// Workloads schedule a node's local events through it so they land on the
// heap that node's deliveries drain from.
func (n *Net) EngineFor(node int) *sim.Engine { return n.engAt(node) }

// engAt returns the engine owning a node's events.
func (n *Net) engAt(node int) *sim.Engine {
	if n.engs == nil {
		return n.eng
	}
	return n.engs[node]
}

// Nodes returns the node count.
func (n *Net) Nodes() int { return n.w * n.h }

// Hops returns the dimension-ordered (XY) hop count between two nodes.
func (n *Net) Hops(src, dst int) int {
	sx, sy := src%n.w, src/n.w
	dx, dy := dst%n.w, dst/n.w
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(sx-dx) + abs(sy-dy)
}

// Register installs the endpoint for a node on one logical network.
func (n *Net) Register(node int, class Class, ep Endpoint) {
	n.endpoints[class][node] = ep
}

// Acquire returns a packet whose Words slice has length words, recycled
// from the free list of the node's engine when one is available. The caller
// fills Words and injects with SendPacket; a receiver done with a packet
// hands it back via Release. Pooling never changes event order or RNG
// draws, so results are identical to freshly allocated packets.
func (n *Net) Acquire(node, words int) *Packet {
	var pkt *Packet
	p := n.engAt(node).Part()
	if q := n.pool[p]; len(q) > 0 {
		pkt = q[len(q)-1]
		q[len(q)-1] = nil
		n.pool[p] = q[:len(q)-1]
	} else {
		pkt = &Packet{}
	}
	pkt.pooled = false
	if cap(pkt.Words) < words {
		pkt.Words = make([]uint64, words)
	} else {
		pkt.Words = pkt.Words[:words]
	}
	return pkt
}

// Release returns a packet to the free list of node's engine. Callers must
// only release packets no component still references. Every receive path
// qualifies once the packet has left the NI input queue:
//   - fast dispose: the handler read the words from the input window before
//     disposing;
//   - kernel and stray drops, and OS-network messages: the kernel read the
//     words it needed before releasing;
//   - buffered inserts and offload demux: delivery.Store.Push copies the
//     words into the store's own pages (or a private copy), so the store
//     never holds the packet's Words.
//
// Releasing a packet that is already on a free list panics.
func (n *Net) Release(node int, pkt *Packet) {
	if pkt.pooled {
		panic(fmt.Sprintf("mesh: packet %d released twice", pkt.ID))
	}
	pkt.pooled = true
	p := n.engAt(node).Part()
	n.pool[p] = append(n.pool[p], pkt)
}

// Send injects a packet. words[0] must already hold the routing header; the
// destination is passed explicitly since header encoding belongs to the NI.
// Delivery is in order per (src, dst, class) pair and costs
// Base + PerHop*hops + PerWord*len cycles; local sends (src == dst) skip the
// hop cost but still traverse the interface.
func (n *Net) Send(class Class, src, dst int, words []uint64) *Packet {
	pkt := n.Acquire(src, 0)
	pkt.Words = words
	return n.SendPacket(class, src, dst, pkt)
}

// SendPacket injects a caller-filled packet (see Acquire): the Send fast
// path without the per-message Words allocation. The packet's Words must
// already hold the routing header and payload.
func (n *Net) SendPacket(class Class, src, dst int, pkt *Packet) *Packet {
	if src < 0 || src >= n.Nodes() {
		panic(fmt.Sprintf("mesh: send from invalid node %d", src))
	}
	if dst < 0 || dst >= n.Nodes() {
		panic(fmt.Sprintf("mesh: send to invalid node %d", dst))
	}
	se := n.engAt(src)
	now := se.Now()
	pkt.Src, pkt.Dst, pkt.Class = src, dst, class
	pkt.SentAt = now
	pkt.ArrivedAt = 0
	pkt.FaultMismatch = false
	if n.parallel {
		pkt.ID = uint64(src)<<40 | n.ids[src]
		n.ids[src]++
	} else {
		pkt.ID = n.nextID
		n.nextID++
	}
	n.rec.Begin(pkt.SentAt, pkt.ID, class.String(), src, dst, len(pkt.Words))
	n.mPackets[class].Inc()
	n.mWords[class].Add(uint64(len(pkt.Words)))
	at := now + n.lat.Delay(n.Hops(src, dst), len(pkt.Words))
	if class == Main {
		// Fault-plan congestion lands before the FIFO clamp below, so
		// injected stalls can delay but never reorder a pair's traffic.
		at += n.inj.SendDelay(src, dst)
	}
	at = n.order(class, src, dst, now, at)
	se.CrossScheduleArgAtSite(n.engAt(dst), siteDeliver, at, n.deliverFn, pkt)
	return pkt
}

// order applies the same-route FIFO guard to a packet src sends to dst at
// now, due at at: a short packet sent after a long one queues behind it
// rather than overtaking (length-dependent latency must not reorder a
// pair's traffic). It returns the clamped arrival and records it in src's
// in-flight list. A route already on the list is updated in place; a new
// one is appended after dropping every entry that arrived strictly before
// now: at is never below now, so those can no longer clamp anything. An
// arrival equal to now must stay — with a zero-latency model a same-cycle
// send lands at now and must still push the next one to now+1.
func (n *Net) order(class Class, src, dst int, now, at uint64) uint64 {
	q := n.inflight[class][src]
	for i := range q {
		if e := &q[i]; e.dst == dst {
			if at <= e.at {
				at = e.at + 1
			}
			e.at = at
			return at
		}
	}
	kept := q[:0]
	for _, e := range q {
		if e.at >= now {
			kept = append(kept, e)
		}
	}
	n.inflight[class][src] = append(kept, arrival{dst: dst, at: at})
	return at
}

// siteDeliver labels packet-arrival events for the engine cost profiler.
var siteDeliver = sim.NewSite("mesh.deliver")

// deliver offers pkt to its destination, queueing it behind any packets
// already blocked there so per-pair order is preserved even across refusals.
func (n *Net) deliver(pkt *Packet) {
	pkt.ArrivedAt = n.engAt(pkt.Dst).Now()
	n.rec.Arrive(pkt.ArrivedAt, pkt.ID)
	q := n.blocked[pkt.Class][pkt.Dst]
	if len(q) > 0 {
		// Keep strict arrival order: never bypass blocked packets.
		n.blocked[pkt.Class][pkt.Dst] = append(q, pkt)
		n.mBlocked.Add(1)
		n.rec.NetBlock(pkt.ArrivedAt, pkt.ID)
		return
	}
	ep := n.endpoints[pkt.Class][pkt.Dst]
	if ep == nil {
		panic(fmt.Sprintf("mesh: no endpoint for node %d class %s", pkt.Dst, pkt.Class))
	}
	if !ep.Arrive(pkt) {
		n.mRefused[pkt.Class].Inc()
		n.blocked[pkt.Class][pkt.Dst] = append(q, pkt)
		n.mBlocked.Add(1)
		n.rec.NetBlock(pkt.ArrivedAt, pkt.ID)
	}
}

// NotifySpace tells the network a node freed input capacity on a class;
// blocked packets are re-offered in arrival order until one is refused.
func (n *Net) NotifySpace(node int, class Class) {
	q := n.blocked[class][node]
	for len(q) > 0 {
		pkt := q[0]
		if !n.endpoints[class][node].Arrive(pkt) {
			break
		}
		copy(q, q[1:])
		q = q[:len(q)-1]
		n.mBlocked.Add(-1)
	}
	n.blocked[class][node] = q
}

// BlockedAt reports how many packets are waiting in the network for a node.
func (n *Net) BlockedAt(node int, class Class) int {
	return len(n.blocked[class][node])
}
