// Package crl is an all-software distributed shared memory system in the
// style of CRL (C Region Library, Johnson et al., SOSP '95), the programming
// model three of the paper's benchmarks use. Applications map fixed-size
// regions, bracket accesses with start/end read/write operations, and the
// library keeps copies coherent with a home-based directory protocol built
// entirely on UDM messages — producing exactly the traffic the paper
// describes: "many low-latency request-reply packets mixed with fewer larger
// data packets".
package crl

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/metrics"
	"fugu/internal/udm"
)

// RegionID names a region machine-wide. A region's home node is RegionID %
// nodes.
type RegionID uint32

// state of a locally mapped copy.
type state int

const (
	invalid state = iota
	shared
	exclusive
)

// Region is one node's mapping of a shared region.
type Region struct {
	node *Node
	id   RegionID
	home int
	st   state
	data []uint64

	readers int  // active local read sections
	writing bool // active local write section
	// acq marks a thread blocked waiting for a grant on this region. A
	// freshly granted copy is protected from flush/invalidation until the
	// acquirer has opened (and closed) its section — without this, a busy
	// home can steal a grant back before the grantee ever wakes, and the
	// grantee waits forever (livelock). Only a copy that already satisfies
	// the acquire is protected (see grantInHand); a stale copy held while
	// waiting must stay revocable or the protocol deadlocks.
	acq acqKind

	// Coherence actions deferred until the local section closes.
	invPending   bool
	flushPending bool

	wait *udm.Counter // signalled by protocol handlers on state change
	gen  uint64       // bumped whenever st changes (wake predicate)
}

// Len returns the region size in words.
func (r *Region) Len() int { return len(r.data) }

// Read returns word i; only valid inside a read or write section.
func (r *Region) Read(i int) uint64 {
	if r.readers == 0 && !r.writing {
		panic(fmt.Sprintf("crl: read of region %d outside a section", r.id))
	}
	return r.data[i]
}

// Write stores word i; only valid inside a write section.
func (r *Region) Write(i int, v uint64) {
	if !r.writing {
		panic(fmt.Sprintf("crl: write to region %d outside a write section", r.id))
	}
	r.data[i] = v
}

// Node is one node's CRL instance, bound to a UDM endpoint.
type Node struct {
	ep    *udm.EP
	self  int
	nodes int

	regions map[RegionID]*Region
	dir     map[RegionID]*dirEntry // directory entries for home regions

	// mHits and mMisses count section starts served locally and via the
	// protocol.
	mHits, mMisses *metrics.Counter
}

// handler id base: CRL claims 0x100..0x1ff of the handler space.
const (
	hReadReq = 0x100 + iota
	hWriteReq
	hFlushReq
	hInvalidate
	hInvAck
	hFlushData
	hReadReply
	hWriteReply
)

// New binds a CRL instance to an endpoint and registers its protocol
// handlers. Every node of the job must create one before any region use.
func New(ep *udm.EP, nodes int) *Node {
	n := &Node{
		ep:      ep,
		self:    ep.Node(),
		nodes:   nodes,
		regions: make(map[RegionID]*Region),
		dir:     make(map[RegionID]*dirEntry),
	}
	r := ep.Process().Metrics()
	n.mHits = r.Counter("crl.hits")
	n.mMisses = r.Counter("crl.misses")
	n.registerHandlers()
	ep.Process().Kernel().Machine().RegisterDiag(n)
	return n
}

// homeOf returns a region's home node.
func (n *Node) homeOf(id RegionID) int { return int(id) % n.nodes }

// Create declares a region of size words with its home on this node and
// returns the home mapping. It must be called on the home node before any
// other node maps the region; cross-node creation ordering is the
// application's barrier problem, as in CRL.
func (n *Node) Create(id RegionID, size int) *Region {
	if n.homeOf(id) != n.self {
		panic(fmt.Sprintf("crl: Create(%d) on node %d, home is %d", id, n.self, n.homeOf(id)))
	}
	if _, dup := n.dir[id]; dup {
		panic(fmt.Sprintf("crl: region %d already created", id))
	}
	n.dir[id] = newDirEntry(n.nodes)
	return n.Map(id, size)
}

// Map returns this node's mapping of a region (creating an invalid local
// copy on first use). size must match the creator's.
func (n *Node) Map(id RegionID, size int) *Region {
	if r, ok := n.regions[id]; ok {
		if r.Len() != size {
			panic(fmt.Sprintf("crl: region %d mapped with size %d, was %d", id, size, r.Len()))
		}
		return r
	}
	r := &Region{
		node: n,
		id:   id,
		home: n.homeOf(id),
		data: make([]uint64, size),
		wait: udm.NewCounter(),
	}
	if r.home == n.self {
		r.st = exclusive // the home copy starts as the only copy
	}
	n.regions[id] = r
	return r
}

// acqKind classifies a pending section acquisition.
type acqKind int

const (
	acqNone acqKind = iota
	acqRead
	acqWrite
)

// grantInHand reports whether a pending acquire has been satisfied but the
// acquiring thread has not yet opened its section.
func (r *Region) grantInHand() bool {
	switch r.acq {
	case acqRead:
		return r.st != invalid
	case acqWrite:
		return r.st == exclusive
	}
	return false
}

// setState transitions the local copy and wakes section waiters.
func (r *Region) setState(s state) {
	r.st = s
	r.gen++
	r.wait.Add(1)
}

// StartRead opens a read section, fetching a shared copy if needed.
func (n *Node) StartRead(t *cpu.Task, r *Region) {
	e := n.ep.Env(t)
	e.Spend(costSectionCheck)
	if r.st == invalid {
		n.mMisses.Inc()
		r.acq = acqRead
		target := r.wait.Value() + 1
		e.Inject(r.home, hReadReq, uint64(r.id), uint64(n.self))
		// Wait until a reply handler upgrades the copy.
		for r.st == invalid {
			r.wait.WaitFor(t, target)
			target = r.wait.Value() + 1
		}
	} else {
		n.mHits.Inc()
	}
	r.readers++
	r.acq = acqNone
}

// EndRead closes a read section, performing any invalidation deferred while
// the section was open.
func (n *Node) EndRead(t *cpu.Task, r *Region) {
	if r.readers == 0 {
		panic("crl: EndRead without StartRead")
	}
	t.Spend(costSectionCheck)
	r.readers--
	if r.readers == 0 {
		n.finishDeferred(t, r)
	}
}

// finishDeferred completes coherence work postponed until section close:
// a deferred invalidation or flush at a caching node, or a home-side
// transaction waiting for the home's own section to end.
func (n *Node) finishDeferred(t *cpu.Task, r *Region) {
	e := n.ep.Env(t)
	if r.invPending {
		r.invPending = false
		r.setState(invalid)
		e.Inject(r.home, hInvAck, uint64(r.id))
	}
	if r.flushPending {
		r.flushPending = false
		r.setState(invalid)
		n.sendData(e, r.home, hFlushData, r.id, r.data)
	}
	if d := n.dir[r.id]; d != nil && d.homeWait && !r.writing && (d.cur.op == opRead || r.readers == 0) {
		// The resumed transaction mutates the directory and sends its
		// grant from the application thread. Message handlers must not
		// interleave, or a later transaction's flush request could be
		// launched before this grant's data and overtake it on the wire;
		// an atomic section keeps the update-and-send indivisible, exactly
		// as handler-context transactions are.
		//
		// Atomicity must be entered BEFORE the entry is touched:
		// BeginAtomic charges cycles — a preemption point — and a request
		// arriving in that window used to see busy=false, start its own
		// transaction and overwrite d.cur, silently dropping the deferred
		// request (the lost-request deadlock dissected in
		// docs/crl-deadlock-0x9459729f43aff4c8.md). Re-validate the
		// deferral and snapshot the request once atomic.
		wasAtomic := e.Atomic()
		if !wasAtomic {
			e.BeginAtomic()
		}
		if d.homeWait && !r.writing && (d.cur.op == opRead || r.readers == 0) {
			req := d.cur
			d.homeWait = false
			d.busy = false
			n.startTxn(e, d, r.id, req)
		}
		if !wasAtomic {
			e.EndAtomic()
		}
	}
}

// StartWrite opens a write section, acquiring exclusive ownership.
func (n *Node) StartWrite(t *cpu.Task, r *Region) {
	e := n.ep.Env(t)
	e.Spend(costSectionCheck)
	if r.writing || r.readers > 0 {
		panic("crl: nested sections on one region are not supported")
	}
	if r.st != exclusive {
		n.mMisses.Inc()
		r.acq = acqWrite
		target := r.wait.Value() + 1
		e.Inject(r.home, hWriteReq, uint64(r.id), uint64(n.self))
		for r.st != exclusive {
			r.wait.WaitFor(t, target)
			target = r.wait.Value() + 1
		}
	} else {
		n.mHits.Inc()
	}
	r.writing = true
	r.acq = acqNone
}

// EndWrite closes a write section. Ownership is released lazily: the copy
// stays exclusive here until another node's request pulls it away.
func (n *Node) EndWrite(t *cpu.Task, r *Region) {
	if !r.writing {
		panic("crl: EndWrite without StartWrite")
	}
	t.Spend(costSectionCheck)
	r.writing = false
	n.finishDeferred(t, r)
}

// section-check bookkeeping cost (state test + count update), cycles.
const costSectionCheck = 10

// HomeData exposes the home copy of a region for post-run verification.
// It panics when called away from the home or while a remote owner holds
// the only valid copy (the caller's verification logic is wrong then).
func (n *Node) HomeData(id RegionID) []uint64 {
	d := n.dir[id]
	if d == nil {
		panic(fmt.Sprintf("crl: HomeData(%d) away from home", id))
	}
	if d.mode == modeExclusive && d.owner != -1 && d.owner != n.self {
		panic(fmt.Sprintf("crl: HomeData(%d) while node %d owns the copy", id, d.owner))
	}
	return n.regions[id].data
}
