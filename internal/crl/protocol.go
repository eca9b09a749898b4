package crl

import (
	"fmt"

	"fugu/internal/udm"
)

// dirMode is the home directory state for one region.
type dirMode int

const (
	modeShared    dirMode = iota // home copy valid; zero or more sharers
	modeExclusive                // exactly one owner holds the valid copy
)

type opKind int

const (
	opRead opKind = iota
	opWrite
)

type dirReq struct {
	op   opKind
	from int
}

// dirEntry is the per-region directory at the home node. Transactions are
// serialized: while one is in flight (busy), later requests queue.
type dirEntry struct {
	mode    dirMode
	owner   int
	sharers []bool

	busy        bool
	cur         dirReq
	pendingAcks int
	homeWait    bool // transaction deferred until the home's section closes
	queue       []dirReq
}

func newDirEntry(nodes int) *dirEntry {
	return &dirEntry{mode: modeExclusive, owner: -1, sharers: make([]bool, nodes)}
}

// registerHandlers installs the protocol message handlers on the endpoint.
func (n *Node) registerHandlers() {
	n.ep.On(hReadReq, func(e *udm.Env, m *udm.Msg) {
		n.homeRequest(e, dirReq{opRead, int(m.Args[1])}, RegionID(m.Args[0]))
	})
	n.ep.On(hWriteReq, func(e *udm.Env, m *udm.Msg) {
		n.homeRequest(e, dirReq{opWrite, int(m.Args[1])}, RegionID(m.Args[0]))
	})
	n.ep.On(hFlushReq, func(e *udm.Env, m *udm.Msg) {
		n.flushRequested(e, RegionID(m.Args[0]))
	})
	n.ep.On(hInvalidate, func(e *udm.Env, m *udm.Msg) {
		n.invalidated(e, RegionID(m.Args[0]))
	})
	n.ep.On(hInvAck, func(e *udm.Env, m *udm.Msg) {
		n.invAck(e, RegionID(m.Args[0]))
	})
	n.ep.On(hFlushData, func(e *udm.Env, m *udm.Msg) {
		n.flushData(e, RegionID(m.Args[0]), m.Args[1:])
	})
	n.ep.On(hReadReply, func(e *udm.Env, m *udm.Msg) {
		n.fillReply(RegionID(m.Args[0]), m.Args[1:], shared)
	})
	n.ep.On(hWriteReply, func(e *udm.Env, m *udm.Msg) {
		n.fillReply(RegionID(m.Args[0]), m.Args[1:], exclusive)
	})
}

// sendData ships a region's words to dst under the given handler id as one
// logical bulk transfer (the library fragments it over the wire, standing
// in for FUGU's DMA engine) with the region id as the leading word.
func (n *Node) sendData(e *udm.Env, dst int, handler uint64, id RegionID, data []uint64) {
	args := e.EP.Scratch(1 + len(data))
	args[0] = uint64(id)
	copy(args[1:], data)
	e.InjectBulk(dst, handler, args...)
	e.EP.PutScratch(args)
}

// fillReply installs arriving region data at a requester.
func (n *Node) fillReply(id RegionID, args []uint64, to state) {
	r := n.regions[id]
	if r == nil {
		panic(fmt.Sprintf("crl: reply for unmapped region %d", id))
	}
	copy(r.data, args)
	r.setState(to)
}

// ---------------------------------------------------------------------------
// Home-side transaction engine

// homeRequest queues or starts a coherence transaction at the home node.
func (n *Node) homeRequest(e *udm.Env, req dirReq, id RegionID) {
	d := n.dir[id]
	if d == nil {
		panic(fmt.Sprintf("crl: request for region %d at non-home node %d", id, n.self))
	}
	if d.busy {
		d.queue = append(d.queue, req)
		return
	}
	n.startTxn(e, d, id, req)
}

// homeHoldsCopy reports whether the home's local copy is the authoritative
// one the transaction would need to touch.
func (n *Node) homeHoldsCopy(d *dirEntry) bool {
	return d.mode == modeShared || d.owner == -1 || d.owner == n.self
}

// homeSectionBlocks reports whether the home's open (or freshly granted,
// not yet used) sections prevent the transaction from touching the home
// copy right now.
func homeSectionBlocks(home *Region, op opKind) bool {
	if home.writing || home.grantInHand() {
		return true
	}
	return op == opWrite && home.readers > 0
}

// startTxn begins one transaction; if it must wait for remote flushes, acks
// or the home's own open section, it marks the entry busy and completion
// continues in the corresponding handler.
func (n *Node) startTxn(e *udm.Env, d *dirEntry, id RegionID, req dirReq) {
	home := n.regions[id]
	if req.from != n.self && n.homeHoldsCopy(d) && homeSectionBlocks(home, req.op) {
		// The home's own thread is inside a section: defer, exactly as a
		// remote sharer defers invalidation until its section closes.
		d.busy = true
		d.cur = req
		d.homeWait = true
		return
	}
	switch req.op {
	case opRead:
		if d.mode == modeExclusive && d.owner != -1 && d.owner != n.self {
			d.busy = true
			d.cur = req
			e.Inject(d.owner, hFlushReq, uint64(id))
			return
		}
		// Home holds a valid copy (initially, after a flush, or in shared
		// mode): demote an exclusive home copy and grant.
		if d.mode == modeExclusive {
			d.mode = modeShared
			d.owner = -1
			clearSharers(d)
			d.sharers[n.self] = true
			if home.st == exclusive {
				home.setState(shared)
			}
		}
		n.grantRead(e, d, id, req.from)
	case opWrite:
		if d.mode == modeExclusive {
			if d.owner == req.from {
				panic(fmt.Sprintf("crl: write request from current owner %d for region %d", req.from, id))
			}
			if d.owner != -1 && d.owner != n.self {
				d.busy = true
				d.cur = req
				e.Inject(d.owner, hFlushReq, uint64(id))
				return
			}
			// Home owns it: surrender the home copy and grant.
			if home.st != invalid {
				home.setState(invalid)
			}
			n.grantWrite(e, d, id, req.from)
			return
		}
		// Shared: invalidate every sharer except the requester.
		acks := 0
		for node, has := range d.sharers {
			if !has || node == req.from {
				continue
			}
			if node == n.self {
				// The home invalidates its own copy inline; the deferral
				// check above guarantees no home section is open.
				home.setState(invalid)
				d.sharers[node] = false
				continue
			}
			e.Inject(node, hInvalidate, uint64(id))
			acks++
		}
		if acks > 0 {
			d.busy = true
			d.cur = req
			d.pendingAcks = acks
			return
		}
		n.grantWrite(e, d, id, req.from)
	}
}

func clearSharers(d *dirEntry) {
	for i := range d.sharers {
		d.sharers[i] = false
	}
}

// grantRead adds the requester as a sharer and sends it the data.
func (n *Node) grantRead(e *udm.Env, d *dirEntry, id RegionID, to int) {
	d.mode = modeShared
	d.sharers[n.self] = true // home copy is valid in shared mode
	d.sharers[to] = true
	home := n.regions[id]
	if home.st == invalid {
		home.setState(shared)
	}
	if to == n.self {
		if home.st == invalid {
			home.setState(shared)
		}
		n.pump(e, d, id)
		return
	}
	n.sendData(e, to, hReadReply, id, home.data)
	n.pump(e, d, id)
}

// grantWrite hands exclusive ownership (and the current data) to the
// requester.
func (n *Node) grantWrite(e *udm.Env, d *dirEntry, id RegionID, to int) {
	d.mode = modeExclusive
	d.owner = to
	clearSharers(d)
	home := n.regions[id]
	if to == n.self {
		home.setState(exclusive)
		n.pump(e, d, id)
		return
	}
	if home.st != invalid {
		home.setState(invalid)
	}
	n.sendData(e, to, hWriteReply, id, home.data)
	n.pump(e, d, id)
}

// pump starts the next queued transaction once the current one completes.
func (n *Node) pump(e *udm.Env, d *dirEntry, id RegionID) {
	d.busy = false
	for !d.busy && len(d.queue) > 0 {
		req := d.queue[0]
		copy(d.queue, d.queue[1:])
		d.queue = d.queue[:len(d.queue)-1]
		n.startTxn(e, d, id, req)
	}
}

// flushData receives the owner's dirty copy at the home, completing the
// flush phase of the current transaction.
func (n *Node) flushData(e *udm.Env, id RegionID, args []uint64) {
	d := n.dir[id]
	home := n.regions[id]
	copy(home.data, args)
	// The old owner is gone; home holds the only valid copy now.
	d.owner = -1
	d.mode = modeExclusive
	clearSharers(d)
	req := d.cur
	switch req.op {
	case opRead:
		d.mode = modeShared
		d.sharers[n.self] = true
		if home.st == invalid {
			home.setState(shared)
		}
		n.grantRead(e, d, id, req.from)
	case opWrite:
		n.grantWrite(e, d, id, req.from)
	}
}

// invAck collects invalidation acknowledgements at the home.
func (n *Node) invAck(e *udm.Env, id RegionID) {
	d := n.dir[id]
	d.pendingAcks--
	if d.pendingAcks > 0 {
		return
	}
	n.grantWrite(e, d, id, d.cur.from)
}

// ---------------------------------------------------------------------------
// Remote-side protocol handlers

// flushRequested: the home wants this node's exclusive copy back. If a
// write section is open the flush is deferred to EndWrite.
func (n *Node) flushRequested(e *udm.Env, id RegionID) {
	r := n.regions[id]
	if r == nil || r.st != exclusive {
		panic(fmt.Sprintf("crl: node %d: flush request for region %d not held exclusive (st=%d acq=%d writing=%v readers=%d invPending=%v flushPending=%v)",
			n.self, id, r.st, r.acq, r.writing, r.readers, r.invPending, r.flushPending))
	}
	if r.writing || r.readers > 0 || r.grantInHand() {
		r.flushPending = true
		return
	}
	r.setState(invalid)
	n.sendData(e, r.home, hFlushData, id, r.data)
}

// invalidated: the home is granting someone exclusive access; drop the
// shared copy, deferring if a read section is open.
func (n *Node) invalidated(e *udm.Env, id RegionID) {
	r := n.regions[id]
	if r == nil || r.st != shared {
		panic(fmt.Sprintf("crl: invalidate for region %d not held shared", id))
	}
	if r.readers > 0 || r.grantInHand() {
		r.invPending = true
		return
	}
	r.setState(invalid)
	e.Inject(r.home, hInvAck, uint64(id))
}
