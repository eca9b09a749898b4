package glaze

import (
	"fugu/internal/metrics"
	"fugu/internal/sim"
)

// Gang is the system scheduler: loose gang scheduling driven by each node's
// local cycle counter, as in the paper (a user-level server with
// synchronized-but-skewable clocks). Every node cycles through the same slot
// list; slot switches on node i are offset by a per-node skew, which opens
// the mis-scheduling windows the experiments of Section 5 exploit.
type Gang struct {
	m       *Machine
	quantum uint64
	skew    float64 // fraction of the quantum by which node clocks differ

	slots   []*Job   // nil entries are null slots
	idx     []int    // per-node current slot index
	tickFns []func() // per-node tick closures, built once so requeueing never allocates

	preferred *Job // overflow-control advice: co-schedule this job

	started bool

	// Occupancy instruments: total slot ticks vs ticks that ran the null
	// slot. scheduled/(scheduled+null) is the gang occupancy fraction.
	mTicks     *metrics.Counter
	mTicksNull *metrics.Counter
}

// NewGang configures the scheduler. skew is the experiment knob: node i's
// switch times lag node 0's by skew*quantum*i/(n-1) cycles (zero for a
// single node).
func (m *Machine) NewGang(quantum uint64, skew float64, slots ...*Job) *Gang {
	g := &Gang{
		m:       m,
		quantum: quantum,
		skew:    skew,
		slots:   slots,
		idx:     make([]int, m.Net.Nodes()),
	}
	g.mTicks = m.Metrics.Counter("gang.ticks")
	g.mTicksNull = m.Metrics.Counter("gang.ticks.null")
	m.Gang = g
	return g
}

// offset returns node i's clock skew in cycles.
func (g *Gang) offset(node int) uint64 {
	n := g.m.Net.Nodes()
	if n <= 1 {
		return 0
	}
	return uint64(g.skew * float64(g.quantum) * float64(node) / float64(n-1))
}

// Start begins scheduling: each node switches into slot 0 at its skew
// offset and every quantum thereafter. The first slot's processes run from
// their node's first switch.
func (g *Gang) Start() {
	if g.started {
		panic("glaze: gang scheduler started twice")
	}
	g.started = true
	g.tickFns = make([]func(), g.m.Net.Nodes())
	for node := 0; node < g.m.Net.Nodes(); node++ {
		g.idx[node] = -1
		g.tickFns[node] = func() { g.tick(node) }
		g.m.Eng.ScheduleSite(siteGang, g.offset(node), g.tickFns[node])
	}
}

// siteGang labels gang-scheduler quantum ticks for the cost profiler.
var siteGang = sim.NewSite("glaze.gang.tick")

// tick advances node to its next slot and reschedules itself.
func (g *Gang) tick(node int) {
	if g.m.Eng.Stopped() {
		return
	}
	g.idx[node] = (g.idx[node] + 1) % len(g.slots)
	target := g.slots[g.idx[node]]
	if g.preferred != nil {
		// Overflow-control advice: co-schedule the draining job. Its
		// senders are throttled, but the message-handling activity must
		// run or the backlog can never clear.
		target = g.preferred
	} else if target != nil && target.overflowed {
		target = nil // globally suspended with no drain advice: null slot
	}
	k := g.m.Nodes[node].Kernel
	var p *Process
	if target != nil {
		p = target.procs[node]
	}
	k.switchTarget = p
	k.switchValid = true
	k.gangIRQ.Raise()
	g.mTicks.Inc()
	if p == nil {
		g.mTicksNull.Inc()
	}
	// A gang-skew fault widens this node's mis-scheduling window by
	// delaying its next tick.
	g.m.Eng.ScheduleSite(siteGang, g.quantum+g.m.Faults.GangSkew(node), g.tickFns[node])
}

// Prefer advises the scheduler to co-schedule job (overflow control).
func (g *Gang) Prefer(job *Job) { g.preferred = job }

// Unprefer withdraws the advice.
func (g *Gang) Unprefer(job *Job) {
	if g.preferred == job {
		g.preferred = nil
	}
}
