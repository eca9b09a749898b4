// Package apps implements the paper's workload: the three SPLASH-derived
// applications running on CRL software shared memory (Barnes, Water, LU),
// the two native-UDM programs (barrier and enum), the synth-N
// producer-consumer microbenchmark of Section 5.2, and the null application
// the experiments multiprogram against.
//
// Every application reports the Table 6 characterization columns (cycles,
// messages, T_betw, T_hand) through the shared instrumentation here.
package apps

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// Instance is one configured application ready to attach to a job.
type Instance interface {
	// Name identifies the workload ("barnes", "synth-100", ...).
	Name() string
	// Model names the programming model, "UDM" or "CRL" (Table 6).
	Model() string
	// Start registers handlers and starts the main thread on every node of
	// the job. The job completes when all mains return.
	Start(m *glaze.Machine, job *glaze.Job)
	// Check validates the computation's output after the job completes.
	Check() error
}

// Handler id space: CRL owns 0x100-0x1ff; applications use 0x200 and up.
const (
	hBarrier = 0x200 + iota
	hSynthReq
	hSynthAck
	hEnumWork
	hEnumToken
	hEnumDone
)

// Rig bundles the per-node endpoints an application attaches to.
type Rig struct {
	M   *glaze.Machine
	Job *glaze.Job
	EPs []*udm.EP
}

// NewRig attaches endpoints on every node of the job and registers itself
// on the job (Job.Tag) so measurement code can reach endpoint statistics.
func NewRig(m *glaze.Machine, job *glaze.Job) *Rig {
	r := &Rig{M: m, Job: job}
	for i := range m.Nodes {
		r.EPs = append(r.EPs, udm.Attach(job.Process(i)))
	}
	job.Tag = r
	return r
}

// HandlerMean returns the mean cycles per handled message across the job's
// endpoints — the measured T_hand of Table 6.
func (r *Rig) HandlerMean() float64 {
	var sum float64
	var n uint64
	for _, ep := range r.EPs {
		sum += ep.HandlerCycles.Sum
		n += ep.HandlerCycles.Count
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Nodes returns the machine size.
func (r *Rig) Nodes() int { return len(r.EPs) }

// Barrier is a dissemination barrier over UDM messages: log2(n) rounds of
// one message per node per round — the structure that makes the paper's
// barrier benchmark cost ~24 messages per episode on 8 nodes.
type Barrier struct {
	ep     *udm.EP
	self   int
	nodes  int
	rounds int
	epoch  uint64

	// Arrival counters, double-buffered by epoch parity so a neighbour
	// racing ahead into the next barrier cannot corrupt this one.
	slot     [2][]*udm.Counter
	expected [2][]uint64
}

// NewBarrier registers the barrier handler on one node's endpoint. All
// nodes of the job must create theirs before any Wait.
func NewBarrier(ep *udm.EP, nodes int) *Barrier {
	rounds := 0
	for 1<<rounds < nodes {
		rounds++
	}
	b := &Barrier{ep: ep, self: ep.Node(), nodes: nodes, rounds: rounds}
	for p := 0; p < 2; p++ {
		b.slot[p] = make([]*udm.Counter, rounds)
		b.expected[p] = make([]uint64, rounds)
		for r := range b.slot[p] {
			b.slot[p][r] = udm.NewCounter()
		}
	}
	ep.On(hBarrier, func(e *udm.Env, m *udm.Msg) {
		b.slot[m.Args[0]&1][m.Args[1]].Add(1)
	})
	return b
}

// Wait blocks until every node has entered the barrier. The wait polls
// inside an atomic section — the natural UDM discipline for code that
// orchestrates communication closely (Table 4's 9-cycle polling path) and
// the reason the barrier benchmark tracks schedule quality so directly.
func (b *Barrier) Wait(t *cpu.Task) {
	if b.nodes == 1 {
		return
	}
	e := b.ep.Env(t)
	e.BeginAtomic()
	p := b.epoch & 1
	for r := 0; r < b.rounds; r++ {
		dst := (b.self + 1<<r) % b.nodes
		e.Inject(dst, hBarrier, b.epoch, uint64(r))
		b.expected[p][r]++
		for b.slot[p][r].Value() < b.expected[p][r] {
			e.Poll()
		}
	}
	e.EndAtomic()
	b.epoch++
}

// checkf builds a formatted check failure.
func checkf(format string, args ...any) error {
	return fmt.Errorf("apps: "+format, args...)
}
