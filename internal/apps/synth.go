package apps

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// Synth is the synth-N producer-consumer application of Section 5.2:
// NodesUsed processors iteratively generate groups of GroupN request
// messages directed at random peers, then wait for all of the group's
// replies (a synchronization point bounding outstanding requests to
// GroupN). Each request handler stalls THand cycles (290 in the paper,
// including interrupt and kernel overhead) and replies; the gap between
// individual sends is uniformly distributed with mean TBetw.
type Synth struct {
	GroupN    int    // requests per synchronization point (10/100/1000)
	Groups    int    // groups each node issues
	TBetw     uint64 // mean inter-send interval
	THandWork uint64 // request handler stall (computation part)
	NodesUsed int    // paper uses 4 processors

	acked    []uint64
	received []uint64
}

// NewSynth configures synth-N as in the paper: 4 nodes, T_hand tuned so the
// full handler occupancy lands near 290 cycles.
func NewSynth(groupN, groups int, tBetw uint64) *Synth {
	return &Synth{
		GroupN:    groupN,
		Groups:    groups,
		TBetw:     tBetw,
		THandWork: 200, // + receive/reply overheads ≈ the paper's 290 total
		NodesUsed: 4,
	}
}

// Name implements Instance.
func (s *Synth) Name() string { return fmt.Sprintf("synth-%d", s.GroupN) }

// Model implements Instance.
func (s *Synth) Model() string { return "UDM" }

// Start implements Instance.
func (s *Synth) Start(m *glaze.Machine, job *glaze.Job) {
	r := NewRig(m, job)
	n := s.NodesUsed
	if n > r.Nodes() {
		n = r.Nodes()
	}
	s.acked = make([]uint64, n)
	s.received = make([]uint64, n)
	acks := make([]*udm.Counter, n)
	for node := 0; node < n; node++ {
		acks[node] = udm.NewCounter()
		ep := r.EPs[node]
		ep.On(hSynthReq, func(e *udm.Env, msg *udm.Msg) {
			s.received[node]++
			e.Spend(s.THandWork)
			e.Inject(int(msg.Args[0]), hSynthAck)
		})
		ep.On(hSynthAck, func(e *udm.Env, msg *udm.Msg) {
			s.acked[node]++
			acks[node].Add(1)
		})
		job.Process(node).StartMain(func(t *cpu.Task) {
			e := ep.Env(t)
			rng := m.Eng.Rand()
			want := uint64(0)
			for g := 0; g < s.Groups; g++ {
				for i := 0; i < s.GroupN; i++ {
					dst := rng.Intn(n - 1)
					if dst >= node {
						dst++
					}
					e.Inject(dst, hSynthReq, uint64(node))
					want++
					if gap := rng.UniformAround(s.TBetw); gap > 0 {
						t.Spend(gap)
					}
				}
				// Synchronization point: wait for the whole group's acks.
				acks[node].WaitFor(t, want)
			}
		})
	}
}

// Check implements Instance: every request must have been served and every
// reply received.
func (s *Synth) Check() error {
	total := uint64(s.GroupN * s.Groups)
	var recvd, acked uint64
	for node := range s.acked {
		if s.acked[node] != total {
			return checkf("synth: node %d acked %d/%d", node, s.acked[node], total)
		}
		recvd += s.received[node]
		acked += s.acked[node]
	}
	if recvd != acked {
		return checkf("synth: received %d != acked %d", recvd, acked)
	}
	return nil
}
