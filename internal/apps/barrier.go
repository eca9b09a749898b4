package apps

import (
	"fugu/internal/cpu"
	"fugu/internal/glaze"
)

// Null is the idle application the experiments multiprogram against: it
// occupies scheduler slots and never communicates.
type Null struct{}

// Name implements Instance.
func (Null) Name() string { return "null" }

// Model implements Instance.
func (Null) Model() string { return "-" }

// Start implements Instance: the null job has no threads at all; its slot
// simply idles the CPU, as in the paper's experiments.
func (Null) Start(m *glaze.Machine, job *glaze.Job) {}

// Check implements Instance.
func (Null) Check() error { return nil }

// BarrierApp is the synthetic benchmark that "consists entirely of barriers
// and thus synchronizes constantly": Iterations dissemination barriers
// back-to-back, with a small amount of local work between them.
type BarrierApp struct {
	Iterations int
	// Work is local computation between barriers (cycles); the paper's
	// episode rate (T_betw 615 on 8 nodes) implies a short gap.
	Work uint64

	completed []int
}

// NewBarrierApp returns the paper's configuration: 10,000 barriers.
func NewBarrierApp(iterations int) *BarrierApp {
	return &BarrierApp{Iterations: iterations, Work: 300}
}

// Name implements Instance.
func (b *BarrierApp) Name() string { return "barrier" }

// Model implements Instance.
func (b *BarrierApp) Model() string { return "UDM" }

// Start implements Instance.
func (b *BarrierApp) Start(m *glaze.Machine, job *glaze.Job) {
	r := NewRig(m, job)
	n := r.Nodes()
	b.completed = make([]int, n)
	for node := 0; node < n; node++ {
		bar := NewBarrier(r.EPs[node], n)
		job.Process(node).StartMain(func(t *cpu.Task) {
			for i := 0; i < b.Iterations; i++ {
				if b.Work > 0 {
					t.Spend(b.Work)
				}
				bar.Wait(t)
				b.completed[node]++
			}
		})
	}
}

// Check implements Instance: every node must have completed every barrier.
func (b *BarrierApp) Check() error {
	for node, c := range b.completed {
		if c != b.Iterations {
			return checkf("barrier: node %d completed %d/%d", node, c, b.Iterations)
		}
	}
	return nil
}
