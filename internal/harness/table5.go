package harness

import (
	"context"
	"fmt"
	"io"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/plot"
	"fugu/internal/udm"
)

// Table5Result reproduces the software-buffer overhead table: the
// configured constants plus end-to-end measurements from a microbenchmark
// that forces many messages through the buffered path.
type Table5Result struct {
	InsertMin     uint64 // configured minimum insert cost
	InsertVMAlloc uint64 // configured insert cost with page allocation
	Extract       uint64 // configured null-handler-from-buffer cost

	MeasuredInsertMean  float64 // ISR cycles per buffered insert
	MeasuredExtractMean float64 // upcall cycles per buffered delivery
	Inserts             uint64
	VMAllocs            uint64
	Buffered            uint64 // deliveries the receiver ran from the buffer

	// Observation is the microbenchmark machine's registry snapshot and
	// timeline.
	Observation
}

// Table5 runs the microbenchmark: a sender floods a receiver whose process
// is not yet scheduled, so every message is inserted into the virtual
// buffer (some taking the vmalloc path); the receiver then drains from the
// buffer with null handlers.
func Table5(opts ...Option) (Table5Result, error) {
	return runAs[Table5Result]("table5", opts...)
}

// table5Experiment wraps the microbenchmark as a single-point experiment.
func table5Experiment() *Experiment {
	return &Experiment{
		Name:        "table5",
		Description: "software buffer insert/extract overheads (buffered path)",
		Points: func(Options) []Point {
			return []Point{{
				Label: "bufbench",
				Run: func(_ context.Context, opt Options) (any, error) {
					return table5Measure(opt.machineMut(nil)), nil
				},
			}}
		},
		Assemble: func(_ Options, results []any) (Result, error) {
			return results[0].(Table5Result), nil
		},
	}
}

// table5Measure runs the flood microbenchmark on a fresh two-node machine.
func table5Measure(mut func(*glaze.Config)) Table5Result {
	cfg := glaze.NewConfig(glaze.WithMesh(2, 1))
	if mut != nil {
		mut(&cfg)
	}
	m := glaze.NewMachine(cfg)
	job := m.NewJob("bufbench")
	null := m.NewJob("null")
	ep0 := udm.Attach(job.Process(0))
	ep1 := udm.Attach(job.Process(1))
	udm.Attach(null.Process(0))
	udm.Attach(null.Process(1))

	const N = 2000
	got := 0
	ep1.On(1, func(e *udm.Env, msg *udm.Msg) { got++ })
	job.Process(0).StartMain(func(t *cpu.Task) {
		e := ep0.Env(t)
		for i := 0; i < N; i++ {
			e.Inject(1, 1, uint64(i), 0, 0, 0) // 4-word payload
		}
	})
	job.Process(1).StartMain(func(t *cpu.Task) {
		for got < N {
			t.Spend(10_000)
		}
	})
	// Node 1 joins the job's quantum half a slice late, so the flood lands
	// in the buffered path.
	m.NewGang(Quantum, 0.9, job, null).Start()
	m.RunUntilDone(0, job)

	cm := m.Cost()
	tl := m.FinishTelemetry()
	// Node 1 runs only the flooded receiver and the idle null job, so its
	// kernel counters are the receiver's.
	recv := m.Nodes[1].Metrics
	res := Table5Result{
		InsertMin:     cm.BufferInsertMin,
		InsertVMAlloc: cm.BufferInsertVMAlloc,
		Extract:       cm.BufferedNullHandler,
		Inserts:       recv.Counter("glaze.buffer.inserts").Value(),
		VMAllocs:      recv.Counter("glaze.buffer.insert_vmallocs").Value(),
		Observation:   Observation{Metrics: m.MetricsSnapshot(), Timeline: tl},
	}
	if res.Inserts > 0 {
		res.MeasuredInsertMean = float64(m.Nodes[1].Kernel.MismatchConsumed()) / float64(res.Inserts)
	}
	res.Buffered = job.Process(1).Deliv.Buffered
	if res.Buffered > 0 {
		res.MeasuredExtractMean = float64(job.Process(1).UpcallConsumed()) / float64(res.Buffered)
	}
	m.Eng.Close()
	return res
}

// Print renders the table with the paper's reference values. A policy
// that never buffers (bypass) leaves nothing to measure, so the measured
// column reads n/a rather than a mean of zero samples.
func (r Table5Result) Print(w io.Writer) {
	insert, vmalloc, extract := "n/a", "n/a", "n/a"
	if r.Inserts > 0 {
		insert = f1(r.MeasuredInsertMean)
		vmalloc = fmt.Sprintf("(%d/%d inserts allocated)", r.VMAllocs, r.Inserts)
	}
	if r.Buffered > 0 {
		extract = f1(r.MeasuredExtractMean)
	}
	fmt.Fprintln(w, "Table 5: software buffer insert/extract overheads")
	fmt.Fprintln(w, plot.Table(
		[]string{"Item", "configured", "paper", "measured mean"},
		[][]string{
			{"Minimum buffer-insert handler", u(r.InsertMin), "180", insert},
			{"Maximum handler (w/vmalloc)", u(r.InsertVMAlloc), "3,162", vmalloc},
			{"Execute null handler from buffer", u(r.Extract), "52", extract},
		}))
	fmt.Fprintf(w, "minimum per-message buffered total: %d cycles (paper: 232 = 180 + 52)\n",
		r.InsertMin+r.Extract)
}
