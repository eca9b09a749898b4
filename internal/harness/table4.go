package harness

import (
	"context"
	"fmt"
	"io"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/metrics"
	"fugu/internal/plot"
	"fugu/internal/telemetry"
	"fugu/internal/udm"
)

// Table4Row is one line of Table 4 for the three atomicity implementations.
type Table4Row struct {
	Item               string
	Kernel, Hard, Soft uint64
}

// Table4Result carries the cost-model rows plus end-to-end validation
// measurements from a simulated ping-pong (the paper's numbers were made
// from simulator traces of exactly such a benchmark).
type Table4Result struct {
	Rows []Table4Row
	// Measured one-way receive overhead (send-to-handler-start minus
	// network latency) and measured polling totals per implementation.
	MeasuredIntr [3]uint64
	MeasuredPoll [3]uint64
}

// table4Impls are the three columns of Table 4.
var table4Impls = []glaze.AtomicityImpl{glaze.KernelMode, glaze.HardAtomicity, glaze.SoftAtomicity}

// table4Point is one implementation's measurement plus the merged registry
// snapshot of the machines that produced it (each pingpong machine delivers
// exactly one fast-path message, so glaze.deliver.fast counts the runs).
type table4Point struct {
	intr, poll uint64
	Observation
}

// Table4 reproduces the cycle counts to send and receive a null message.
func Table4(opts ...Option) (Table4Result, error) {
	return runAs[Table4Result]("table4", opts...)
}

// table4Experiment measures each atomicity implementation as one point.
func table4Experiment() *Experiment {
	return &Experiment{
		Name:        "table4",
		Description: "fast-path cycle counts to send and receive a null message",
		Points: func(Options) []Point {
			pts := make([]Point, len(table4Impls))
			for i, im := range table4Impls {
				pts[i] = Point{
					Label: "impl=" + im.String(),
					Run: func(_ context.Context, opt Options) (any, error) {
						return measureNullMessage(im, opt), nil
					},
				}
			}
			return pts
		},
		Assemble: func(_ Options, results []any) (Result, error) {
			res := table4Rows()
			for i, r := range results {
				v := r.(table4Point)
				res.MeasuredIntr[i], res.MeasuredPoll[i] = v.intr, v.poll
			}
			return res, nil
		},
	}
}

// table4Rows builds the cost-model rows (no simulation required).
func table4Rows() Table4Result {
	cms := make([]glaze.CostModel, 3)
	for i, im := range table4Impls {
		cms[i] = glaze.Costs(im)
	}
	row := func(item string, f func(glaze.CostModel) uint64) Table4Row {
		return Table4Row{item, f(cms[0]), f(cms[1]), f(cms[2])}
	}
	return Table4Result{Rows: []Table4Row{
		row("Descriptor construction", func(c glaze.CostModel) uint64 { return c.DescribeNull }),
		row("launch", func(c glaze.CostModel) uint64 { return c.Launch }),
		row("send total:", func(c glaze.CostModel) uint64 { return c.SendCost(0) }),
		row("Interrupt overhead", func(c glaze.CostModel) uint64 { return c.InterruptOverhead }),
		row("Register save", func(c glaze.CostModel) uint64 { return c.RegisterSave }),
		row("GID check", func(c glaze.CostModel) uint64 { return c.GIDCheck }),
		row("Timer setup", func(c glaze.CostModel) uint64 { return c.TimerSetup }),
		row("Virtual buffering overhead", func(c glaze.CostModel) uint64 { return c.VirtBufOverhead }),
		row("Dispatch (+ upcall)", func(c glaze.CostModel) uint64 { return c.Dispatch }),
		row("subtotal:", func(c glaze.CostModel) uint64 { return c.RecvIntrPre() }),
		row("Null handler (w/dispose)", func(c glaze.CostModel) uint64 { return c.NullHandler }),
		row("Upcall cleanup", func(c glaze.CostModel) uint64 { return c.UpcallCleanup }),
		row("Timer cleanup", func(c glaze.CostModel) uint64 { return c.TimerCleanup }),
		row("Register restore", func(c glaze.CostModel) uint64 { return c.RegisterRestore }),
		row("interrupt total:", func(c glaze.CostModel) uint64 { return c.RecvIntrTotal() }),
		row("Poll", func(c glaze.CostModel) uint64 { return c.Poll }),
		row("Dispatch", func(c glaze.CostModel) uint64 { return c.PollDispatch }),
		row("Null handler (w/dispose)", func(c glaze.CostModel) uint64 { return c.PollNullHandler }),
		row("polling total:", func(c glaze.CostModel) uint64 { return c.RecvPollTotal() }),
	}}
}

// measureNullMessage measures one implementation's interrupt and polling
// receive paths. In the spliced timeline the polling machine is epoch 0 and
// the interrupt machine epoch 1.
func measureNullMessage(impl glaze.AtomicityImpl, opt Options) table4Point {
	intr, intrSnap, intrTL := measure(impl, opt, false)
	poll, pollSnap, pollTL := measure(impl, opt, true)
	return table4Point{intr: intr, poll: poll, Observation: Observation{
		Metrics:  metrics.Merge(pollSnap, intrSnap),
		Timeline: telemetry.Concat(pollTL, intrTL),
	}}
}

// measure times one null message's receive path end to end on a two-node
// machine — receiver done minus send, less the send cost and wire latency —
// so the residual is the receive overhead the table reports. With polling
// the receiver polls inside an atomic section; otherwise the message
// arrives by user-level interrupt and the receiver's main wakes on the
// handler's counter.
func measure(impl glaze.AtomicityImpl, opt Options, polling bool) (uint64, metrics.Snapshot, telemetry.Timeline) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.Cost = glaze.Costs(impl)
	opt.machineMut(nil)(&cfg)
	m := glaze.NewMachine(cfg)
	job := m.NewJob("pingpong")
	ep0 := udm.Attach(job.Process(0))
	ep1 := udm.Attach(job.Process(1))
	var sentAt, doneAt uint64
	done := udm.NewCounter()
	if polling {
		ep1.On(1, func(e *udm.Env, msg *udm.Msg) {})
		job.Process(1).StartMain(func(t *cpu.Task) {
			e := ep1.Env(t)
			e.BeginAtomic()
			e.PollWait()
			e.EndAtomic()
			doneAt = t.Now()
			done.Add(1)
		})
	} else {
		ep1.On(1, func(e *udm.Env, msg *udm.Msg) { done.Add(1) })
		job.Process(1).StartMain(func(t *cpu.Task) {
			// The upcall's cleanup cycles complete before the main thread
			// resumes, so doneAt covers the full interrupt receive total.
			done.WaitFor(t, 1)
			doneAt = t.Now()
		})
	}
	job.Process(0).StartMain(func(t *cpu.Task) {
		e := ep0.Env(t)
		t.Spend(100) // let the receiver reach its wait state
		sentAt = t.Now()
		e.Inject(1, 1)
		if polling {
			done.WaitFor(t, 1)
		}
	})
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	wire := cfg.Latency.Delay(1, 2) // one hop, two words
	lat, snap, tl := doneAt-sentAt-wire-cfg.Cost.SendCost(0), m.MetricsSnapshot(), m.FinishTelemetry()
	m.Eng.Close()
	return lat, snap, tl
}

// Print renders the table with the paper's reference values.
func (r Table4Result) Print(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows)+2)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Item, u(row.Kernel), u(row.Hard), u(row.Soft)})
	}
	fmt.Fprintln(w, "Table 4: cycle counts to send and receive a null message")
	fmt.Fprintln(w, plot.Table([]string{"Item", "kernel", "hard-atomicity", "soft-atomicity"}, rows))
	fmt.Fprintf(w, "paper interrupt totals: 54 / 87 / 115;   paper polling totals: 9 / 9 / n.a.\n")
	fmt.Fprintf(w, "measured end-to-end receive overhead (interrupt): %d / %d / %d cycles\n",
		r.MeasuredIntr[0], r.MeasuredIntr[1], r.MeasuredIntr[2])
	fmt.Fprintf(w, "measured end-to-end receive overhead (polling):   %d / %d / %d cycles\n",
		r.MeasuredPoll[0], r.MeasuredPoll[1], r.MeasuredPoll[2])
}
