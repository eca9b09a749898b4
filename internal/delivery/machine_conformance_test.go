package delivery_test

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/delivery"
	"fugu/internal/glaze"
	"fugu/internal/spans"
	"fugu/internal/udm"
)

// Machine-level conformance: every registered policy must carry a real
// multiprogrammed workload end to end under the same delivery invariants the
// crucible enforces — exactly-once, per-node conservation, drain-back to an
// empty store, and span/metrics reconciliation. The workload deliberately
// skews a second job's quantum so receivers are descheduled mid-flood: the
// two-case policies divert into their stores, the bypass ring absorbs the
// backlog (and NACKs when full), and all of them must hand every message to
// its handler exactly once.

const (
	confHandler = 5
	confNodes   = 4
	confSends   = 120
)

// runConformanceWorkload executes the skewed all-to-all under pol and
// returns the machine, job, per-message delivery counts and span recorder.
func runConformanceWorkload(t *testing.T, pol delivery.Policy) (*glaze.Machine, *glaze.Job, []uint32, *spans.Recorder) {
	t.Helper()
	cfg := glaze.NewConfig(glaze.WithMesh(confNodes, 1), glaze.WithDeliveryPolicy(pol))
	cfg.Seed = 11
	rec := spans.NewRecorder(nil)
	cfg.Spans = rec
	m := glaze.NewMachine(cfg)
	job := m.NewJob("conf")
	null := m.NewJob("null")

	expected := make([]uint64, confNodes)
	for src := 0; src < confNodes; src++ {
		for i := 0; i < confSends; i++ {
			expected[(src+1+i%(confNodes-1))%confNodes]++
		}
	}
	seen := make([]uint32, confNodes*confSends)
	recv := make([]*udm.Counter, confNodes)
	eps := make([]*udm.EP, confNodes)
	for n := 0; n < confNodes; n++ {
		recv[n] = udm.NewCounter()
		eps[n] = udm.Attach(job.Process(n))
		udm.Attach(null.Process(n))
		c := recv[n]
		eps[n].On(confHandler, func(e *udm.Env, msg *udm.Msg) {
			seen[msg.Args[0]*confSends+msg.Args[1]]++
			e.Spend(25)
			c.Add(1)
		})
	}
	for n := 0; n < confNodes; n++ {
		job.Process(n).StartMain(func(tk *cpu.Task) {
			e := eps[n].Env(tk)
			for i := 0; i < confSends; i++ {
				dst := (n + 1 + i%(confNodes-1)) % confNodes
				e.Inject(dst, confHandler, uint64(n), uint64(i))
				e.Spend(uint64(80 + (i*11+n*7)%160))
			}
			recv[n].WaitFor(tk, expected[n])
		})
	}
	// The skewed second job deschedules receivers for parts of every
	// quantum, forcing traffic off the pure fast path.
	m.NewGang(40_000, 0.6, job, null).Start()
	m.RunUntilDone(500_000_000, job)
	if !job.Done() {
		t.Fatalf("%s: workload did not complete", pol.Name())
	}
	m.Eng.RunUntil(m.Eng.Now() + 30_000)
	return m, job, seen, rec
}

func TestMachineConformance(t *testing.T) {
	for _, name := range delivery.Names() {
		t.Run(name, func(t *testing.T) {
			pol, err := delivery.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, job, seen, rec := runConformanceWorkload(t, pol)

			// Exactly-once: every tagged message handled once, never twice.
			for slot, c := range seen {
				if c != 1 {
					t.Errorf("message (src=%d,i=%d) delivered %d times",
						slot/confSends, slot%confSends, c)
				}
			}

			// Drain-back: with traffic over, no process may be stuck in
			// buffered mode, hold store backlog, or have NI input queued.
			for n, p := range job.Procs() {
				if p.Buffered() {
					t.Errorf("node %d still buffered after the run", n)
				}
				if pend := p.Store().Pending(); pend > 0 {
					t.Errorf("node %d store holds %d message(s)", n, pend)
				}
				if q := p.NI().QueueLen(); q > 0 {
					t.Errorf("node %d NI input queue holds %d message(s)", n, q)
				}
			}

			// Per-node conservation, policy-agnostic: every arrival is user
			// disposed, kernel disposed or hardware demuxed; every kernel
			// dispose is an insert, a kernel message or a stray.
			for _, node := range m.Nodes {
				ns := node.Metrics.Snapshot()
				arrived := ns.Counters["nic.arrived"]
				disposed := ns.Counters["nic.disposed"]
				kdisposed := ns.Counters["nic.kdisposed"]
				demuxed := ns.Counters["nic.demuxed"]
				if arrived != disposed+kdisposed+demuxed {
					t.Errorf("node %d: arrived %d != disposed %d + kdisposed %d + demuxed %d",
						node.Index, arrived, disposed, kdisposed, demuxed)
				}
				inserts := ns.Counters["glaze.buffer.inserts"]
				kmsgs := ns.Counters["glaze.kernel_msgs"]
				stray := ns.Counters["glaze.stray_messages"]
				if kdisposed != inserts+kmsgs+stray {
					t.Errorf("node %d: kdisposed %d != inserts %d + kernel %d + stray %d",
						node.Index, kdisposed, inserts, kmsgs, stray)
				}
				if stray > 0 {
					t.Errorf("node %d dropped %d stray message(s)", node.Index, stray)
				}
				if pol.HardwareDemux() && inserts > 0 {
					t.Errorf("node %d: hardware-demux policy took %d software inserts", node.Index, inserts)
				}
				if !pol.HardwareDemux() && demuxed > 0 {
					t.Errorf("node %d: software policy reports %d hardware demuxes", node.Index, demuxed)
				}
			}

			// Span/metrics reconciliation: all spans terminal and the
			// fast/buffered tallies agree with the delivery counters.
			snap := m.MetricsSnapshot()
			for _, p := range rec.Check(
				snap.Counters["glaze.deliver.fast"], snap.Counters["glaze.deliver.buffered"]) {
				t.Errorf("span reconciliation: %s", p)
			}

			// Latency anatomy: under every policy the per-stage dwells of
			// terminal spans conserve end-to-end latency exactly, and the
			// anatomy is keyed by this policy's name.
			var dwellSum uint64
			for _, d := range rec.StageDwellTotals() {
				dwellSum += d
			}
			if dwellSum != rec.LatencyTotal() {
				t.Errorf("%s: stage dwells sum to %d cycles, latencies to %d", name, dwellSum, rec.LatencyTotal())
			}
			if rec.Terminated() == 0 {
				t.Errorf("%s: anatomy observed no terminal spans", name)
			}
			for _, row := range rec.Anatomy() {
				if row.Policy != name {
					t.Errorf("anatomy row keyed by policy %q, want %q", row.Policy, name)
				}
			}

			// The skew must actually have engaged the second case somewhere,
			// or this test proves nothing: kernel-buffered policies show
			// buffered deliveries, the bypass ring shows hardware demuxes.
			if pol.KernelBuffered() {
				if snap.Counters["glaze.deliver.buffered"] == 0 {
					t.Errorf("%s: workload never left the fast path; raise the skew", name)
				}
			} else if snap.Counters["nic.demuxed"] == 0 {
				t.Errorf("%s: NI never demuxed into the ring", name)
			}
		})
	}
}

// TestMachineConformanceDeterminism pins that each policy's run is a pure
// function of the seed: the conformance workload repeated must agree on
// every delivery counter.
func TestMachineConformanceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat runs")
	}
	for _, name := range delivery.Names() {
		t.Run(name, func(t *testing.T) {
			pol, _ := delivery.ByName(name)
			m1, _, _, _ := runConformanceWorkload(t, pol)
			pol2, _ := delivery.ByName(name)
			m2, _, _, _ := runConformanceWorkload(t, pol2)
			s1, s2 := m1.MetricsSnapshot(), m2.MetricsSnapshot()
			for _, k := range []string{
				"glaze.deliver.fast", "glaze.deliver.buffered",
				"nic.arrived", "nic.demuxed", "nic.nacked",
			} {
				if s1.Counters[k] != s2.Counters[k] {
					t.Errorf("%s: %s = %d vs %d across identical runs",
						name, k, s1.Counters[k], s2.Counters[k])
				}
			}
			if m1.Eng.Now() != m2.Eng.Now() {
				t.Errorf("%s: cycles %d vs %d", name, m1.Eng.Now(), m2.Eng.Now())
			}
		})
	}
}
