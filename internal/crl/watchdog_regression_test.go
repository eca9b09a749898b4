package crl

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// TestDeadlockSeedRegression replays the schedule that used to lose a
// deferred home request (machine seed 0x9459729f43aff4c8, 41+ ops per
// node; dissected in docs/crl-deadlock-0x9459729f43aff4c8.md) with the
// liveness watchdog installed. The run must complete with no lost
// updates; if the protocol regresses, the watchdog guarantees the test
// fails fast with a structured liveness report instead of hanging until
// the cycle budget runs out.
func TestDeadlockSeedRegression(t *testing.T) {
	for _, ops := range []int{41, 45, 49} {
		total, m, job := runStressMachine(t, 0x9459729f43aff4c8, ops)
		if rep := m.WatchdogReport(); rep != nil {
			t.Fatalf("ops=%d: run wedged; liveness report:\n%s", ops, rep.String())
		}
		if !job.Done() {
			t.Fatalf("ops=%d: run did not complete and the watchdog did not fire", ops)
		}
		if want := uint64(4 * ops); total != want {
			t.Fatalf("ops=%d: total increments = %d, want %d (lost updates)", ops, total, want)
		}
	}
}

// runStressMachine executes the coherence stress workload (identical to
// TestCoherenceStressProperty's, for schedule fidelity) on a
// watchdog-instrumented machine and returns the summed region counters.
func runStressMachine(t *testing.T, seed uint64, ops int) (uint64, *glaze.Machine, *glaze.Job) {
	t.Helper()
	const regions = 3
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 4, 1
	cfg.Seed = seed
	cfg.Watchdog = glaze.WatchdogConfig{Interval: 100_000, Grace: 3}
	m := glaze.NewMachine(cfg)
	job := m.NewJob("stress")
	crls := make([]*Node, 4)
	eps := make([]*udm.EP, 4)
	for i := 0; i < 4; i++ {
		eps[i] = udm.Attach(job.Process(i))
		crls[i] = New(eps[i], 4)
	}
	done := udm.NewCounter()
	eps[0].On(900, func(e *udm.Env, msg *udm.Msg) { done.Add(1) })
	final := make([]uint64, regions)
	job.Process(0).StartMain(func(tk *cpu.Task) {
		c := crls[0]
		rgs := make([]*Region, regions)
		for r := 0; r < regions; r++ {
			if c.homeOf(RegionID(r)) == 0 {
				rgs[r] = c.Create(RegionID(r), 4)
			}
		}
		tk.Spend(2000)
		for r := 0; r < regions; r++ {
			if rgs[r] == nil {
				rgs[r] = c.Map(RegionID(r), 4)
			}
		}
		stressOps(tk, m, c, rgs, ops, 0)
		done.WaitFor(tk, 3)
		for r := 0; r < regions; r++ {
			c.StartRead(tk, rgs[r])
			final[r] = rgs[r].Read(0)
			c.EndRead(tk, rgs[r])
		}
	})
	for node := 1; node < 4; node++ {
		job.Process(node).StartMain(func(tk *cpu.Task) {
			c := crls[node]
			rgs := make([]*Region, regions)
			for r := 0; r < regions; r++ {
				if c.homeOf(RegionID(r)) == node {
					rgs[r] = c.Create(RegionID(r), 4)
				}
			}
			tk.Spend(2000)
			for r := 0; r < regions; r++ {
				if rgs[r] == nil {
					rgs[r] = c.Map(RegionID(r), 4)
				}
			}
			stressOps(tk, m, c, rgs, ops, node)
			eps[node].Env(tk).Inject(0, 900)
		})
	}
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(2_000_000_000, job)
	var total uint64
	for _, v := range final {
		total += v
	}
	return total, m, job
}
