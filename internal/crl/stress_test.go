package crl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// TestCoherenceStressProperty drives random region operations from every
// node and checks the defining invariant of the protocol: read-modify-write
// increments under write sections never lose updates, across any schedule
// the seed induces.
func TestCoherenceStressProperty(t *testing.T) {
	prop := func(seed uint64, opsPerNode uint8) bool {
		ops := int(opsPerNode%40) + 10
		cfg := glaze.DefaultConfig()
		cfg.W, cfg.H = 4, 1
		cfg.Seed = seed
		m := glaze.NewMachine(cfg)
		job := m.NewJob("stress")
		crls := make([]*Node, 4)
		eps := make([]*udm.EP, 4)
		for i := 0; i < 4; i++ {
			eps[i] = udm.Attach(job.Process(i))
			crls[i] = New(eps[i], 4)
		}
		const regions = 3
		done := udm.NewCounter()
		eps[0].On(900, func(e *udm.Env, msg *udm.Msg) { done.Add(1) })
		// Region r is homed on node r; all counters start at zero.
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
		if !job.Done() {
			return false // deadlock
		}
		var total uint64
		for _, v := range final {
			total += v
		}
		return total == uint64(4*ops)
	}
	// A fixed source keeps the explored schedules (and so CI) deterministic.
	// Unpinned time-seeded exploration found rare inputs that deadlocked
	// the protocol (machine seed 0x9459729f43aff4c8 at ops >= 41/node, a
	// request lost in finishDeferred's preemption window — dissected in
	// docs/crl-deadlock-0x9459729f43aff4c8.md, pinned by
	// TestDeadlockSeedRegression).
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// stressOps interleaves increments (write sections) with verification reads.
func stressOps(tk *cpu.Task, m *glaze.Machine, c *Node, rgs []*Region, ops, node int) {
	rng := m.Eng.Rand()
	for i := 0; i < ops; i++ {
		rg := rgs[(node+i)%len(rgs)]
		if rng.Intn(4) == 0 {
			// A read section: the value must be monotone (never observe
			// a lost update as a decrease is impossible to check per-region
			// cheaply here, so just exercise the path).
			c.StartRead(tk, rg)
			_ = rg.Read(0)
			c.EndRead(tk, rg)
		}
		c.StartWrite(tk, rg)
		rg.Write(0, rg.Read(0)+1)
		c.EndWrite(tk, rg)
		tk.Spend(uint64(rng.Intn(400)) + 20)
	}
}

// TestManyReadersOneWriter: repeated cycles of broad sharing followed by a
// write exercise the full invalidation fan-out.
func TestManyReadersOneWriter(t *testing.T) {
	cfg := glaze.DefaultConfig()
	m := glaze.NewMachine(cfg)
	job := m.NewJob("fanout")
	n := 8
	crls := make([]*Node, n)
	eps := make([]*udm.EP, n)
	for i := 0; i < n; i++ {
		eps[i] = udm.Attach(job.Process(i))
		crls[i] = New(eps[i], n)
	}
	const rounds = 20
	seen := make([][]uint64, n)
	phase := make([]*udm.Counter, n)
	for i := range phase {
		phase[i] = udm.NewCounter()
		eps[i].On(900, func(e *udm.Env, msg *udm.Msg) { phase[i].Add(1) })
	}
	bcast := func(e *udm.Env, from int) {
		for i := 0; i < n; i++ {
			if i != from {
				e.Inject(i, 900)
			}
		}
	}
	job.Process(0).StartMain(func(tk *cpu.Task) {
		c := crls[0]
		rg := c.Create(0, 2)
		e := eps[0].Env(tk)
		for r := 0; r < rounds; r++ {
			c.StartWrite(tk, rg)
			rg.Write(0, uint64(r+1))
			c.EndWrite(tk, rg)
			bcast(e, 0)                               // readers may look now
			phase[0].WaitFor(tk, uint64((r+1)*(n-1))) // all readers done
		}
	})
	for node := 1; node < n; node++ {
		seen[node] = nil
		job.Process(node).StartMain(func(tk *cpu.Task) {
			c := crls[node]
			tk.Spend(2000)
			rg := c.Map(0, 2)
			e := eps[node].Env(tk)
			for r := 0; r < rounds; r++ {
				phase[node].WaitFor(tk, uint64(r+1))
				c.StartRead(tk, rg)
				seen[node] = append(seen[node], rg.Read(0))
				c.EndRead(tk, rg)
				e.Inject(0, 900)
			}
		})
	}
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(2_000_000_000, job)
	if !job.Done() {
		t.Fatal("fan-out run did not complete")
	}
	for node := 1; node < n; node++ {
		for r, v := range seen[node] {
			if v != uint64(r+1) {
				t.Fatalf("node %d round %d read %d, want %d (stale copy)", node, r, v, r+1)
			}
		}
	}
}
