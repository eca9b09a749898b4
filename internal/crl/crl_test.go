package crl

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/udm"
)

// rig: a 4-node machine with one job, CRL attached on every node.
type rig struct {
	m   *glaze.Machine
	job *glaze.Job
	crl []*Node
	eps []*udm.EP
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 4, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("crl")
	r := &rig{m: m, job: job}
	for i := 0; i < 4; i++ {
		ep := udm.Attach(job.Process(i))
		r.eps = append(r.eps, ep)
		r.crl = append(r.crl, New(ep, 4))
	}
	m.NewGang(1<<40, 0, job).Start()
	return r
}

// run starts mains (fn per node) and runs to completion.
func (r *rig) run(t *testing.T, fns map[int]func(tk *cpu.Task, c *Node)) {
	t.Helper()
	for node, fn := range fns {
		r.job.Process(node).StartMain(func(tk *cpu.Task) { fn(tk, r.crl[node]) })
	}
	r.m.RunUntilDone(500_000_000, r.job)
	if !r.job.Done() {
		t.Fatal("job did not complete (deadlock?)")
	}
}

func TestLocalHomeSections(t *testing.T) {
	r := newRig(t)
	r.run(t, map[int]func(tk *cpu.Task, c *Node){
		0: func(tk *cpu.Task, c *Node) {
			rg := c.Create(0, 8)
			c.StartWrite(tk, rg)
			rg.Write(3, 42)
			c.EndWrite(tk, rg)
			c.StartRead(tk, rg)
			if rg.Read(3) != 42 {
				t.Error("home read-back failed")
			}
			c.EndRead(tk, rg)
			if c.Misses != 0 {
				t.Errorf("home-local sections missed %d times", c.Misses)
			}
		},
	})
}

func TestRemoteReadSeesHomeData(t *testing.T) {
	r := newRig(t)
	r.run(t, map[int]func(tk *cpu.Task, c *Node){
		0: func(tk *cpu.Task, c *Node) {
			rg := c.Create(0, 8)
			c.StartWrite(tk, rg)
			for i := 0; i < 8; i++ {
				rg.Write(i, uint64(100+i))
			}
			c.EndWrite(tk, rg)
			tk.Spend(100_000)
		},
		1: func(tk *cpu.Task, c *Node) {
			tk.Spend(10_000) // let the home create and write first
			rg := c.Map(0, 8)
			c.StartRead(tk, rg)
			for i := 0; i < 8; i++ {
				if rg.Read(i) != uint64(100+i) {
					t.Errorf("word %d = %d, want %d", i, rg.Read(i), 100+i)
				}
			}
			c.EndRead(tk, rg)
			if c.Misses != 1 {
				t.Errorf("misses = %d, want 1", c.Misses)
			}
		},
	})
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t)
	phase := udmCounterPerNode(r)
	r.run(t, map[int]func(tk *cpu.Task, c *Node){
		0: func(tk *cpu.Task, c *Node) {
			rg := c.Create(0, 4)
			c.StartWrite(tk, rg)
			rg.Write(0, 1)
			c.EndWrite(tk, rg)
			phase[0].WaitFor(tk, 3) // all readers saw v1
			c.StartWrite(tk, rg)    // must invalidate the three sharers
			rg.Write(0, 2)
			c.EndWrite(tk, rg)
			for n := 1; n < 4; n++ {
				r.eps[0].Env(tk).Inject(n, 900) // go-ahead for v2 read
			}
			phase[0].WaitFor(tk, 6)
		},
		1: readerNode(t, r, phase, 1),
		2: readerNode(t, r, phase, 2),
		3: readerNode(t, r, phase, 3),
	})
}

// readerNode reads v1, acks, waits for the go-ahead, reads again expecting
// v2 (its shared copy must have been invalidated in between).
func readerNode(t *testing.T, r *rig, phase []*udm.Counter, node int) func(tk *cpu.Task, c *Node) {
	return func(tk *cpu.Task, c *Node) {
		tk.Spend(10_000)
		rg := c.Map(0, 4)
		c.StartRead(tk, rg)
		if got := rg.Read(0); got != 1 {
			t.Errorf("node %d first read = %d, want 1", node, got)
		}
		c.EndRead(tk, rg)
		r.eps[node].Env(tk).Inject(0, 900) // ack to home
		phase[node].WaitFor(tk, 1)         // wait for go-ahead
		c.StartRead(tk, rg)
		if got := rg.Read(0); got != 2 {
			t.Errorf("node %d second read = %d, want 2 (stale copy!)", node, got)
		}
		c.EndRead(tk, rg)
		r.eps[node].Env(tk).Inject(0, 900)
	}
}

// udmCounterPerNode registers a trivial signal handler (id 900) per node.
func udmCounterPerNode(r *rig) []*udm.Counter {
	cs := make([]*udm.Counter, 4)
	for i := 0; i < 4; i++ {
		cs[i] = udm.NewCounter()
		c := cs[i]
		r.eps[i].On(900, func(e *udm.Env, m *udm.Msg) { c.Add(1) })
	}
	return cs
}

func TestExclusiveMigration(t *testing.T) {
	r := newRig(t)
	phase := udmCounterPerNode(r)
	r.run(t, map[int]func(tk *cpu.Task, c *Node){
		0: func(tk *cpu.Task, c *Node) {
			c.Create(0, 4) // home here, but written remotely
			phase[0].WaitFor(tk, 2)
		},
		1: func(tk *cpu.Task, c *Node) {
			tk.Spend(10_000)
			rg := c.Map(0, 4)
			c.StartWrite(tk, rg)
			rg.Write(2, 77)
			c.EndWrite(tk, rg)
			r.eps[1].Env(tk).Inject(2, 900) // tell node 2 to read
			phase[1].WaitFor(tk, 1)
			r.eps[1].Env(tk).Inject(0, 900)
		},
		2: func(tk *cpu.Task, c *Node) {
			phase[2].WaitFor(tk, 1)
			rg := c.Map(0, 4)
			c.StartRead(tk, rg) // forces a flush out of node 1
			if got := rg.Read(2); got != 77 {
				t.Errorf("migrated read = %d, want 77", got)
			}
			c.EndRead(tk, rg)
			r.eps[2].Env(tk).Inject(1, 900)
			r.eps[2].Env(tk).Inject(0, 900)
		},
	})
}

func TestDeferredInvalidation(t *testing.T) {
	r := newRig(t)
	phase := udmCounterPerNode(r)
	var writeDone, readClosed uint64
	r.run(t, map[int]func(tk *cpu.Task, c *Node){
		0: func(tk *cpu.Task, c *Node) {
			rg := c.Create(0, 4)
			c.StartWrite(tk, rg)
			rg.Write(0, 5)
			c.EndWrite(tk, rg)
			phase[0].WaitFor(tk, 1) // node 1 holds a read section
			c.StartWrite(tk, rg)    // blocks until node 1 ends its section
			writeDone = tk.Now()
			rg.Write(0, 6)
			c.EndWrite(tk, rg)
		},
		1: func(tk *cpu.Task, c *Node) {
			tk.Spend(10_000)
			rg := c.Map(0, 4)
			c.StartRead(tk, rg)
			r.eps[1].Env(tk).Inject(0, 900)
			tk.Spend(50_000) // dawdle inside the read section
			if rg.Read(0) != 5 {
				t.Error("value changed under an open read section")
			}
			c.EndRead(tk, rg)
			readClosed = tk.Now()
		},
	})
	if writeDone < readClosed {
		t.Errorf("write granted at %d before read section closed at %d", writeDone, readClosed)
	}
}

func TestChunkedLargeRegion(t *testing.T) {
	r := newRig(t)
	const size = 200 // far larger than one message: multi-chunk replies
	r.run(t, map[int]func(tk *cpu.Task, c *Node){
		0: func(tk *cpu.Task, c *Node) {
			rg := c.Create(0, size)
			c.StartWrite(tk, rg)
			for i := 0; i < size; i++ {
				rg.Write(i, uint64(i*i))
			}
			c.EndWrite(tk, rg)
			tk.Spend(200_000)
		},
		3: func(tk *cpu.Task, c *Node) {
			tk.Spend(20_000)
			rg := c.Map(0, size)
			c.StartRead(tk, rg)
			for i := 0; i < size; i++ {
				if rg.Read(i) != uint64(i*i) {
					t.Fatalf("word %d corrupted in chunked transfer", i)
				}
			}
			c.EndRead(tk, rg)
		},
	})
}

// TestConcurrentIncrements is the coherence acid test: every node performs
// read-modify-write increments under write sections; the total must be
// exact, which requires exclusive ownership to be handed around correctly.
func TestConcurrentIncrements(t *testing.T) {
	r := newRig(t)
	const perNode = 50
	done := udm.NewCounter()
	r.eps[0].On(901, func(e *udm.Env, m *udm.Msg) { done.Add(1) })
	r.job.Process(0).StartMain(func(tk *cpu.Task) {
		c := r.crl[0]
		rg := c.Create(0, 1)
		incr(tk, c, rg, perNode)
		done.WaitFor(tk, 3)
		c.StartRead(tk, rg)
		if got := rg.Read(0); got != 4*perNode {
			t.Errorf("final counter = %d, want %d", got, 4*perNode)
		}
		c.EndRead(tk, rg)
	})
	for node := 1; node < 4; node++ {
		r.job.Process(node).StartMain(func(tk *cpu.Task) {
			tk.Spend(5_000)
			c := r.crl[node]
			rg := c.Map(0, 1)
			incr(tk, c, rg, perNode)
			r.eps[node].Env(tk).Inject(0, 901)
		})
	}
	r.m.RunUntilDone(1_000_000_000, r.job)
	if !r.job.Done() {
		t.Fatal("increment job did not complete")
	}
}

func incr(tk *cpu.Task, c *Node, rg *Region, times int) {
	for i := 0; i < times; i++ {
		c.StartWrite(tk, rg)
		rg.Write(0, rg.Read(0)+1)
		c.EndWrite(tk, rg)
		tk.Spend(uint64(50 * (c.self + 1))) // desynchronize nodes
	}
}
