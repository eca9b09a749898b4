package udm

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
)

// TestOverflowControl floods a slow consumer until the receiving node's
// frame pool crosses the overflow threshold: the job must be globally
// suspended (sends stall), the scheduler advised to co-schedule it, and —
// once the backlog drains — released, with every message delivered exactly
// once. Physical memory stays bounded throughout (guaranteed delivery pages
// out rather than failing).
func TestOverflowControl(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.FramesPerNode = 6
	m := glaze.NewMachine(cfg)
	job := m.NewJob("flood")
	null := m.NewJob("null")
	Attach(null.Process(0))
	Attach(null.Process(1))
	ep0 := Attach(job.Process(0))
	ep1 := Attach(job.Process(1))

	const N = 800
	seen := make(map[uint64]bool)
	var order []uint64
	ep1.On(1, func(e *Env, msg *Msg) {
		if seen[msg.Args[0]] {
			t.Fatalf("duplicate delivery of %d", msg.Args[0])
		}
		seen[msg.Args[0]] = true
		order = append(order, msg.Args[0])
		e.Spend(500) // slow handler: consumption far below production
	})
	args := make([]uint64, 14) // maximum-size messages fill pages quickly
	var throttledSeen bool
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := ep0.Env(tk)
		for i := uint64(0); i < N; i++ {
			args[0] = i
			e.Inject(1, 1, args...)
			if job.Process(0).Throttled() {
				throttledSeen = true
			}
		}
	})
	job.Process(1).StartMain(func(tk *cpu.Task) {
		for len(order) < N {
			tk.Spend(10_000)
		}
	})
	m.NewGang(50_000, 0.5, job, null).Start()
	m.RunUntilDone(100_000_000, job)
	if len(order) != N {
		t.Fatalf("delivered %d, want %d", len(order), N)
	}
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("order violated at %d: %d", i, v)
		}
	}
	if m.Nodes[1].Metrics.Counter("glaze.overflow.trips").Value() == 0 {
		t.Error("overflow control never tripped")
	}
	if !throttledSeen {
		t.Error("sender never observed throttling")
	}
	if job.Process(0).Throttled() || job.Process(1).Throttled() {
		t.Error("job still throttled after drain")
	}
	// The whole point: the backlog (800 * 15 words = ~12 pages of demand)
	// never consumed more frames than physically exist, and the high water
	// stayed at or below the pool size.
	if hw := m.Nodes[1].Frames.HighWater(); hw > cfg.FramesPerNode {
		t.Errorf("frame high water %d exceeds pool %d", hw, cfg.FramesPerNode)
	}
}

// TestOverflowPagesOutUnderExhaustion drives the pool to absolute
// exhaustion (overflow control reacts only between quanta) and checks the
// guaranteed-delivery path: buffer pages are evicted to backing store over
// the OS network instead of dropping or deadlocking.
func TestOverflowPagesOut(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.FramesPerNode = 2
	m := glaze.NewMachine(cfg)
	job := m.NewJob("flood")
	ep0 := Attach(job.Process(0))
	ep1 := Attach(job.Process(1))

	const N = 400
	got := 0
	ep1.On(1, func(e *Env, msg *Msg) { got++ })
	args := make([]uint64, 14)
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := ep0.Env(tk)
		for i := uint64(0); i < N; i++ {
			args[0] = i
			e.Inject(1, 1, args...)
		}
	})
	job.Process(1).StartMain(func(tk *cpu.Task) {
		// Sleep through the flood so everything buffers, then drain.
		tk.Spend(200_000)
		e := ep1.Env(tk)
		e.BeginAtomic()
		for got < N {
			e.Poll()
		}
		e.EndAtomic()
	})
	// Keep node 1's process descheduled during the flood: skewed start.
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	if got != N {
		t.Fatalf("delivered %d, want %d", got, N)
	}
	if hw := m.Nodes[1].Frames.HighWater(); hw > 2 {
		t.Errorf("frame high water %d exceeds pool 2", hw)
	}
}
