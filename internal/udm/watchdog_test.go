package udm

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
)

// TestPollingWatchdogPattern demonstrates the polling-watchdog usage the
// paper's related-work section says FUGU's timer could support: an
// application that polls sluggishly still gets its messages delivered,
// because the atomicity timeout revokes the stuck atomic section and the
// buffered path (with its kernel-driven drain) takes over once the section
// ends.
func TestPollingWatchdogPattern(t *testing.T) {
	m, job, eps := testMachine(t, func(cfg *glaze.Config) {
		cfg.NIConfig.TimerPreset = 1000
	})
	var got []uint64
	eps[1].On(1, func(e *Env, msg *Msg) { got = append(got, msg.Args[0]) })
	job.Process(1).StartMain(func(tk *cpu.Task) {
		e := eps[1].Env(tk)
		// Sluggish polling: long stretches of computation inside an atomic
		// section, with only occasional polls.
		e.BeginAtomic()
		for len(got) < 5 {
			tk.Spend(20_000) // far beyond the 1000-cycle watchdog
			e.Poll()
		}
		e.EndAtomic()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		for i := uint64(0); i < 5; i++ {
			e.Inject(1, 1, i)
			tk.Spend(5_000)
		}
	})
	m.RunUntilDone(0, job)
	if len(got) != 5 {
		t.Fatalf("delivered %d/5", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order violated: %v", got)
		}
	}
	p := job.Process(1)
	if p.Revocations == 0 {
		t.Error("watchdog (atomicity timeout) never fired")
	}
	if job.Delivery().Buffered == 0 {
		t.Error("messages never took the watchdog-driven buffered path")
	}
}

// TestThreeJobMultiprogramming: three applications share the machine under
// a skewed gang schedule; GID protection keeps their identical handler ids
// apart and all complete correctly.
func TestThreeJobMultiprogramming(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 4, 1
	m := glaze.NewMachine(cfg)
	type app struct {
		job  *glaze.Job
		eps  []*EP
		got  map[uint64]int
		want int
	}
	mkApp := func(name string, count int) *app {
		a := &app{job: m.NewJob(name), got: map[uint64]int{}, want: count}
		for i := 0; i < 4; i++ {
			a.eps = append(a.eps, Attach(a.job.Process(i)))
		}
		done := NewCounter()
		a.eps[0].On(1, func(e *Env, msg *Msg) {
			a.got[msg.Args[0]]++
			done.Add(1)
		})
		for node := 1; node < 4; node++ {
			a.job.Process(node).StartMain(func(tk *cpu.Task) {
				e := a.eps[node].Env(tk)
				for i := 0; i < count; i++ {
					e.Inject(0, 1, uint64(node*100_000+i))
					tk.Spend(700)
				}
			})
		}
		a.job.Process(0).StartMain(func(tk *cpu.Task) {
			done.WaitFor(tk, uint64(3*count))
		})
		return a
	}
	apps := []*app{mkApp("a", 120), mkApp("b", 80), mkApp("c", 50)}
	m.NewGang(20_000, 0.15, apps[0].job, apps[1].job, apps[2].job).Start()
	m.RunUntilDone(500_000_000, apps[0].job, apps[1].job, apps[2].job)
	for _, a := range apps {
		if !a.job.Done() {
			t.Fatalf("job %s did not complete", a.job.Name())
		}
		if len(a.got) != 3*a.want {
			t.Errorf("job %s: %d distinct messages, want %d", a.job.Name(), len(a.got), 3*a.want)
		}
		for k, c := range a.got {
			if c != 1 {
				t.Errorf("job %s: message %d delivered %d times", a.job.Name(), k, c)
			}
		}
		if a.job.Delivery().Buffered == 0 {
			t.Errorf("job %s never buffered despite three-way multiprogramming", a.job.Name())
		}
	}
}
