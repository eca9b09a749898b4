package udm

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/mesh"
	"fugu/internal/nic"
)

// TestDescriptorShadowedAcrossSwitch: a context switch in the middle of
// describing a message must unload the partial descriptor and reload it
// when the process resumes, per Section 4.1 ("the contents of the output
// buffer may be transparently unloaded and later reloaded").
func TestDescriptorShadowedAcrossSwitch(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("desc")
	null := m.NewJob("null")
	Attach(null.Process(0))
	Attach(null.Process(1))
	Attach(job.Process(0))
	ep1 := Attach(job.Process(1))
	var got []uint64
	ep1.On(1, func(e *Env, msg *Msg) { got = append(got, msg.Args[0]) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		ni := job.Process(0).NI()
		// Describe half a message, then dawdle across a quantum boundary.
		ni.Describe(nic.MakeHeader(1), 1)
		tk.Spend(120_000) // the quantum is 50k: at least one switch happens
		// The descriptor must still be intact: finish and launch.
		ni.Describe(99)
		if trap := ni.Launch(false); trap != nic.TrapNone {
			t.Errorf("launch trapped %v", trap)
		}
	})
	m.NewGang(50_000, 0, job, null).Start()
	m.RunUntilDone(10_000_000, job)
	m.Eng.RunUntil(m.Eng.Now() + 500_000)
	if len(got) != 1 || got[0] != 99 {
		t.Fatalf("got %v, want [99] (descriptor lost across switch)", got)
	}
}

// TestStrayGIDMessageDropped: a message for a GID with no process on the
// destination node is a protection event; the kernel counts and drops it
// without disturbing anyone.
func TestStrayGIDMessageDropped(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("app")
	ep0 := Attach(job.Process(0))
	_ = Attach(job.Process(1))
	job.Process(0).StartMain(func(tk *cpu.Task) {
		// Forge a message to a GID nobody owns by launching with kernel
		// privilege and a bogus stamp. (User code cannot do this; the test
		// plays hardware fault.)
		ni := job.Process(0).NI()
		h := nic.MakeHeader(1)
		ni.Describe(h, 1, 7)
		// Kernel launch with the descriptor's zero GID: GID 0 is the
		// kernel GID... use a user launch from a GID that has no peer
		// process: detach by switching the NI GID directly.
		ni.SetGID(999)
		if trap := ni.Launch(false); trap != nic.TrapNone {
			t.Errorf("launch trapped %v", trap)
		}
		ni.SetGID(job.GID())
		tk.Spend(1000)
	})
	_ = ep0
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	m.Eng.RunUntil(m.Eng.Now() + 100_000)
	if n := m.Nodes[1].Metrics.Counter("glaze.stray_messages").Value(); n != 1 {
		t.Errorf("stray messages = %d, want 1", n)
	}
}

// TestKernelMessageHandled: kernel-tagged messages on the main network
// interrupt the kernel, not any user.
func TestKernelMessageHandled(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("app")
	Attach(job.Process(0))
	ep1 := Attach(job.Process(1))
	userGot := 0
	ep1.On(1, func(e *Env, msg *Msg) { userGot++ })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		ni := job.Process(0).NI()
		ni.Describe(nic.MakeKernelHeader(1), 1, 5)
		if trap := ni.Launch(true); trap != nic.TrapNone {
			t.Errorf("kernel launch trapped %v", trap)
		}
		tk.Spend(1000)
	})
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	m.Eng.RunUntil(m.Eng.Now() + 100_000)
	if n := m.Nodes[1].Metrics.Counter("glaze.kernel_msgs").Value(); n != 1 {
		t.Errorf("kernel messages = %d, want 1", n)
	}
	if userGot != 0 {
		t.Error("kernel message leaked to a user handler")
	}
}

// TestGangOffsetsSpread: node switch times are spread by the skew fraction.
func TestGangOffsetsSpread(t *testing.T) {
	cfg := glaze.DefaultConfig()
	m := glaze.NewMachine(cfg)
	job := m.NewJob("a")
	var first [8]uint64
	for i := 0; i < 8; i++ {
		ep := Attach(job.Process(i))
		_ = ep
		job.Process(i).StartMain(func(tk *cpu.Task) {
			first[i] = tk.Now() // when this node first runs the job
			tk.Spend(100)
		})
	}
	m.NewGang(100_000, 0.5, job).Start()
	m.RunUntilDone(10_000_000, job)
	for i := 1; i < 8; i++ {
		if first[i] < first[i-1] {
			t.Errorf("node %d started before node %d (%d < %d)", i, i-1, first[i], first[i-1])
		}
	}
	spread := first[7] - first[0]
	// Half the quantum, by construction of the offsets.
	if spread < 40_000 || spread > 60_000 {
		t.Errorf("offset spread = %d, want ~50k", spread)
	}
}

// TestOSNetworkIndependence: flooding the main network does not delay the
// reserved OS network (the deadlock-avoidance property of Section 4.2).
func TestOSNetworkIndependence(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.NIConfig.Queue.Slots = 2
	m := glaze.NewMachine(cfg)
	job := m.NewJob("clog")
	ep0 := Attach(job.Process(0))
	ep1 := Attach(job.Process(1))
	// Clog node 1's main-network input: a slow handler keeps the two-deep
	// input queue full so the backlog stacks up inside the network.
	ep1.On(1, func(e *Env, msg *Msg) { e.Spend(5000) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := ep0.Env(tk)
		for i := 0; i < 50; i++ {
			e.Inject(1, 1, uint64(i))
		}
		// An OS-network packet injected now must arrive immediately even
		// though the main network has a backlog.
		m.Net.Send(mesh.OS, 0, 1, []uint64{nic.MakeKernelHeader(1), 99, 0})
		tk.Spend(1000)
	})
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(0, job)
	m.Eng.RunUntil(m.Eng.Now() + 1_000_000)
	c := m.Metrics.Counter
	if pk, ref := c("mesh.os.packets").Value(), c("mesh.os.refused").Value(); pk == 0 || ref != 0 {
		t.Errorf("OS network packets = %d, refused = %d, want delivered unrefused", pk, ref)
	}
	if ref := c("mesh.main.refused").Value(); ref == 0 {
		t.Errorf("main network was never congested (refused = %d); the test proved nothing", ref)
	}
}

// TestProtectionViolationPanics: user code launching a kernel-tagged
// message is a protection violation surfaced as a panic (fatal, like a
// real protection trap to a process without a handler).
func TestProtectionViolationPanics(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	panicked := false
	job.Process(0).StartMain(func(tk *cpu.Task) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ni := eps[0].Process().NI()
		ni.Describe(nic.MakeKernelHeader(1), 1)
		e := eps[0].Env(tk)
		_ = e
		if trap := ni.Launch(false); trap != nic.TrapNone {
			panic(trap)
		}
	})
	m.RunUntilDone(0, job)
	if !panicked {
		t.Error("kernel-header launch by user did not trap")
	}
}
