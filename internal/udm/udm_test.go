package udm

import (
	"strings"
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/nic"
)

// testMachine builds a 2x1 machine with one job scheduled solo (huge
// quantum, zero skew) and endpoints attached on both nodes.
func testMachine(t *testing.T, mut func(*glaze.Config)) (*glaze.Machine, *glaze.Job, []*EP) {
	t.Helper()
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	if mut != nil {
		mut(&cfg)
	}
	m := glaze.NewMachine(cfg)
	job := m.NewJob("test")
	eps := make([]*EP, 2)
	for i := range eps {
		eps[i] = Attach(job.Process(i))
	}
	m.NewGang(1<<40, 0, job).Start()
	return m, job, eps
}

func TestPingPongInterrupt(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	const (
		hPing = 1
		hPong = 2
	)
	var pongAt uint64
	rounds := uint64(0)
	eps[1].On(hPing, func(e *Env, msg *Msg) {
		e.Inject(0, hPong, msg.Args...)
	})
	done := NewCounter()
	eps[0].On(hPong, func(e *Env, msg *Msg) {
		pongAt = e.Now()
		rounds++
		done.Add(1)
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		e.Inject(1, hPing, 7)
		done.WaitFor(tk, 1)
	})
	m.RunUntilDone(0, job)
	if rounds != 1 {
		t.Fatalf("rounds = %d, want 1", rounds)
	}
	if pongAt == 0 {
		t.Fatal("pong never arrived")
	}
	d := job.Delivery()
	if d.Fast != 2 || d.Buffered != 0 {
		t.Errorf("delivery = %+v, want 2 fast, 0 buffered", d)
	}
}

func TestPingPongLatencyMatchesCostModel(t *testing.T) {
	// A null-message one-way send must cost SendCost + network + RecvIntrPre
	// + perArg + NullHandler before the handler body runs.
	m, job, eps := testMachine(t, nil)
	var handlerAt, sentAt uint64
	eps[1].On(1, func(e *Env, msg *Msg) {})
	done := NewCounter()
	eps[1].On(2, func(e *Env, msg *Msg) { handlerAt = e.Now(); done.Add(1) })
	job.Process(1).StartMain(func(tk *cpu.Task) { done.WaitFor(tk, 1) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		sentAt = e.Now()
		e.Inject(1, 2) // null message
	})
	m.RunUntilDone(0, job)
	cm := m.Cost()
	// Send 7, mesh delay for 2 words over 1 hop, then the stub+extract+null
	// handler cost before the handler body observes the time.
	lat := uint64(10 + 2 + 2) // mesh.DefaultLatency for 2 words, 1 hop
	want := sentAt + cm.SendCost(0) + lat + cm.RecvIntrPre() + cm.NullHandler
	if handlerAt != want {
		t.Errorf("handler ran at %d, want %d (sent %d)", handlerAt, want, sentAt)
	}
}

func TestPollingReceive(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	got := []uint64{}
	eps[1].On(1, func(e *Env, msg *Msg) { got = append(got, msg.Args[0]) })
	job.Process(1).StartMain(func(tk *cpu.Task) {
		e := eps[1].Env(tk)
		e.BeginAtomic()
		for len(got) < 3 {
			e.Poll()
		}
		e.EndAtomic()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		for i := uint64(0); i < 3; i++ {
			e.Inject(1, 1, i)
		}
	})
	m.RunUntilDone(0, job)
	if len(got) != 3 {
		t.Fatalf("got %d messages, want 3", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Errorf("order: got[%d] = %d", i, v)
		}
	}
	d := job.Delivery()
	if d.Fast != 3 {
		t.Errorf("delivery = %+v, want 3 fast", d)
	}
}

func TestPollOutsideAtomicPanics(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	panicked := false
	job.Process(0).StartMain(func(tk *cpu.Task) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		eps[0].Env(tk).Poll()
	})
	m.RunUntilDone(0, job)
	if !panicked {
		t.Error("Poll outside atomic section did not panic")
	}
}

// TestPolledReceiveStagesRunAtWakes checks that a polled receive runs its
// stages before the handler in the event loop, at the wakes of their
// spends, rather than resuming the polling task for each. A malformed
// one-word message makes the read stage panic: run by the task, the panic
// would reach the task's own recover; run at the wake of the dispatch
// spend, it leaves through the engine's caller instead.
func TestPolledReceiveStagesRunAtWakes(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	var inTask any
	job.Process(1).StartMain(func(tk *cpu.Task) {
		defer func() { inTask = recover() }()
		e := eps[1].Env(tk)
		e.BeginAtomic()
		e.PollWait()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		tk.Spend(50)
		ni := job.Process(0).NI()
		ni.Describe(nic.MakeHeader(1))
		if trap := ni.Launch(false); trap != nic.TrapNone {
			t.Errorf("launch trapped %v", trap)
		}
	})
	var inEngine any
	func() {
		defer func() { inEngine = recover() }()
		m.RunUntilDone(0, job)
	}()
	if inTask != nil {
		t.Fatalf("the polling task recovered %q: its read stage ran in the task", inTask)
	}
	if msg, _ := inEngine.(string); !strings.Contains(msg, "malformed message") {
		t.Fatalf("the engine's caller recovered %v, want the read stage's malformed-message panic", inEngine)
	}
}

func TestInjectCRefusesWhenBusy(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	eps[1].On(1, func(e *Env, msg *Msg) {})
	var first, second bool
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		first = e.InjectC(1, 1, 1, 2, 3)
		second = e.InjectC(1, 1, 1, 2, 3) // output still draining
		e.Spend(100)
		if !e.InjectC(1, 1, 9) {
			t.Error("InjectC failed after drain")
		}
	})
	m.RunUntilDone(0, job)
	if !first || second {
		t.Errorf("InjectC = %v,%v, want true,false", first, second)
	}
}

// TestDescheduledBuffering: messages for a job that is not resident go to
// its virtual buffer and are delivered when it is scheduled back in.
func TestDescheduledBuffering(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	jobA := m.NewJob("A")
	jobB := m.NewJob("B")
	epA0 := Attach(jobA.Process(0))
	epA1 := Attach(jobA.Process(1))
	Attach(jobB.Process(0))
	Attach(jobB.Process(1))

	var got []uint64
	epA1.On(1, func(e *Env, msg *Msg) { got = append(got, msg.Args[0]) })

	// Full skew: node 0 enters A's quantum at t=0, node 1 only at t=50k.
	// Messages sent right away arrive at node 1 before any process is
	// resident there, mismatch, and must take the buffered path; node 1
	// then starts A's quantum in buffered mode and drains.
	jobA.Process(0).StartMain(func(tk *cpu.Task) {
		e := epA0.Env(tk)
		e.Inject(1, 1, 11)
		e.Inject(1, 1, 22)
		e.Inject(1, 1, 33)
	})
	m.NewGang(100_000, 0.5, jobA, jobB).Start()
	m.RunUntilDone(3_000_000, jobA)
	// Let node 1's first A quantum deliver.
	m.Eng.RunUntil(m.Eng.Now() + 400_000)
	if len(got) != 3 {
		t.Fatalf("delivered %d messages, want 3 (got %v)", len(got), got)
	}
	for i, want := range []uint64{11, 22, 33} {
		if got[i] != want {
			t.Errorf("order violated: %v", got)
		}
	}
	d := jobA.Delivery()
	if d.Buffered != 3 {
		t.Errorf("delivery = %+v, want 3 buffered", d)
	}
	if jobA.MaxBufferPages() < 1 {
		t.Error("no buffer pages recorded")
	}
}

// TestWrongGIDNeverReachesUser: node 0 of job A sends while node 1 runs job
// B the whole time; B must never see the message.
func TestWrongGIDProtection(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	jobA := m.NewJob("A")
	jobB := m.NewJob("B")
	epA0 := Attach(jobA.Process(0))
	epA1 := Attach(jobA.Process(1))
	epB1 := Attach(jobB.Process(1))
	Attach(jobB.Process(0))

	bGot := 0
	aGot := 0
	// Same handler id registered by both jobs: protection must demultiplex.
	epB1.On(1, func(e *Env, msg *Msg) { bGot++ })
	epA1.On(1, func(e *Env, msg *Msg) { aGot++ })

	jobA.Process(0).StartMain(func(tk *cpu.Task) {
		epA0.Env(tk).Inject(1, 1, 42)
	})
	// B is resident everywhere (A never scheduled... A must run to send).
	// Schedule A and B alternating; B's node-1 main spins so B stays live.
	m.NewGang(50_000, 0, jobA, jobB).Start()
	m.RunUntilDone(2_000_000, jobA)
	m.Eng.RunUntil(m.Eng.Now() + 300_000)
	if bGot != 0 {
		t.Fatalf("job B received job A's message %d times", bGot)
	}
	if aGot != 1 {
		t.Fatalf("job A delivery = %d, want 1", aGot)
	}
}

// TestRevocationDuringPolling: the application holds an atomic section while
// messages queue behind a stuck head; the timeout revokes, the mismatch
// handler buffers, and the still-atomic thread keeps reading transparently
// from the software buffer.
func TestRevocationDuringPolling(t *testing.T) {
	m, job, eps := testMachine(t, func(cfg *glaze.Config) {
		cfg.NIConfig.TimerPreset = 500
	})
	var got []uint64
	eps[1].On(1, func(e *Env, msg *Msg) { got = append(got, msg.Args[0]) })
	job.Process(1).StartMain(func(tk *cpu.Task) {
		e := eps[1].Env(tk)
		e.BeginAtomic()
		e.Spend(5000) // messages arrive; head sticks; timer fires at 500
		for len(got) < 3 {
			e.Poll()
		}
		e.EndAtomic()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		for i := uint64(0); i < 3; i++ {
			e.Inject(1, 1, i)
		}
	})
	m.RunUntilDone(0, job)
	p := job.Process(1)
	if p.Revocations != 1 {
		t.Errorf("revocations = %d, want 1", p.Revocations)
	}
	if len(got) != 3 {
		t.Fatalf("got %d messages, want 3", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order violated after revocation: %v", got)
		}
	}
	d := job.Delivery()
	if d.Buffered == 0 {
		t.Error("no messages took the buffered path despite revocation")
	}
	if p.Buffered() {
		t.Error("process still in buffered mode after drain")
	}
}

// TestRevocationDuringHandler: a handler that dawdles with more messages
// pending gets revoked; delivery continues through the buffer and returns
// to fast mode afterwards.
func TestRevocationDuringHandler(t *testing.T) {
	m, job, eps := testMachine(t, func(cfg *glaze.Config) {
		cfg.NIConfig.TimerPreset = 300
	})
	var got []uint64
	eps[1].On(1, func(e *Env, msg *Msg) {
		got = append(got, msg.Args[0])
		if msg.Args[0] == 0 {
			e.Spend(2000) // hog the handler while more messages arrive
		}
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		for i := uint64(0); i < 5; i++ {
			e.Inject(1, 1, i)
		}
	})
	m.RunUntilDone(0, job)
	m.Eng.RunUntil(m.Eng.Now() + 100_000)
	if len(got) != 5 {
		t.Fatalf("got %d messages, want 5 (%v)", len(got), got)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order violated: %v", got)
		}
	}
	p := job.Process(1)
	if p.Revocations == 0 {
		t.Error("no revocation recorded")
	}
	if job.Delivery().Buffered == 0 {
		t.Error("no buffered deliveries despite revocation")
	}
	if p.Buffered() {
		t.Error("process stuck in buffered mode")
	}
}

// TestFaultInHandlerForcesBuffering: a page fault inside a handler is one of
// the paper's three transition causes.
func TestFaultInHandlerForcesBuffering(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	var faultedMode bool
	count := 0
	eps[1].On(1, func(e *Env, msg *Msg) {
		count++
		if count == 1 {
			e.Touch(1 << 30) // unmapped: demand zero-fill fault in handler
			faultedMode = eps[1].Process().Buffered()
		}
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		e.Inject(1, 1, 1)
		e.Inject(1, 1, 2)
		e.Inject(1, 1, 3)
	})
	m.RunUntilDone(0, job)
	m.Eng.RunUntil(m.Eng.Now() + 100_000)
	if count != 3 {
		t.Fatalf("delivered %d, want 3", count)
	}
	if !faultedMode {
		t.Error("fault in handler did not engage buffered mode")
	}
	if job.Process(1).FaultsInHandler != 1 {
		t.Errorf("FaultsInHandler = %d, want 1", job.Process(1).FaultsInHandler)
	}
	if job.Process(1).Buffered() {
		t.Error("process stuck in buffered mode")
	}
}

// TestExactlyOnceInOrderAcrossModes is the central two-case delivery
// invariant: an arbitrary mix of fast and buffered delivery caused by
// multiprogramming must deliver every message exactly once, in order.
func TestExactlyOnceInOrderAcrossModes(t *testing.T) {
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.NIConfig.TimerPreset = 700
	m := glaze.NewMachine(cfg)
	job := m.NewJob("app")
	null := m.NewJob("null")
	Attach(null.Process(0))
	Attach(null.Process(1))
	ep0 := Attach(job.Process(0))
	ep1 := Attach(job.Process(1))

	const N = 400
	var got []uint64
	ep1.On(1, func(e *Env, msg *Msg) { got = append(got, msg.Args[0]) })
	done := NewCounter()
	ep1.On(2, func(e *Env, msg *Msg) { done.Add(1) })
	_ = ep0
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := ep0.Env(tk)
		r := m.Eng.Rand()
		for i := uint64(0); i < N; i++ {
			e.Inject(1, 1, i)
			e.Spend(r.Uint64n(800) + 10)
		}
	})
	job.Process(1).StartMain(func(tk *cpu.Task) {
		// Passive: handlers do the work; wait forever-ish via counter the
		// test pokes at the end. Just wait for all N.
		c := NewCounter()
		_ = c
		for len(got) < N {
			tk.Spend(5000)
		}
	})
	// Skewed multiprogramming against null: both transitions (quantum
	// expiry windows) and plain fast delivery occur.
	m.NewGang(20_000, 0.3, job, null).Start()
	m.RunUntilDone(200_000_000, job)
	if len(got) != N {
		t.Fatalf("delivered %d, want %d", len(got), N)
	}
	seen := map[uint64]bool{}
	for i, v := range got {
		if seen[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		seen[v] = true
		if v != uint64(i) {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
	d := job.Delivery()
	if d.Fast == 0 || d.Buffered == 0 {
		t.Errorf("want a mix of paths, got %+v", d)
	}
	if d.Total() < N {
		t.Errorf("delivery total %d < %d", d.Total(), N)
	}
}

// TestActivityResumesOncePerHandler counts the message-handling task's
// coroutine resumes: with handlers that spend nothing, everything else the
// activity does (the interrupt receive up to the handler, the tail after
// it, the choice of the next delivery and the wait for a signal) runs at
// wakes in the event loop, so the task resumes once per handler run plus
// once at start-up.
func TestActivityResumesOncePerHandler(t *testing.T) {
	startup := func(k uint64) int64 {
		m, job, eps := testMachine(t, nil)
		got := NewCounter()
		eps[1].On(1, func(e *Env, msg *Msg) { got.Add(1) })
		job.Process(1).StartMain(func(tk *cpu.Task) { got.WaitFor(tk, k) })
		job.Process(0).StartMain(func(tk *cpu.Task) {
			e := eps[0].Env(tk)
			for i := uint64(0); i < k; i++ {
				e.Inject(1, 1, i)
				e.Spend(200)
			}
		})
		m.RunUntilDone(0, job)
		if d := job.Delivery(); d.Fast != k || d.Buffered != 0 {
			t.Fatalf("k=%d: delivery = %+v, want %d fast", k, d, k)
		}
		return int64(job.Process(1).UpcallResumes()) - int64(k)
	}
	// The one start-up resume comes before any message arrives, when the
	// gang scheduler first makes the process resident.
	if a, b := startup(3), startup(11); a != 1 || b != 1 {
		t.Errorf("resumes beyond one per handler: %d with 3 messages, %d with 11; want 1", a, b)
	}
}
