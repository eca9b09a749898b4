package udm

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
)

func TestPeekDoesNotConsume(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	var handled []uint64
	eps[1].On(1, func(e *Env, msg *Msg) { handled = append(handled, msg.Args[0]) })
	var peeked *Msg
	var peekedAgain *Msg
	job.Process(1).StartMain(func(tk *cpu.Task) {
		e := eps[1].Env(tk)
		e.BeginAtomic()
		for peeked == nil {
			tk.Spend(10)
			peeked = e.Peek()
		}
		peekedAgain = e.Peek() // still there: peek must not dequeue
		e.PollWait()           // now actually extract
		e.EndAtomic()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		eps[0].Env(tk).Inject(1, 1, 77)
	})
	m.RunUntilDone(0, job)
	if peeked == nil || peeked.Args[0] != 77 {
		t.Fatalf("peeked = %+v, want args [77]", peeked)
	}
	if peekedAgain == nil || peekedAgain.Args[0] != 77 {
		t.Error("second peek did not see the same message")
	}
	if len(handled) != 1 || handled[0] != 77 {
		t.Errorf("handled = %v, want [77]", handled)
	}
}

func TestPeekEmptyReturnsNil(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	var got *Msg = &Msg{}
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		e.BeginAtomic()
		got = e.Peek()
		e.EndAtomic()
	})
	m.RunUntilDone(0, job)
	if got != nil {
		t.Errorf("Peek on empty queue = %+v, want nil", got)
	}
}

func TestPeekTransparentInBufferedMode(t *testing.T) {
	// Peek must read the buffered copy when the process is in buffered
	// mode, indistinguishably from the fast case. Force buffering through
	// revocation: the receiver holds an atomic section while the message
	// waits, the atomicity timer fires, and the kernel shifts delivery to
	// the software buffer — which the still-atomic thread then peeks.
	m, job, eps := testMachine(t, func(cfg *glaze.Config) {
		cfg.NIConfig.TimerPreset = 300
	})
	eps[1].On(1, func(e *Env, msg *Msg) {})
	var peeked *Msg
	job.Process(1).StartMain(func(tk *cpu.Task) {
		e := eps[1].Env(tk)
		e.BeginAtomic()
		tk.Spend(5000) // message arrives, sticks, timer revokes
		for peeked == nil {
			tk.Spend(10)
			peeked = e.Peek()
		}
		if peeked.Fast {
			t.Error("peek in buffered mode reported the fast path")
		}
		e.PollWait()
		e.EndAtomic()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		eps[0].Env(tk).Inject(1, 1, 5)
	})
	m.RunUntilDone(5_000_000, job)
	if peeked == nil || peeked.Args[0] != 5 {
		t.Fatalf("peeked = %+v, want args [5]", peeked)
	}
	if n := m.Nodes[1].Metrics.Counter("glaze.revocations").Value(); n != 1 {
		t.Errorf("revocations = %d, want 1", n)
	}
}

func TestHandlerToThreadConversion(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	var handlerDone, threadDone uint64
	done := NewCounter()
	eps[1].On(1, func(e *Env, msg *Msg) {
		// Minimal handler work, then hand off to a thread, as the UDM
		// model prescribes for anything long-running.
		arg := msg.Args[0]
		e.Spawn("worker", func(te *Env) {
			te.Spend(5000)
			threadDone = te.Now()
			te.Inject(0, 2, arg*2)
		})
		handlerDone = e.Now()
	})
	var reply uint64
	eps[0].On(2, func(e *Env, msg *Msg) {
		reply = msg.Args[0]
		done.Add(1)
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		eps[0].Env(tk).Inject(1, 1, 21)
		done.WaitFor(tk, 1)
	})
	m.RunUntilDone(0, job)
	if reply != 42 {
		t.Fatalf("reply = %d, want 42", reply)
	}
	if threadDone <= handlerDone {
		t.Error("thread did not run after the handler completed")
	}
	if threadDone-handlerDone < 5000 {
		t.Errorf("thread work %d cycles, want >= 5000", threadDone-handlerDone)
	}
}

func TestSpawnedThreadSuspendsWithProcess(t *testing.T) {
	// A thread created by a handler obeys the gang schedule like any other
	// task of the process.
	cfg := glaze.DefaultConfig()
	cfg.W, cfg.H = 2, 1
	m := glaze.NewMachine(cfg)
	job := m.NewJob("spawn")
	null := m.NewJob("null")
	ep0 := Attach(job.Process(0))
	ep1 := Attach(job.Process(1))
	Attach(null.Process(0))
	Attach(null.Process(1))
	var ticks []uint64
	eps := NewCounter()
	ep1.On(1, func(e *Env, msg *Msg) {
		e.Spawn("ticker", func(te *Env) {
			for i := 0; i < 10; i++ {
				te.Spend(20_000)
				ticks = append(ticks, te.Now())
			}
			te.Inject(0, 2)
		})
	})
	ep0.On(2, func(e *Env, msg *Msg) { eps.Add(1) })
	job.Process(0).StartMain(func(tk *cpu.Task) {
		ep0.Env(tk).Inject(1, 1)
		eps.WaitFor(tk, 1)
	})
	m.NewGang(50_000, 0, job, null).Start()
	m.RunUntilDone(5_000_000, job)
	if len(ticks) != 10 {
		t.Fatalf("ticker ran %d/10 steps", len(ticks))
	}
	// 10 steps of 20k = 200k of work; with a 50% share the thread must have
	// been suspended across null quanta: wall time strictly exceeds work.
	if ticks[9]-ticks[0] < 250_000 {
		t.Errorf("thread wall span %d, want > 250k (suspended during null quanta)", ticks[9]-ticks[0])
	}
}
