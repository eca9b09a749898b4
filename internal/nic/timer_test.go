package nic

import (
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/mesh"
)

// timerRig: node 1 has a CPU attached so the atomicity timer counts user
// cycles; node 0 is a bare sender.
type timerRig struct {
	*rig
	cpu *cpu.CPU
}

func newTimerRig(t *testing.T, preset uint64) *timerRig {
	cfg := DefaultConfig()
	cfg.TimerPreset = preset
	r := &timerRig{rig: newRig(t, cfg)}
	r.cpu = cpu.New(r.eng, "cpu1")
	r.ni[1].AttachCPU(r.cpu)
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(3)
	// On timeout, revoke like the OS would: engage the buffered path so the
	// timer disarms instead of re-firing every preset interval. Timer-force
	// stays armed regardless, as in the hardware.
	r.ni[1].SetInterrupts(Interrupts{
		MessageAvailable:  func() { r.got[1].avail++; r.last[1].availAt = r.eng.Now() },
		MismatchAvailable: func() { r.got[1].mismatch++; r.last[1].mismatchAt = r.eng.Now() },
		AtomicityTimeout: func() {
			r.got[1].timeout++
			if r.got[1].timeout == 1 {
				r.last[1].timeoutAt = r.eng.Now()
			}
			r.ni[1].SetDivert(true)
		},
	})
	return r
}

func TestTimerFiresAfterPresetUserCycles(t *testing.T) {
	r := newTimerRig(t, 100)
	// User enters an atomic section and never disposes; a message arrives
	// and sits at the head. The timeout must fire after 100 *user* cycles
	// from arrival.
	r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		r.ni[1].BeginAtom(UACInterruptDisable, false)
		tk.Spend(10000)
	})
	var arriveAt uint64
	r.eng.Schedule(50, func() {
		arriveAt = r.eng.Now()
		r.send(0, 1, false, 1)
	})
	r.eng.Run()
	if r.got[1].timeout != 1 {
		t.Fatalf("timeout fired %d times, want 1", r.got[1].timeout)
	}
	delivery := mesh.DefaultLatency().Delay(1, 3)
	want := arriveAt + delivery + 100
	if r.last[1].timeoutAt != want {
		t.Errorf("timeout at %d, want %d (arrival %d + 100 user cycles)", r.last[1].timeoutAt, arriveAt+delivery, want)
	}
	if r.got[1].avail != 0 {
		t.Error("message-available raised despite interrupt-disable")
	}
}

func TestTimerExcludesKernelCycles(t *testing.T) {
	r := newTimerRig(t, 100)
	r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		r.ni[1].BeginAtom(UACInterruptDisable, false)
		tk.Spend(10000)
	})
	r.eng.Schedule(50, func() { r.send(0, 1, false, 1) })
	// A kernel task occupies the CPU for 40 cycles in the middle of the
	// countdown; the expiry must slide by exactly those 40 cycles.
	var kernelAt uint64
	r.eng.Schedule(80, func() {
		r.cpu.NewTask("k", cpu.PrioKernel, cpu.DomainKernel, func(tk *cpu.Task) {
			kernelAt = tk.Now()
			tk.Spend(40)
		})
	})
	r.eng.Run()
	if r.got[1].timeout != 1 {
		t.Fatalf("timeout fired %d times, want 1", r.got[1].timeout)
	}
	delivery := mesh.DefaultLatency().Delay(1, 3)
	want := 50 + delivery + 100 + 40
	if r.last[1].timeoutAt != want {
		t.Errorf("timeout at %d, want %d (kernel at %d excluded)", r.last[1].timeoutAt, want, kernelAt)
	}
}

func TestDisposePresetsTimer(t *testing.T) {
	r := newTimerRig(t, 100)
	r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		r.ni[1].BeginAtom(UACInterruptDisable, false)
		// Poll: wait for the first message, dispose it just before the
		// timer would fire, keep holding atomicity on the second.
		for !r.ni[1].MessageAvailable() {
			tk.Spend(5)
		}
		tk.Spend(90) // 90 of 100 cycles consumed
		if trap := r.ni[1].Dispose(); trap != TrapNone {
			t.Errorf("dispose trap %v", trap)
		}
		tk.Spend(10000) // second message now heads the queue
	})
	r.eng.Schedule(0, func() {
		r.send(0, 1, false, 1)
		r.send(0, 1, false, 2)
	})
	r.eng.Run()
	if r.got[1].timeout != 1 {
		t.Fatalf("timeout fired %d times, want 1", r.got[1].timeout)
	}
	// The dispose reloaded the counter, so expiry is 100 cycles after the
	// dispose, not after the first arrival.
	remaining := r.last[1].timeoutAt
	delivery := mesh.DefaultLatency().Delay(1, 3) // first arrival
	if remaining <= delivery+100 {
		t.Errorf("timeout at %d: fired without preset (first arrival %d)", remaining, delivery)
	}
}

func TestTimerDisarmsWhenMessageGone(t *testing.T) {
	r := newTimerRig(t, 100)
	r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		r.ni[1].BeginAtom(UACInterruptDisable, false)
		for !r.ni[1].MessageAvailable() {
			tk.Spend(5)
		}
		tk.Spend(50)
		r.ni[1].Dispose() // queue now empty: timer disarmed and preset
		tk.Spend(10000)   // stays atomic with no pending message: no timeout
	})
	r.eng.Schedule(0, func() { r.send(0, 1, false, 1) })
	r.eng.Run()
	if r.got[1].timeout != 0 {
		t.Errorf("timeout fired %d times with empty queue, want 0", r.got[1].timeout)
	}
}

func TestTimerForceCountsWithoutMessage(t *testing.T) {
	r := newTimerRig(t, 100)
	var start uint64
	r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		start = tk.Now()
		r.ni[1].BeginAtom(UACTimerForce, false)
		tk.Spend(10000)
	})
	r.eng.Run()
	if r.got[1].timeout == 0 {
		t.Fatal("timer-force never fired")
	}
	if r.last[1].timeoutAt < start+100 {
		t.Errorf("first fire at %d, want >= %d", r.last[1].timeoutAt, start+100)
	}
}

func TestTimerPresetWhileDisabled(t *testing.T) {
	// Timer-force counts 60 of 100 user cycles, a block pauses the
	// countdown with 40 left, and endatom disarms it. Disarmed, the counter
	// is preset, so the next timer-force must run the full 100.
	r := newTimerRig(t, 100)
	var user *cpu.Task
	var rearmAt uint64
	user = r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		r.ni[1].BeginAtom(UACTimerForce, false)
		tk.Spend(60)
		r.eng.Schedule(10, user.Unblock)
		tk.Block()
		r.ni[1].EndAtom(UACTimerForce, false)
		rearmAt = tk.Now()
		r.ni[1].BeginAtom(UACTimerForce, false)
		tk.Spend(1000)
	})
	r.eng.Run()
	if r.got[1].timeout == 0 {
		t.Fatal("timer-force never fired")
	}
	if want := rearmAt + 100; r.last[1].timeoutAt != want {
		t.Errorf("first fire at %d, want %d (preset 100 after the re-arm at %d)", r.last[1].timeoutAt, want, rearmAt)
	}
}

func TestEndAtomDisarmsTimer(t *testing.T) {
	r := newTimerRig(t, 100)
	r.cpu.NewTask("user", cpu.PrioUser, cpu.DomainUser, func(tk *cpu.Task) {
		r.ni[1].BeginAtom(UACInterruptDisable, false)
		for !r.ni[1].MessageAvailable() {
			tk.Spend(5)
		}
		tk.Spend(50)
		// Leave the atomic section: the pending message interrupts instead
		// of timing out.
		r.ni[1].EndAtom(UACInterruptDisable, false)
		tk.Spend(10000)
	})
	r.eng.Schedule(0, func() { r.send(0, 1, false, 1) })
	r.eng.Run()
	if r.got[1].timeout != 0 {
		t.Errorf("timeout fired %d times after endatom, want 0", r.got[1].timeout)
	}
	if r.got[1].avail != 1 {
		t.Errorf("message-available = %d after endatom, want 1", r.got[1].avail)
	}
}
