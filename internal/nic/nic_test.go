package nic

import (
	"testing"
	"testing/quick"

	"fugu/internal/mesh"
	"fugu/internal/metrics"
	"fugu/internal/niq"
	"fugu/internal/sim"
)

// rig builds two nodes with NIs on a 2x1 mesh and interrupt counters.
type rig struct {
	eng  *sim.Engine
	net  *mesh.Net
	ni   [2]*NI
	got  [2]struct{ avail, mismatch, timeout int }
	last [2]struct{ availAt, mismatchAt, timeoutAt uint64 }
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(1)}
	r.net = mesh.New(r.eng, 2, 1, mesh.DefaultLatency())
	for i := 0; i < 2; i++ {
		r.ni[i] = New(r.eng, r.net, i, cfg)
		r.ni[i].SetInterrupts(Interrupts{
			MessageAvailable:  func() { r.got[i].avail++; r.last[i].availAt = r.eng.Now() },
			MismatchAvailable: func() { r.got[i].mismatch++; r.last[i].mismatchAt = r.eng.Now() },
			AtomicityTimeout:  func() { r.got[i].timeout++; r.last[i].timeoutAt = r.eng.Now() },
		})
	}
	return r
}

// send describes and launches a len-2+extra message from node src to dst.
func (r *rig) send(src, dst int, kernel bool, payload ...uint64) Trap {
	h := MakeHeader(dst)
	if kernel {
		h = MakeKernelHeader(dst)
	}
	r.ni[src].Describe(append([]uint64{h, xhandler}, payload...)...)
	return r.ni[src].Launch(kernel)
}

const xhandler = 0xbeef

func TestHeaderRoundTrip(t *testing.T) {
	prop := func(dst uint8, gid uint16, kernel bool) bool {
		d := int(dst) % 64
		var h uint64
		if kernel {
			h = MakeKernelHeader(d)
		} else {
			h = MakeHeader(d)
		}
		h = stampGID(h, GID(gid))
		return HeaderDst(h) == d && HeaderGID(h) == GID(gid) && HeaderIsKernel(h) == kernel
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSendStampsGID(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(7)
	r.ni[1].SetGID(7)
	r.ni[0].Describe(MakeHeader(1), xhandler, 42)
	if trap := r.ni[0].Launch(false); trap != TrapNone {
		t.Fatalf("launch trap %v", trap)
	}
	r.eng.Run()
	if r.ni[1].QueueLen() != 1 {
		t.Fatal("message not delivered")
	}
	h := r.ni[1].ReadWord(0)
	if HeaderGID(h) != 7 {
		t.Errorf("stamped GID = %d, want 7", HeaderGID(h))
	}
	if r.ni[1].ReadWord(1) != xhandler || r.ni[1].ReadWord(2) != 42 {
		t.Error("payload corrupted")
	}
	if got := r.got[1].avail; got != 1 {
		t.Errorf("message-available raised %d times, want 1", got)
	}
}

func TestUserLaunchKernelHeaderTraps(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].Describe(MakeKernelHeader(1), xhandler)
	if trap := r.ni[0].Launch(false); trap != TrapProtectionViolation {
		t.Errorf("trap = %v, want protection-violation", trap)
	}
	// The descriptor is untouched; the kernel could still launch it.
	if r.ni[0].DescriptorLength() != 2 {
		t.Errorf("descriptor length = %d, want 2", r.ni[0].DescriptorLength())
	}
	if trap := r.ni[0].Launch(true); trap != TrapNone {
		t.Errorf("kernel launch trap = %v", trap)
	}
}

func TestEmptyLaunchIsNoop(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if trap := r.ni[0].Launch(false); trap != TrapNone {
		t.Errorf("empty launch trap = %v", trap)
	}
	r.eng.Run()
	if r.ni[1].QueueLen() != 0 {
		t.Error("phantom message sent")
	}
}

func TestDescriptorOverflowPanics(t *testing.T) {
	r := newRig(t, Config{OutputWords: 4, TimerPreset: 100, DrainPerWord: 1, Queue: niq.Spec{Slots: 4}})
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	r.ni[0].Describe(1, 2, 3, 4, 5)
}

func TestSpaceAvailableDrain(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if got := r.ni[0].SpaceAvailable(); got != 16 {
		t.Errorf("initial space = %d, want 16", got)
	}
	r.send(0, 1, false, 1, 2) // 4 words -> 4 cycles drain
	if got := r.ni[0].SpaceAvailable(); got != 0 {
		t.Errorf("space during drain = %d, want 0", got)
	}
	woken := false
	r.eng.Spawn("w", func(p *sim.Proc) {
		r.ni[0].SpaceCond().Wait(p)
		woken = true
		if r.ni[0].SpaceAvailable() != 16 {
			t.Errorf("space after drain = %d", r.ni[0].SpaceAvailable())
		}
		if p.Now() != 4 {
			t.Errorf("drain completed at %d, want 4", p.Now())
		}
	})
	r.eng.Run()
	if !woken {
		t.Error("space waiter never woken")
	}
}

func TestDisposeExposesNext(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(3)
	r.send(0, 1, false, 100)
	r.send(0, 1, false, 200)
	r.eng.Run()
	if r.ni[1].QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", r.ni[1].QueueLen())
	}
	if r.got[1].avail != 1 {
		t.Fatalf("avail raised %d times before dispose, want 1", r.got[1].avail)
	}
	if r.ni[1].ReadWord(2) != 100 {
		t.Error("head is not the first message")
	}
	if trap := r.ni[1].Dispose(); trap != TrapNone {
		t.Fatalf("dispose trap %v", trap)
	}
	if r.ni[1].ReadWord(2) != 200 {
		t.Error("second message not exposed after dispose")
	}
	if r.got[1].avail != 2 {
		t.Errorf("avail raised %d times after dispose, want 2", r.got[1].avail)
	}
}

func TestDisposeTraps(t *testing.T) {
	r := newRig(t, DefaultConfig())
	if trap := r.ni[1].Dispose(); trap != TrapBadDispose {
		t.Errorf("empty dispose trap = %v, want bad-dispose", trap)
	}
	r.ni[1].SetDivert(true)
	if trap := r.ni[1].Dispose(); trap != TrapDisposeExtend {
		t.Errorf("divert dispose trap = %v, want dispose-extend", trap)
	}
}

func TestMismatchInterrupt(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(9) // receiver runs a different gang
	r.send(0, 1, false, 1)
	r.eng.Run()
	if r.got[1].mismatch != 1 {
		t.Errorf("mismatch raised %d times, want 1", r.got[1].mismatch)
	}
	if r.got[1].avail != 0 {
		t.Error("message-available raised for mismatched GID")
	}
	if r.ni[1].MessageAvailable() {
		t.Error("message-available flag set for mismatched GID")
	}
	// The kernel resolves it: switching GID to match re-evaluates the head.
	r.ni[1].SetGID(3)
	if !r.ni[1].MessageAvailable() {
		t.Error("flag not set after GID switch")
	}
}

func TestKernelMessageInterruptsKernel(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[1].SetGID(3)
	r.send(0, 1, true, 55)
	r.eng.Run()
	if r.got[1].mismatch != 1 || r.got[1].avail != 0 {
		t.Errorf("kernel message: mismatch=%d avail=%d, want 1,0", r.got[1].mismatch, r.got[1].avail)
	}
}

func TestDivertSendsAllToKernel(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(3)
	r.ni[1].SetDivert(true)
	r.send(0, 1, false, 1)
	r.eng.Run()
	if r.got[1].mismatch != 1 || r.got[1].avail != 0 {
		t.Errorf("divert: mismatch=%d avail=%d, want 1,0", r.got[1].mismatch, r.got[1].avail)
	}
	if r.ni[1].MessageAvailable() {
		t.Error("message-available flag set under divert")
	}
	// KDispose drains it for the software buffer.
	r.ni[1].KDispose()
	if r.ni[1].QueueLen() != 0 {
		t.Error("KDispose did not remove head")
	}
}

func TestInterruptDisableDefersAvail(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(3)
	if trap := r.ni[1].BeginAtom(UACInterruptDisable, false); trap != TrapNone {
		t.Fatalf("beginatom trap %v", trap)
	}
	r.send(0, 1, false, 1)
	r.eng.Run()
	if r.got[1].avail != 0 {
		t.Error("interrupt raised despite interrupt-disable")
	}
	if !r.ni[1].MessageAvailable() {
		t.Error("flag not visible for polling")
	}
	// endatom re-enables: the pending head must now interrupt.
	if trap := r.ni[1].EndAtom(UACInterruptDisable, false); trap != TrapNone {
		t.Fatalf("endatom trap %v", trap)
	}
	if r.got[1].avail != 1 {
		t.Errorf("avail after endatom = %d, want 1", r.got[1].avail)
	}
}

func TestEndAtomTraps(t *testing.T) {
	r := newRig(t, DefaultConfig())
	ni := r.ni[0]
	ni.BeginAtom(UACInterruptDisable, false)
	ni.SetUACKernel(UACDisposePending, true)
	if trap := ni.EndAtom(UACInterruptDisable, false); trap != TrapDisposeFailure {
		t.Errorf("trap = %v, want dispose-failure", trap)
	}
	ni.SetUACKernel(UACDisposePending, false)
	ni.SetUACKernel(UACAtomicityExtend, true)
	if trap := ni.EndAtom(UACInterruptDisable, false); trap != TrapAtomicityExtend {
		t.Errorf("trap = %v, want atomicity-extend", trap)
	}
	ni.SetUACKernel(UACAtomicityExtend, false)
	if trap := ni.EndAtom(UACInterruptDisable, false); trap != TrapNone {
		t.Errorf("trap = %v, want none", trap)
	}
	if ni.UAC() != 0 {
		t.Errorf("UAC = %x, want 0", ni.UAC())
	}
}

func TestUserCannotTouchKernelBits(t *testing.T) {
	r := newRig(t, DefaultConfig())
	ni := r.ni[0]
	if trap := ni.BeginAtom(UACDisposePending, false); trap != TrapProtectionViolation {
		t.Errorf("beginatom kernel bit trap = %v", trap)
	}
	if trap := ni.EndAtom(UACAtomicityExtend, false); trap != TrapProtectionViolation {
		t.Errorf("endatom kernel bit trap = %v", trap)
	}
	if trap := ni.BeginAtom(UACDisposePending, true); trap != TrapNone {
		t.Errorf("kernel beginatom trap = %v", trap)
	}
}

func TestDisposeClearsDisposePending(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(3)
	r.send(0, 1, false, 1)
	r.eng.Run()
	ni := r.ni[1]
	ni.SetUACKernel(UACDisposePending, true)
	ni.BeginAtom(UACInterruptDisable, false)
	if trap := ni.Dispose(); trap != TrapNone {
		t.Fatalf("dispose trap %v", trap)
	}
	if ni.UAC()&UACDisposePending != 0 {
		t.Error("dispose did not clear dispose-pending")
	}
	if trap := ni.EndAtom(UACInterruptDisable, false); trap != TrapNone {
		t.Errorf("endatom after dispose trap = %v", trap)
	}
}

func TestInputQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Queue.Slots = 2
	r := newRig(t, cfg)
	reg := metrics.NewRegistry()
	r.ni[1].UseMetrics(reg)
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(9) // mismatches pile up; kernel not draining yet
	r.eng.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.send(0, 1, false, uint64(i))
			p.Sleep(20)
		}
	})
	r.eng.Run()
	if r.ni[1].QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", r.ni[1].QueueLen())
	}
	if r.net.BlockedAt(1, mesh.Main) != 3 {
		t.Fatalf("network blocked = %d, want 3", r.net.BlockedAt(1, mesh.Main))
	}
	// Kernel drains: each KDispose admits the next blocked packet, in order.
	for i := 0; i < 5; i++ {
		if got := r.ni[1].ReadWord(2); got != uint64(i) {
			t.Fatalf("drain order: head payload %d, want %d", got, i)
		}
		r.ni[1].KDispose()
	}
	if r.ni[1].QueueLen() != 0 || r.net.BlockedAt(1, mesh.Main) != 0 {
		t.Error("backlog not fully drained")
	}
	// Five messages entered the queue and the kernel disposed all five. The
	// three that found it full were each refused once: a blocked packet is
	// re-offered only when KDispose frees a slot, and then it fits.
	for name, want := range map[string]uint64{"nic.arrived": 5, "nic.kdisposed": 5, "nic.refused": 3} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestMismatchRaisedOncePerHead(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(9)
	r.send(0, 1, false, 1)
	r.send(0, 1, false, 2)
	r.eng.Run()
	if r.got[1].mismatch != 1 {
		t.Fatalf("mismatch = %d before drain, want 1 (second is behind head)", r.got[1].mismatch)
	}
	r.ni[1].KDispose()
	if r.got[1].mismatch != 2 {
		t.Errorf("mismatch = %d after KDispose, want 2", r.got[1].mismatch)
	}
}

func TestClearDescriptorContextSwitch(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ni[0].Describe(MakeHeader(1), xhandler, 5)
	shadow := make([]uint64, 0, 8)
	saved := r.ni[0].ClearDescriptor(shadow)
	if len(saved) != 3 || r.ni[0].DescriptorLength() != 0 {
		t.Fatal("ClearDescriptor did not unload")
	}
	if &saved[0] != &shadow[:1][0] {
		t.Error("ClearDescriptor did not reuse the caller's buffer")
	}
	// Reload and launch later, as the kernel would on switch-back.
	r.ni[0].Describe(saved...)
	r.ni[0].SetGID(3)
	r.ni[1].SetGID(3)
	if trap := r.ni[0].Launch(false); trap != TrapNone {
		t.Fatalf("launch trap %v", trap)
	}
	r.eng.Run()
	if r.ni[1].QueueLen() != 1 || r.ni[1].ReadWord(2) != 5 {
		t.Error("reloaded descriptor not delivered intact")
	}
}
