package nic

import (
	"fugu/internal/cpu"
	"fugu/internal/sim"
)

// atomicityTimer implements the revocable-interrupt-disable countdown of
// Section 4.1: a decrementing counter preset to atomicity-timeout. It is
// enabled while the user holds atomicity with a message pending (or
// unconditionally under timer-force), it decrements only during user cycles,
// dispose presets it, and expiry raises the atomicity-timeout kernel
// interrupt so the OS can revoke the user's interrupt-disable privilege.
type atomicityTimer struct {
	eng *sim.Engine
	ni  *NI

	presetVal uint64
	remaining uint64
	running   bool // currently counting down
	startAt   uint64
	ev        sim.Handle
	fireFn    func() // t.fire bound once, so re-arming never allocates

	userRunning bool
	fired       uint64 // lifetime expiry count
}

func (t *atomicityTimer) init(eng *sim.Engine, preset uint64, ni *NI) {
	t.eng = eng
	t.ni = ni
	t.presetVal = preset
	t.remaining = preset
	t.fireFn = t.fire
}

// armed applies Table 3: timer-force enables unconditionally;
// interrupt-disable enables while a message for the current user is pending.
func (t *atomicityTimer) armed() bool {
	if t.ni.uac&UACTimerForce != 0 {
		return true
	}
	return t.ni.uac&UACInterruptDisable != 0 && t.ni.headMatches()
}

// update reconciles the countdown with the armed state and the running
// domain. Called after every NI state change and CPU run transition.
func (t *atomicityTimer) update() {
	if !t.armed() {
		// "While the timer is disabled, the counter is preset."
		t.halt()
		t.remaining = t.presetVal
		return
	}
	if t.userRunning && !t.running {
		t.startAt = t.eng.Now()
		t.running = true
		t.ev = t.eng.ScheduleSite(siteTimer, t.remaining, t.fireFn)
	} else if !t.userRunning && t.running {
		t.pause()
	}
}

// siteTimer labels atomicity-timer expiries for the engine cost profiler.
var siteTimer = sim.NewSite("nic.timer")

// halt stops counting without charging elapsed time (disarm path).
func (t *atomicityTimer) halt() {
	t.eng.Cancel(t.ev)
	t.ev = sim.Handle{}
	t.running = false
}

// pause suspends the countdown, banking the elapsed user cycles.
func (t *atomicityTimer) pause() {
	elapsed := t.eng.Now() - t.startAt
	if elapsed >= t.remaining {
		elapsed = t.remaining
	}
	t.remaining -= elapsed
	t.halt()
}

// preset reloads the counter (dispose does this, "briefly disabling" it).
func (t *atomicityTimer) preset() {
	t.remaining = t.presetVal
	if t.running {
		t.eng.Cancel(t.ev)
		t.startAt = t.eng.Now()
		t.ev = t.eng.ScheduleSite(siteTimer, t.remaining, t.fireFn)
	}
}

func (t *atomicityTimer) fire() {
	t.ev = sim.Handle{}
	t.running = false
	t.remaining = t.presetVal
	t.fired++
	if t.ni.intr.AtomicityTimeout != nil {
		t.ni.intr.AtomicityTimeout()
	}
	t.update()
}

// RunChange implements cpu.RunListener: the timer counts user cycles only.
func (t *atomicityTimer) RunChange(_ uint64, _, next *cpu.Task) {
	t.userRunning = next != nil && next.Domain() == cpu.DomainUser
	t.update()
}
