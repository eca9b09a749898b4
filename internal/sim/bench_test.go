package sim

import "testing"

// The benchmarks below pin the engine's hot paths. The headline property is
// the allocs/op column: once the event pool is warm, schedule+fire,
// schedule+cancel and the wake/sleep paths must all run allocation-free —
// the Event structs recycle through the free list and proc wakes ride the
// event's proc field instead of a closure.

// BenchmarkSchedule measures the schedule+fire cycle: one event scheduled
// and run to completion per iteration.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Run()
	}
}

// BenchmarkScheduleZeroDelay measures a zero-delay schedule: one event
// scheduled for the current cycle and fired per iteration, the path of task
// wakes, Yield and Cond.Signal. The event joins the current cycle's wheel
// bucket and never touches the heap.
func BenchmarkScheduleZeroDelay(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	e.Schedule(0, fn) // warm the event pool
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		e.Run()
	}
}

// BenchmarkScheduleCancel measures the schedule+cancel cycle, the pattern of
// re-armed timeouts (the NI atomicity timer, preemptible sleeps).
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.Schedule(100, fn)
		e.Cancel(h)
	}
}

// BenchmarkScheduleWake measures the proc wake path: a single proc sleeping
// one cycle at a time. With the park fast path this resumes inline, without
// any coroutine switch, and the proc-carrying wake event allocates nothing.
// It is the number that keeps the inline dispatch chain: were every park a
// yield to the engine loop, each iteration would pay a yield and a resume.
func BenchmarkScheduleWake(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkBatonRoundTrip measures a cross-proc switch: two procs waking
// each other alternately, the pattern the baton protocol pays coroutine
// switches for (a parking proc resumes the next one directly, and that one
// yields back when the wake it finds is for its parked ancestor).
func BenchmarkBatonRoundTrip(b *testing.B) {
	e := NewEngine(1)
	var pa, pb *Proc
	pa = e.Spawn("ping", func(p *Proc) {
		// Let pong consume its spawn dispatch and park before the first wake.
		p.Yield()
		for i := 0; i < b.N; i++ {
			e.Wake(pb)
			p.Park()
		}
		e.Stop()
	})
	pb = e.Spawn("pong", func(p *Proc) {
		for {
			p.Park()
			if e.Stopped() {
				return
			}
			e.Wake(pa)
		}
	})
	_ = pa
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawn measures a proc's whole life: spawn, one dispatch, run to
// completion. Spawn owns every allocation a proc start costs (the Proc and
// its coroutine); the dispatch itself allocates nothing.
func BenchmarkSpawn(b *testing.B) {
	e := NewEngine(1)
	fn := func(*Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", fn)
		e.Run()
	}
}

// BenchmarkHeapChurn measures cancel+reschedule against a deep queue: the
// 4-ary heap's middle-removal and insert with ~1k events pending, all far
// beyond the wheel.
func BenchmarkHeapChurn(b *testing.B) {
	e := NewEngine(7)
	fn := func() {}
	const pending = 1024
	hs := make([]Handle, pending)
	for i := range hs {
		hs[i] = e.Schedule(1_000_000+e.Rand().Uint64n(1_000_000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % pending
		e.Cancel(hs[j])
		hs[j] = e.Schedule(1_000_000+e.Rand().Uint64n(1_000_000), fn)
	}
}

// BenchmarkLockstepSpend measures barrier's shape: 8 procs, each looping
// "schedule a delayed callback that wakes me, then park", so every round is
// 8 events in one wheel bucket that each issue a zero-delay wake. One op is
// one round: every proc spends once.
func BenchmarkLockstepSpend(b *testing.B) {
	const procs, spend = 8, 10
	e := NewEngine(1)
	wake := func(a any) { e.Wake(a.(*Proc)) }
	for i := 0; i < procs; i++ {
		e.Spawn("spender", func(p *Proc) {
			for j := 0; j <= b.N; j++ {
				e.ScheduleArg(spend, wake, p)
				p.Park()
			}
		})
	}
	// The first round fills the event pool; time the rest.
	e.RunUntil(spend)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkDeepQueue measures bigmesh's shape: 4,096 pending events with
// delays drawn from 50–223 cycles, where each op fires one event and
// schedules one in its place. Every event waits in a wheel bucket, so a
// fire is a bucket-head advance rather than a sift through a heap of 4k.
func BenchmarkDeepQueue(b *testing.B) {
	const pending = 4096
	e := NewEngine(7)
	fired := 0
	var fn func()
	fn = func() {
		if fired++; fired == b.N {
			e.Stop()
		}
		e.Schedule(50+e.Rand().Uint64n(174), fn)
	}
	for i := 0; i < pending; i++ {
		e.Schedule(50+e.Rand().Uint64n(174), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// pollRearm takes a lockstep poller's wakes in place for turns rounds:
// what the woken proc would do, schedule its next round and park again.
type pollRearm struct {
	p     *Proc
	wake  func(any)
	turns int
}

func (h *pollRearm) Rearm() bool {
	if h.turns == 0 {
		return false
	}
	h.turns--
	h.p.eng.ScheduleArg(lockstepSpend, h.wake, h.p)
	return true
}

const lockstepSpend = 10

// BenchmarkLockstepPoll is BenchmarkLockstepSpend with every proc spinning
// under a Rearmer, the shape of barrier's polling wait under
// cpu.Task.SpendSteps: the same events in the same order, but each wake is
// re-armed by the engine instead of resuming the proc. One op is one
// round: every proc polls once.
func BenchmarkLockstepPoll(b *testing.B) {
	const procs = 8
	e := NewEngine(1)
	wake := func(a any) { e.Wake(a.(*Proc)) }
	for i := 0; i < procs; i++ {
		h := &pollRearm{wake: wake, turns: b.N}
		h.p = e.Spawn("poller", func(p *Proc) {
			p.SetRearm(h)
			e.ScheduleArg(lockstepSpend, wake, p)
			p.Park()
			p.SetRearm(nil)
		})
	}
	// The first round fills the event pool; time the rest.
	e.RunUntil(lockstepSpend)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
