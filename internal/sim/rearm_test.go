package sim

import (
	"fmt"
	"slices"
	"testing"
)

// sleepRearm re-arms a proc whose loop is `for h.left > 0 { h.left--;
// p.Sleep(n) }`: at a wake it does what the resumed proc would do, as long
// as sleeps are left, except that it declines every seventh wake, so the
// proc resumes mid-loop too.
type sleepRearm struct {
	p        *Proc
	n        uint64
	left     int
	asked    int
	declined int
}

func (h *sleepRearm) Rearm() bool {
	if h.asked++; h.left == 0 || h.asked%7 == 0 {
		h.declined++
		return false
	}
	h.left--
	h.p.eng.WakeAfter(h.p, h.n)
	return true
}

type rearmRun struct {
	log      []string // "site@time" per dispatched event
	ends     []uint64 // when each proc finished
	yields   int      // coroutine yields, the unwinding steps of the chain
	taken    int      // wakes the Rearmers took
	declined int      // wakes the Rearmers declined, resuming their procs
}

// runSleepers runs one proc per period, each sleeping its period rounds
// times and then finishing. With hooked set, the even-numbered procs carry
// a sleepRearm; otherwise every sleep is the proc's own. Proc 0 is
// dispatched first, so it is the ancestor of every chain, and proc 1, with
// no Rearmer, keeps the chain below it. Every proc wakes under its own
// site, and every event is logged.
func runSleepers(periods []uint64, rounds int, hooked bool) rearmRun {
	var r rearmRun
	e := NewEngine(1)
	e.UseProfiler(NewProfiler(ProfilerConfig{OnEvent: func(s Site, now uint64) {
		r.log = append(r.log, fmt.Sprintf("%v@%d", s, now))
	}}))
	r.ends = make([]uint64, len(periods))
	hooks := make([]*sleepRearm, len(periods))
	for i, n := range periods {
		h := &sleepRearm{n: n, left: rounds}
		hooks[i] = h
		h.p = e.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			if hooked && i%2 == 0 {
				p.SetRearm(h)
			}
			for h.left > 0 {
				h.left--
				p.Sleep(n)
			}
			p.SetRearm(nil)
			r.ends[i] = p.Now()
		})
		h.p.SetSite(NewSite(fmt.Sprintf("test.rearm.sleeper%d", i)))
		yield := h.p.yield
		h.p.yield = func(v struct{}) bool {
			r.yields++
			return yield(v)
		}
	}
	e.Run()
	if e.LiveProcs() != 0 {
		panic("sleepers did not finish")
	}
	for _, h := range hooks {
		r.taken += h.asked - h.declined
		r.declined += h.declined
	}
	return r
}

// TestRearmMatchesParkLoop checks the engine's handling of a Rearmer: a
// wake it takes is popped, counted and re-armed at the point where the
// resumed proc would have re-armed, so the event log matches a plain Sleep
// loop event for event; the wake it declines resumes the proc as usual.
// Sleepers with different periods make a proc's wakes arrive while it
// acts as the engine loop, while another proc dispatches it, and while it
// is a chained ancestor of the acting proc; the test also checks that the
// ancestor's wakes are taken in place, without unwinding the chain.
func TestRearmMatchesParkLoop(t *testing.T) {
	const rounds = 40
	for _, tc := range []struct {
		name    string
		periods []uint64
	}{
		{"one proc", []uint64{3}},
		{"ancestor sleeps longer", []uint64{5, 3}},
		{"ancestor sleeps shorter", []uint64{3, 5}},
		{"same-cycle ties", []uint64{4, 4, 2}},
		{"three procs", []uint64{7, 5, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := runSleepers(tc.periods, rounds, false)
			hooked := runSleepers(tc.periods, rounds, true)
			if !slices.Equal(plain.log, hooked.log) {
				for i := range min(len(plain.log), len(hooked.log)) {
					if plain.log[i] != hooked.log[i] {
						t.Fatalf("event %d: plain %s, re-armed %s", i, plain.log[i], hooked.log[i])
					}
				}
				t.Fatalf("plain loop dispatched %d events, re-armed %d", len(plain.log), len(hooked.log))
			}
			if !slices.Equal(plain.ends, hooked.ends) {
				t.Fatalf("procs finished at %v, re-armed at %v", plain.ends, hooked.ends)
			}
			if hooked.taken < rounds/2 || hooked.declined < 5 {
				t.Fatalf("Rearmers took %d wakes and declined %d, want both paths exercised", hooked.taken, hooked.declined)
			}
			// A plain chain unwinds at every wake of an ancestor; taken in
			// place, such a wake unwinds nothing. Every seventh wake still
			// resumes, so some unwinding remains.
			if len(tc.periods) > 1 && hooked.yields*3 > plain.yields {
				t.Errorf("plain loop yielded %d times, re-armed run %d: want under a third", plain.yields, hooked.yields)
			}
		})
	}
}
