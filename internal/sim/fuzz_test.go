package sim

import "testing"

// FuzzEngineOrder decodes a byte script into engine operations and checks the
// queue's order contract end to end. Each byte b is one op: b%8 picks the
// kind and a = b>>3 is its argument.
//
//   - 0–2: schedule a zero-delay callback, so same-cycle ties are common; an
//     odd a makes the callback schedule a zero-delay child when it fires;
//   - 3: schedule a callback with delay a%8, or with farDelays[a%8] (around
//     and beyond the wheel's width, so events overflow to the heap) when
//     a&16 is set, with a child when a&8 is set;
//   - 4, 5: cancel the a-th still-pending event, wheel or heap;
//   - 6: RunUntil(Now() + a%16 - 4), saturating at 0, so some bounds fall
//     below Now; when a&16 is set, RunUntil(Now() + (a%16)*200) instead, a
//     jump of up to about twelve wheel widths;
//   - 7: schedule, with delay a%4, a callback that cancels the a-th pending
//     event.
//
// Every scheduled event is numbered in issue order, which is the engine's
// sequence order. The fire order must be strictly increasing in (at, issue
// number) — the reference sort — Now must never decrease, a cancelled event
// must never fire, and after a final Run every other event has fired once.
func FuzzEngineOrder(f *testing.F) {
	farDelays := [8]uint64{wheelSize - 1, wheelSize, wheelSize + 1, 300, 2*wheelSize - 1, 2 * wheelSize, 700, 1000}
	// The zero-delay burst, cancel, wheel-wrap and overflow-merge seeds live
	// in testdata/fuzz.
	f.Add([]byte{0x2b, 0x5b, 0x4e, 0x09, 0x07, 0x0f, 0x7e})       // nested schedules and in-callback cancels
	f.Add([]byte{0x2b, 0x4e, 0x06, 0x00, 0x0e, 0x01, 0x7e, 0x06}) // RunUntil steps, some below Now
	f.Fuzz(func(t *testing.T, script []byte) {
		e := NewEngine(1)
		type rec struct {
			h         Handle
			at        uint64
			cancelled bool
			fired     int
		}
		var recs []*rec
		var order []int // issue numbers in fire order
		last := uint64(0)
		checkClock := func(where string) {
			if e.Now() < last {
				t.Fatalf("%s: Now() went back from %d to %d", where, last, e.Now())
			}
			last = e.Now()
		}
		var schedule func(delay uint64, child bool, body func())
		schedule = func(delay uint64, child bool, body func()) {
			id := len(recs)
			r := &rec{at: e.Now() + delay}
			recs = append(recs, r)
			r.h = e.Schedule(delay, func() {
				checkClock("callback")
				if e.Now() != r.at {
					t.Fatalf("event %d due at %d fired at %d", id, r.at, e.Now())
				}
				r.fired++
				order = append(order, id)
				if child {
					schedule(0, false, nil)
				}
				if body != nil {
					body()
				}
			})
		}
		// cancelPending cancels the k-th (mod count) event still pending.
		cancelPending := func(k int) {
			var pending []*rec
			for _, r := range recs {
				if r.h.Pending() {
					pending = append(pending, r)
				}
			}
			if len(pending) == 0 {
				return
			}
			r := pending[k%len(pending)]
			e.Cancel(r.h)
			r.cancelled = true
			if r.h.Pending() {
				t.Fatal("cancelled event still pending")
			}
		}
		for _, b := range script {
			arg := int(b >> 3)
			switch b % 8 {
			case 0, 1, 2:
				schedule(0, arg&1 != 0, nil)
			case 3:
				delay := uint64(arg % 8)
				if arg&16 != 0 {
					delay = farDelays[arg%8]
				}
				schedule(delay, arg&8 != 0, nil)
			case 4, 5:
				cancelPending(arg)
			case 6:
				bound := e.Now() + uint64(arg%16)
				switch {
				case arg&16 != 0:
					bound = e.Now() + uint64(arg%16)*200
				case bound >= 4:
					bound -= 4
				default:
					bound = 0
				}
				before := e.Now()
				e.RunUntil(bound)
				checkClock("RunUntil")
				if e.Now() > bound && e.Now() != before {
					t.Fatalf("RunUntil(%d) moved the clock from %d to %d", bound, before, e.Now())
				}
				for id, r := range recs {
					if r.h.Pending() && r.at <= bound {
						t.Fatalf("RunUntil(%d) left event %d due at %d queued", bound, id, r.at)
					}
				}
			case 7:
				schedule(uint64(arg%4), false, func() { cancelPending(arg) })
			}
		}
		e.Run()
		checkClock("Run")
		if e.Pending() != 0 {
			t.Fatalf("Run returned with %d events queued", e.Pending())
		}
		for i := 1; i < len(order); i++ {
			a, b := recs[order[i-1]], recs[order[i]]
			if a.at > b.at || (a.at == b.at && order[i-1] > order[i]) {
				t.Fatalf("event %d (at %d) fired before event %d (at %d)", order[i-1], a.at, order[i], b.at)
			}
		}
		for id, r := range recs {
			switch {
			case r.cancelled && r.fired != 0:
				t.Fatalf("cancelled event %d fired", id)
			case !r.cancelled && r.fired != 1:
				t.Fatalf("event %d fired %d times, want 1", id, r.fired)
			}
		}
	})
}
