package harness

import (
	"runtime"
	"testing"

	"fugu/internal/apps"
	"fugu/internal/glaze"
)

// maxAllocsPerExtraMsg bounds the host allocations each additional
// delivered message may cost once a machine is built. Packets, buffered
// copies, bulk payloads, buffer pages and context-switch state are all
// recycled, so steady-state messaging allocates nothing; what remains is
// free-list and table growth that tracks peak traffic, not message count.
const maxAllocsPerExtraMsg = 0.01

// countAllocs runs one workload and returns the heap allocations it made
// and the messages it delivered.
func countAllocs(run func() uint64) (mallocs, msgs uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	msgs = run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, msgs
}

// TestSteadyStateMessagingAllocationFree runs each workload at two sizes
// and checks that the extra messages of the larger run cost (almost) no
// extra allocations. Taking the difference cancels machine construction,
// so the test counts only what the message path allocates; it measures no
// time. crlstress covers the fast path, buffered inserts and bulk transfers
// with their reassembly; synth under a skewed 10,000-cycle gang schedule
// sends about half its messages through the buffered case and context
// switches constantly.
func TestSteadyStateMessagingAllocationFree(t *testing.T) {
	workloads := []struct {
		name         string
		small, large int
		run          func(size int) uint64
	}{
		{"crlstress", 200, 800, func(ops int) uint64 {
			row, snap, _ := RunCRLStressOnce(ops, 1)
			if !row.Completed || row.Total != row.Expected {
				t.Fatalf("crlstress ops=%d: completed %v, total %d of %d", ops, row.Completed, row.Total, row.Expected)
			}
			return snap.Counters["glaze.deliver.fast"] + snap.Counters["glaze.deliver.buffered"]
		}},
		{"synth-buffered", 5, 20, func(groups int) uint64 {
			inst := apps.NewSynth(100, groups, 100)
			m := glaze.NewMachine(glaze.NewConfig(glaze.WithMachineSeed(1), glaze.WithOutputWords(64)))
			job := m.NewJob(inst.Name())
			null := m.NewJob("null")
			inst.Start(m, job)
			apps.Null{}.Start(m, null)
			m.NewGang(10_000, 0.3, job, null).Start()
			m.RunUntilDone(0, job)
			if err := inst.Check(); err != nil || !job.Done() {
				t.Fatalf("synth groups=%d: done %v, check %v", groups, job.Done(), err)
			}
			d := job.Delivery()
			if d.Buffered == 0 {
				t.Fatalf("synth groups=%d: no buffered deliveries, the schedule no longer exercises the second case", groups)
			}
			return d.Total()
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.run(w.small) // warm one-time package state
			a1, m1 := countAllocs(func() uint64 { return w.run(w.small) })
			a2, m2 := countAllocs(func() uint64 { return w.run(w.large) })
			if m2 <= m1 {
				t.Fatalf("larger run delivered %d messages, smaller %d", m2, m1)
			}
			per := (float64(a2) - float64(a1)) / float64(m2-m1)
			t.Logf("%d allocs / %d msgs -> %d allocs / %d msgs: %.5f per extra message", a1, m1, a2, m2, per)
			if per > maxAllocsPerExtraMsg {
				t.Errorf("%.4f allocations per extra delivered message, want at most %v", per, maxAllocsPerExtraMsg)
			}
		})
	}
}
