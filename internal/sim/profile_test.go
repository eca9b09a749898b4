package sim

import (
	"strings"
	"testing"
)

// Test sites are registered once at init, like real schedule sites.
var (
	testSiteA = NewSite("test.a")
	testSiteB = NewSite("test.b.deep")
)

// TestProfilerCycleConservation pins the simulated-cycle attribution rule:
// for a profiler attached at time 0 and never detached, the per-site cycles
// sum to exactly the engine's final time, whatever mix of labelled,
// unlabelled and proc-wake events fired.
func TestProfilerCycleConservation(t *testing.T) {
	e := NewEngine(1)
	p := NewProfiler(ProfilerConfig{})
	e.UseProfiler(p)

	e.ScheduleSite(testSiteA, 10, func() {})
	e.ScheduleSite(testSiteB, 25, func() {})
	e.Schedule(40, func() {}) // unlabelled: SiteMisc
	e.Spawn("sleeper", func(pr *Proc) {
		for i := 0; i < 5; i++ {
			pr.Sleep(7)
		}
	})
	end := e.Run()

	pr := p.Snapshot()
	if pr.Cycles != end {
		t.Errorf("per-site cycles sum to %d, engine finished at %d", pr.Cycles, end)
	}
	var sum uint64
	for _, s := range pr.Sites {
		sum += s.Cycles
	}
	if sum != pr.Cycles {
		t.Errorf("Profile.Cycles = %d but site rows sum to %d", pr.Cycles, sum)
	}
	// 3 scheduled events + the spawn dispatch + 5 sleep wakes.
	if pr.Events != 9 {
		t.Errorf("profile saw %d events, want 9", pr.Events)
	}
}

// TestProfilerSiteAttribution checks that events land on their labels: the
// two labelled schedules count under their sites, the plain one under
// SiteMisc, and the time advance ending at each event is charged to it.
func TestProfilerSiteAttribution(t *testing.T) {
	e := NewEngine(1)
	p := NewProfiler(ProfilerConfig{})
	e.UseProfiler(p)

	e.ScheduleSite(testSiteA, 10, func() {})
	e.ScheduleArgSite(testSiteB, 30, func(arg any) {}, nil)
	e.Schedule(35, func() {})
	e.Run()

	got := map[string]SiteProfile{}
	for _, s := range p.Snapshot().Sites {
		got[s.Name] = s
	}
	for name, want := range map[string]struct{ events, cycles uint64 }{
		"test.a":      {1, 10}, // 0 -> 10
		"test.b.deep": {1, 20}, // 10 -> 30
		"sim.misc":    {1, 5},  // 30 -> 35
	} {
		s, ok := got[name]
		if !ok {
			t.Fatalf("site %s missing from snapshot (got %v)", name, got)
		}
		if s.Events != want.events || s.Cycles != want.cycles {
			t.Errorf("site %s: events=%d cycles=%d, want events=%d cycles=%d",
				name, s.Events, s.Cycles, want.events, want.cycles)
		}
	}
}

// TestProfilerProcWakes checks wake attribution: a proc's wake events are
// charged to the proc's site, including the initial spawn dispatch that
// SetSite stamps retroactively.
func TestProfilerProcWakes(t *testing.T) {
	e := NewEngine(1)
	p := NewProfiler(ProfilerConfig{})
	e.UseProfiler(p)

	pr := e.Spawn("worker", func(pr *Proc) {
		pr.Sleep(3)
		pr.Sleep(4)
	})
	pr.SetSite(testSiteA)
	e.Run()

	for _, s := range p.Snapshot().Sites {
		if s.Name == "test.a" {
			// Spawn dispatch at 0 plus two sleep wakes.
			if s.Events != 3 || s.Cycles != 7 {
				t.Errorf("proc site: events=%d cycles=%d, want 3 events, 7 cycles", s.Events, s.Cycles)
			}
			return
		}
	}
	t.Fatal("proc wake site never appeared in the profile")
}

// TestProfilerReattach: a profiler reused across engines accumulates, and
// re-attachment re-baselines so each engine is charged only for its own run.
func TestProfilerReattach(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	var total uint64
	for i := 0; i < 3; i++ {
		e := NewEngine(uint64(i + 1))
		e.UseProfiler(p)
		e.ScheduleSite(testSiteA, uint64(10*(i+1)), func() {})
		total += e.Run()
	}
	if got := p.Snapshot().Cycles; got != total {
		t.Errorf("profiler over 3 engines accumulated %d cycles, want %d", got, total)
	}
}

// TestProfilerFolded pins the folded-stacks rendering: dotted site names
// split into stack segments under the "sim" root, values are the
// deterministic simulated-cycle attribution, lines sorted.
func TestProfilerFolded(t *testing.T) {
	e := NewEngine(1)
	p := NewProfiler(ProfilerConfig{})
	e.UseProfiler(p)
	e.ScheduleSite(testSiteB, 8, func() {})
	e.ScheduleSite(testSiteA, 3, func() {})
	e.Run()

	var b strings.Builder
	p.Snapshot().WriteFolded(&b)
	want := "sim;test;a 3\nsim;test;b;deep 5\n"
	if b.String() != want {
		t.Errorf("folded output:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestNilProfilerAllocFree pins the disabled-path discipline: an engine with
// no profiler attached runs the schedule+fire cycle allocation-free, same
// as before the profiler existed.
func TestNilProfilerAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	e.Schedule(1, fn) // warm the event pool
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("schedule+fire with nil profiler allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkScheduleProfiled is BenchmarkSchedule with a cycles-only profiler
// attached — the per-event overhead of the profiler a `fugusim inspect -with
// profile` replay attaches.
func BenchmarkScheduleProfiled(b *testing.B) {
	e := NewEngine(1)
	e.UseProfiler(NewProfiler(ProfilerConfig{}))
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleSite(testSiteA, 1, fn)
		e.Run()
	}
}
