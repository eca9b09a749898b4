package glaze

import (
	"strings"
	"testing"

	"fugu/internal/cpu"
)

// TestWatchdogFiresOnStall: a main blocked on a wait queue nobody wakes
// makes no delivery progress; the watchdog must stop the run with a report
// instead of letting RunUntilDone burn its whole cycle budget.
func TestWatchdogFiresOnStall(t *testing.T) {
	m, job := runStall()
	if job.Done() {
		t.Fatal("stalled job reported done")
	}
	rep := m.Spans.Report()
	if rep == nil {
		t.Fatal("watchdog did not fire on a stalled run")
	}
	if !strings.Contains(rep.Reason, "no delivery progress") {
		t.Errorf("reason = %q", rep.Reason)
	}
	if s := rep.String(); !strings.Contains(s, "blocked") {
		t.Errorf("report does not show the blocked task:\n%s", s)
	}
	if now := m.Eng.Now(); now >= 100_000_000 {
		t.Errorf("engine ran to the full budget (t=%d); watchdog should have stopped it", now)
	}
}

// runStall runs a job whose node-0 main waits on a queue named "never"
// that nobody wakes, under a watchdog.
func runStall() (*Machine, *Job) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.Watchdog = WatchdogConfig{Interval: 10_000, Grace: 2}
	m := NewMachine(cfg)
	job := m.NewJob("stall")
	q := cpu.NewWaitQ("never")
	job.Process(0).StartMain(func(tk *cpu.Task) {
		q.Wait(tk) // woken by nobody
	})
	job.Process(1).StartMain(func(tk *cpu.Task) {
		tk.Spend(100)
	})
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(100_000_000, job)
	return m, job
}

// TestWatchdogReportNamesWaitQueues: a blocked task's line in the
// liveness report names the queue it waits on, and each process line shows
// its pending upcall signal and UAC.
func TestWatchdogReportNamesWaitQueues(t *testing.T) {
	m, _ := runStall()
	rep := m.Spans.Report()
	if rep == nil {
		t.Fatal("watchdog did not fire on a stalled run")
	}
	s := rep.String()
	for _, want := range []string{
		"stall.0.main                 blocked on never\n",
		"stall.0.upcall               blocked on upcall\n",
		"node 0: buffered=false atomicVirtual=false throttled=false scheduled=true upcall-pending=false uac=0x0 ",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report lacks %q:\n%s", want, s)
		}
	}
}

// TestWatchdogQuietOnHealthyRun: a run that completes must not fire, and
// the watchdog must stop rescheduling itself so the event queue drains.
// Grace covers the 50k-cycle message-free compute phase (see the
// WatchdogConfig false-positive caveat: Interval*Grace must exceed it).
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.Watchdog = WatchdogConfig{Interval: 10_000, Grace: 10}
	m := NewMachine(cfg)
	job := m.NewJob("healthy")
	for n := 0; n < 2; n++ {
		job.Process(n).StartMain(func(tk *cpu.Task) {
			tk.Spend(50_000)
		})
	}
	m.NewGang(1<<40, 0, job).Start()
	m.RunUntilDone(100_000_000, job)
	if !job.Done() {
		t.Fatal("healthy job did not finish")
	}
	if rep := m.Spans.Report(); rep != nil {
		t.Fatalf("watchdog fired on a healthy run:\n%s", rep.String())
	}
}

// TestWatchdogImplicitRecorder: enabling only the watchdog must install a
// span recorder (the fingerprint needs one).
func TestWatchdogImplicitRecorder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.W, cfg.H = 2, 1
	cfg.Watchdog = WatchdogConfig{Interval: 10_000, Grace: 2}
	m := NewMachine(cfg)
	if m.Spans == nil {
		t.Fatal("watchdog enabled but no span recorder installed")
	}
}
