package udm

import (
	"strings"
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/glaze"
	"fugu/internal/trace"
)

// TestTraceRecordsTransitions: the kernel's event log captures the
// mode-transition story of a revocation run.
func TestTraceRecordsTransitions(t *testing.T) {
	m, job, eps := testMachine(t, func(cfg *glaze.Config) {
		cfg.NIConfig.TimerPreset = 400
	})
	m.Trace = trace.New(256)
	m.Trace.Enable(trace.Mode, trace.Sched)
	eps[1].On(1, func(e *Env, msg *Msg) {})
	job.Process(1).StartMain(func(tk *cpu.Task) {
		e := eps[1].Env(tk)
		e.BeginAtomic()
		tk.Spend(3000) // let the timer revoke
		for m.Nodes[1].Metrics.Counter("udm.delivered").Value() < 2 {
			e.Poll()
		}
		e.EndAtomic()
	})
	job.Process(0).StartMain(func(tk *cpu.Task) {
		e := eps[0].Env(tk)
		e.Inject(1, 1, 1)
		e.Inject(1, 1, 2)
	})
	m.RunUntilDone(0, job)
	var log strings.Builder
	for _, ev := range m.Trace.Events() {
		log.WriteString(ev.What + "\n")
	}
	for _, want := range []string{"switch to test", "revoke test", "exit buffered test"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("trace missing %q:\n%s", want, log.String())
		}
	}
	if m.Trace.Total() < 3 {
		t.Errorf("trace total = %d", m.Trace.Total())
	}
}
