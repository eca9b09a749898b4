package udm

import (
	"fmt"
	"strings"
	"testing"

	"fugu/internal/cpu"
	"fugu/internal/delivery"
	"fugu/internal/glaze"
	"fugu/internal/telemetry"
)

// TestDiagnoseTimelineAllPolicies exercises the watchdog's diagnostic report
// with the flight recorder attached under every registered delivery policy:
// the report must carry a timeline section whose tail shows the run's
// delivery activity, and the recorder's totals must reconcile with the
// interval deltas regardless of which delivery mechanism moved the messages.
func TestDiagnoseTimelineAllPolicies(t *testing.T) {
	for _, name := range delivery.Names() {
		t.Run(name, func(t *testing.T) {
			pol, err := delivery.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, job, eps := testMachine(t, func(cfg *glaze.Config) {
				cfg.Delivery = pol
				cfg.Telemetry = telemetry.Config{Every: 2_000}
			})
			const N = 40
			got := 0
			eps[1].On(1, func(e *Env, msg *Msg) { got++ })
			job.Process(0).StartMain(func(tk *cpu.Task) {
				e := eps[0].Env(tk)
				for i := 0; i < N; i++ {
					e.Inject(1, 1, uint64(i))
					tk.Spend(500)
				}
			})
			job.Process(1).StartMain(func(tk *cpu.Task) {
				for got < N {
					tk.Spend(1_000)
				}
			})
			m.RunUntilDone(0, job)
			if got != N {
				t.Fatalf("delivered %d/%d under %s", got, N, name)
			}

			rep := m.Diagnose("test probe")
			text := rep.String()
			if !strings.Contains(text, "timeline (last ") {
				t.Fatalf("%s: Diagnose report lacks the flight-recorder section:\n%s", name, text)
			}
			if !strings.Contains(text, "every 2000 cycles") {
				t.Errorf("%s: timeline section does not state the sampling interval", name)
			}
			if !strings.Contains(text, "modes=") {
				t.Errorf("%s: timeline rows lack per-node mode glyphs", name)
			}

			tl := m.FinishTelemetry()
			if tl.Empty() {
				t.Fatalf("%s: finished timeline is empty", name)
			}
			sums := tl.SumCounters()
			deliveries := sums["glaze.deliver.fast"] + sums["glaze.deliver.buffered"]
			if deliveries != N {
				t.Errorf("%s: timeline deltas account for %d deliveries, want %d", name, deliveries, N)
			}
			for cname, want := range tl.Totals.Counters {
				if sums[cname] != want {
					t.Errorf("%s: counter %s deltas sum to %d, totals say %d", name, cname, sums[cname], want)
				}
			}
		})
	}
}

// TestDiagnoseWithoutTelemetry: a machine with no recorder must still
// diagnose cleanly — the timeline section is simply absent.
func TestDiagnoseWithoutTelemetry(t *testing.T) {
	m, job, eps := testMachine(t, nil)
	eps[1].On(1, func(e *Env, msg *Msg) {})
	job.Process(0).StartMain(func(tk *cpu.Task) { eps[0].Env(tk).Inject(1, 1) })
	job.Process(1).StartMain(func(tk *cpu.Task) { tk.Spend(1_000) })
	m.RunUntilDone(0, job)
	rep := m.Diagnose(fmt.Sprintf("probe at t=%d", m.Eng.Now()))
	if strings.Contains(rep.String(), "timeline (last ") {
		t.Error("report carries a timeline section with no recorder installed")
	}
}
