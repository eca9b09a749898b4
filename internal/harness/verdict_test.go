package harness

import (
	"reflect"
	"testing"

	"fugu/internal/faultinject"
)

// TestVerdicts runs the registered Verdict hooks — the checks `fugusim run`
// enforces — on hand-built results, so a hook that goes missing or stops
// reporting a failed claim fails here without a sweep.
func TestVerdicts(t *testing.T) {
	// crucibleRows forces every cause: one row per injected fault kind, with
	// the machine-side counters that prove the kernel took the transition.
	// withStarve=false drops the frame-starvation row, so buffer overflow is
	// never forced.
	crucible := func(policy string, kernelBuffered, withStarve bool, problems ...string) LabResult {
		r := LabResult{preset: cruciblePreset}
		add := func(plan string, kind faultinject.Kind, row LabRow) {
			row.Policy, row.KernelBuffered, row.Plan, row.Completed = policy, kernelBuffered, plan, true
			row.Injected[kind] = 1
			r.Rows = append(r.Rows, row)
		}
		add("mismatch", faultinject.GIDMismatch, LabRow{})
		add("revoke", faultinject.AtomicityTimeout, LabRow{Revocations: 1})
		add("handler-fault", faultinject.HandlerPageFault, LabRow{FaultsInHandler: 1})
		add("expiry", faultinject.QuantumExpiry, LabRow{})
		if withStarve {
			add("starve", faultinject.FrameStarvation, LabRow{OverflowTrips: 1})
		}
		r.Rows[0].Problems = problems
		return r
	}
	bufferlab := func(fifoRefused uint64) LabResult {
		return LabResult{preset: bufferlabPreset, Rows: []LabRow{
			{Queue: "fifo:static", Plan: "hot-spot", Arrived: 90, Refused: fifoRefused},
			{Queue: "damq:demand", Plan: "hot-spot", Arrived: 95, Refused: 5},
		}}
	}
	policylab := func(problems ...string) LabResult {
		return LabResult{preset: policylabPreset, Rows: []LabRow{{Policy: "twocase", Plan: "none", Problems: problems}}}
	}

	cases := []struct {
		name string
		exp  string
		res  Result
		want []string
	}{
		{"crucible clean", "crucible", crucible("twocase", true, true), nil},
		{"crucible overflow never forced", "crucible", crucible("twocase", true, false),
			[]string{`cause "buffer-overflow" never forced under policy twocase`}},
		{"crucible bypass exempt from overflow", "crucible", crucible("bypass", false, false), nil},
		{"crucible oracle violation", "crucible", crucible("twocase", true, true, "lost message"),
			[]string{"mismatch trial=0: lost message"}},
		{"bufferlab clean", "bufferlab", bufferlab(10), nil},
		{"bufferlab fifo never refused", "bufferlab", bufferlab(0),
			[]string{"no shared queue organization dominated the static FIFO on overflow rate"}},
		{"policylab clean", "policylab", policylab(), nil},
		{"policylab oracle violation", "policylab", policylab("stuck span"),
			[]string{"twocase none trial=0: stuck span"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exp, ok := Lookup(tc.exp)
			if !ok || exp.Verdict == nil {
				t.Fatalf("experiment %q has no Verdict hook", tc.exp)
			}
			if got := exp.Verdict(tc.res); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Verdict = %q, want %q", got, tc.want)
			}
		})
	}
}
