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
	crucible := func(policy string, kernelBuffered, withStarve bool, problems ...string) CrucibleResult {
		r := CrucibleResult{Policy: policy, KernelBuffered: kernelBuffered}
		add := func(plan string, kind faultinject.Kind, c crucibleCounters) {
			row := CrucibleRow{Plan: plan, Completed: true}
			row.Injected[kind] = 1
			r.Rows = append(r.Rows, row)
			r.counters = append(r.counters, c)
		}
		add("mismatch", faultinject.GIDMismatch, crucibleCounters{})
		add("revoke", faultinject.AtomicityTimeout, crucibleCounters{revocations: 1})
		add("handler-fault", faultinject.HandlerPageFault, crucibleCounters{faultsInHandler: 1})
		add("expiry", faultinject.QuantumExpiry, crucibleCounters{})
		if withStarve {
			add("starve", faultinject.FrameStarvation, crucibleCounters{overflowTrips: 1})
		}
		r.Rows[0].Problems = problems
		return r
	}
	bufferlab := func(fifoRefused uint64) BufferLabResult {
		return BufferLabResult{Rows: []BufferLabRow{
			{Model: "fifo", Policy: "static", Plan: "hot-spot", Arrived: 90, Refused: fifoRefused},
			{Model: "damq", Policy: "demand", Plan: "hot-spot", Arrived: 95, Refused: 5},
		}}
	}
	policylab := func(problems ...string) PolicyLabResult {
		return PolicyLabResult{Rows: []PolicyLabRow{{Policy: "twocase", Plan: "none", Problems: problems}}}
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
			[]string{"twocase/none trial=0: stuck span"}},
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
