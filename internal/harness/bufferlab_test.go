package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/niq"
)

// TestBufferlabDeterminism pins that the sweep is a pure function of its
// options: a serial run and an 8-worker run must render byte-identical CSVs.
func TestBufferlabDeterminism(t *testing.T) {
	serial, err := runAs[LabResult]("bufferlab", WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runAs[LabResult]("bufferlab", WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.CSVFiles(), parallel.CSVFiles()
	if len(a) != len(b) {
		t.Fatalf("serial wrote %d files, parallel %d", len(a), len(b))
	}
	for file, want := range a {
		if got := b[file]; got != want {
			t.Errorf("%s differs between serial and 8-worker runs:\nserial:\n%s\nparallel:\n%s", file, want, got)
		}
	}
}

// TestBufferlabEconomics is the in-repo mirror of the CI lab gate: at the
// default seed and trial count, the bufferlab Verdict passes — every oracle
// holds under every queue organization, and at least one shared
// organization strictly beats the static FIFO on aggregate overflow rate at
// equal slots.
func TestBufferlabEconomics(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res, err := runAs[LabResult]("bufferlab", WithQuick(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := Lookup("bufferlab")
	for _, v := range exp.Verdict(res) {
		t.Errorf("verdict: %s", v)
	}
	fifoRate, best, bestRate, _ := res.Dominance()
	if bestRate >= fifoRate {
		t.Fatalf("best shared organization %q rate %.4f !< fifo %.4f", best, bestRate, fifoRate)
	}
	// The static partition must actually be the *worst* place to be under
	// convergent bursts — that asymmetry is the whole DAMQ literature.
	for _, row := range res.Rows {
		if row.Queue == "fifo:static" && row.Refused == 0 && row.Plan != "none" {
			t.Errorf("fifo never refused under plan %s: the workload is not scarce enough to compare", row.Plan)
		}
	}
}

// TestBufferlabDominanceNeedsBothSides checks the verdict on a queue axis
// narrowed by -niq: without fifo:static, or with nothing but it, the
// dominance claim is reported as not evaluated instead of failing, while a
// sweep of both sides in which no shared organization wins still fails.
func TestBufferlabDominanceNeedsBothSides(t *testing.T) {
	const fail = "no shared queue organization dominated the static FIFO on overflow rate"
	row := func(queue string, arrived, refused uint64) LabRow {
		return LabRow{Plan: "none", Policy: "twocase", Queue: queue, Completed: true, Arrived: arrived, Refused: refused}
	}
	for _, tc := range []struct {
		name     string
		rows     []LabRow
		wantFail bool
		wantLine string
	}{
		{"no fifo:static", []LabRow{row("damq:demand", 90, 10)}, false,
			"dominance: not evaluated: the queue axis does not include fifo:static"},
		{"only fifo:static", []LabRow{row("fifo:static", 90, 10)}, false,
			"dominance: not evaluated: the queue axis includes no organization but fifo:static"},
		{"shared organization loses", []LabRow{row("fifo:static", 90, 10), row("damq:demand", 80, 20)}, true,
			"dominance: NO shared organization beat the static FIFO on overflow rate"},
		{"fifo never refused", []LabRow{row("fifo:static", 100, 0), row("damq:demand", 100, 0)}, true,
			"dominance: NO shared organization beat the static FIFO on overflow rate"},
		{"shared organization wins", []LabRow{row("fifo:static", 90, 10), row("damq:demand", 95, 5)}, false,
			"dominance: damq:demand overflow 5.00% < fifo:static 10.00%"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := LabResult{Rows: tc.rows, preset: bufferlabPreset}
			verdict := labVerdict(res)
			if got := slices.Contains(verdict, fail); got != tc.wantFail {
				t.Errorf("verdict %q: dominance failure reported %v, want %v", verdict, got, tc.wantFail)
			}
			var out strings.Builder
			res.Print(&out)
			if !strings.Contains(out.String(), tc.wantLine) {
				t.Errorf("printed report lacks %q:\n%s", tc.wantLine, out.String())
			}
		})
	}
}

// TestBufferlabQueueModelPolicySweep runs the crucible's quick sweep for
// every delivery policy × queue organization pair: all delivery oracles must
// hold no matter how the receive SRAM is carved, under every delivery
// organization that uses it.
func TestBufferlabQueueModelPolicySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	queues := []niq.Spec{
		{Model: niq.ModelFIFO},
		{Model: niq.ModelDAMQ, Policy: niq.PolicyDemand},
		{Model: niq.ModelReserve, Policy: niq.PolicyHybrid},
	}
	for _, polName := range delivery.Names() {
		for _, spec := range queues {
			t.Run(polName+"/"+spec.Name(), func(t *testing.T) {
				t.Parallel()
				pol, err := delivery.ByName(polName)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Crucible(WithQuick(), WithTrials(1), WithSeed(1),
					WithDeliveryPolicy(pol), WithInputQueue(spec), WithQueueAudit())
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range res.Problems() {
					t.Errorf("oracle violation: %s", p)
				}
			})
		}
	}
}

// TestReserveNeverViolatedProperty is the reserve-plus-borrow guarantee
// stated over whole machine runs: for ANY random fault plan and EVERY
// delivery policy, no source's user traffic ever occupies another source's
// guaranteed slots. The audit hook walks the queue invariants — borrow
// accounting, reserve bound, list integrity — after every single push and
// pop on every node, and panics at the exact event that breaks them.
func TestReserveNeverViolatedProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	policies := delivery.Names()
	check := func(seed uint64, pick uint8, pMis, pStall, pHot uint8) bool {
		polName := policies[int(pick)%len(policies)]
		pol, err := delivery.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		plan := cruciblePlan{
			name: fmt.Sprintf("reserve-prop-%#x", seed),
			arm: func(p *faultinject.Plan) {
				w := func(b uint8, cycles uint64) faultinject.FaultSpec {
					return faultinject.FaultSpec{
						Prob: float64(b) / 365.0,
						From: crucibleFaultsStart, Until: crucibleFaultsLift,
						Cycles: cycles, Node: faultinject.AllNodes,
					}
				}
				p.Arm(faultinject.GIDMismatch, w(pMis, 0))
				p.Arm(faultinject.LinkStall, w(pStall, 250))
				p.Arm(faultinject.HotSpot, w(pHot, 250))
			},
		}
		opt := NewOptions(WithQuick(), WithTrials(1), WithSeed(seed),
			WithInputQueue(niq.Spec{Model: niq.ModelReserve, Policy: niq.PolicyHybrid}),
			WithDeliveryPolicy(pol), WithQueueAudit())
		pt := runCrucibleLoad(plan, 0, opt, bufferlabLoad)
		if len(pt.row.Problems) > 0 {
			t.Logf("seed=%#x policy=%s: %v", seed, polName, pt.row.Problems)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
