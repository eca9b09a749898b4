package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"fugu/internal/delivery"
	"fugu/internal/faultinject"
	"fugu/internal/spans"
)

// TestCrucibleSmoke runs the whole quick sweep once and demands what
// `fugusim run crucible` demands: the crucible's Verdict — every delivery
// oracle passes and every one of the five second-case causes was forced
// somewhere in the sweep — reports nothing.
func TestCrucibleSmoke(t *testing.T) {
	res, err := Crucible(WithQuick(), WithTrials(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := Lookup("crucible")
	for _, v := range exp.Verdict(res) {
		t.Errorf("verdict: %s", v)
	}
	if len(res.Rows) != len(cruciblePlans()) {
		t.Errorf("got %d rows, want one per plan (%d)", len(res.Rows), len(cruciblePlans()))
	}
}

// TestCruciblePolicySweep runs the quick sweep under every registered
// delivery policy: the crucible's Verdict must pass — the oracles hold and
// every cause the policy can express is forced. This is the in-repo mirror
// of the CI matrix that sweeps `fugusim run crucible -policy` over the
// registry.
func TestCruciblePolicySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	exp, _ := Lookup("crucible")
	for _, name := range delivery.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, err := delivery.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Crucible(WithQuick(), WithTrials(1), WithSeed(1), WithDeliveryPolicy(pol))
			if err != nil {
				t.Fatal(err)
			}
			if res.Policy != name {
				t.Errorf("result policy = %q, want %q", res.Policy, name)
			}
			for _, v := range exp.Verdict(res) {
				t.Errorf("verdict: %s", v)
			}
		})
	}
}

// TestCrucibleDeterminism pins that a sweep point is a pure function of
// (plan, trial, options): two runs of the chaos plan must agree on every
// observable, including the fault fire counts.
func TestCrucibleDeterminism(t *testing.T) {
	opt := NewOptions(WithQuick(), WithTrials(1), WithSeed(7))
	pl := cruciblePlans()[len(cruciblePlans())-1] // chaos
	a := runCrucible(pl, 0, opt)
	b := runCrucible(pl, 0, opt)
	if a.row.Cycles != b.row.Cycles || a.row.Fast != b.row.Fast ||
		a.row.Buffered != b.row.Buffered || a.row.Injected != b.row.Injected {
		t.Errorf("chaos plan not deterministic:\n  run1 %+v\n  run2 %+v", a.row, b.row)
	}
}

// TestCrucibleBalanceProperty is the per-node conservation property: for ANY
// fault plan — random per-cause probabilities, random seed — every message
// that arrives at a node is accounted for (disposed fast, inserted into the
// software buffer, or consumed by the kernel; never duplicated or dropped),
// and the workload still completes. The crucible oracles check exactly this,
// so the property is "no plan produces an oracle violation".
func TestCrucibleBalanceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	check := func(seed uint64, pMis, pRev, pFault, pExp, pStall uint8) bool {
		plan := cruciblePlan{
			name: fmt.Sprintf("prop-%#x", seed),
			arm: func(p *faultinject.Plan) {
				// Scale each byte into [0, ~0.7]: high enough to stress every
				// transition, low enough that the run still finishes quickly.
				w := func(b uint8, cycles uint64) faultinject.FaultSpec {
					return faultinject.FaultSpec{
						Prob: float64(b) / 365.0,
						From: crucibleFaultsStart, Until: crucibleFaultsLift,
						Cycles: cycles, Node: faultinject.AllNodes,
					}
				}
				p.Arm(faultinject.GIDMismatch, w(pMis, 0))
				p.Arm(faultinject.AtomicityTimeout, w(pRev, 0))
				p.Arm(faultinject.HandlerPageFault, w(pFault, 0))
				p.Arm(faultinject.QuantumExpiry, w(pExp, 1_500))
				p.Arm(faultinject.LinkStall, w(pStall, 250))
			},
		}
		pt := runCrucible(plan, 0, NewOptions(WithQuick(), WithTrials(1), WithSeed(seed)))
		if len(pt.row.Problems) > 0 {
			t.Logf("seed=%#x probs=(%d,%d,%d,%d,%d): %v",
				seed, pMis, pRev, pFault, pExp, pStall, pt.row.Problems)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFaultPolicySpanProperty is the property-based sweep over the full
// configuration cross product: for ANY random fault plan, under every
// registered delivery policy, the run's spans must reconcile against the
// machine's delivery counters.
func TestFaultPolicySpanProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	check := func(seed uint64, pMis, pRev, pStall uint8) bool {
		plan := cruciblePlan{
			name: fmt.Sprintf("policy-prop-%#x", seed),
			arm: func(p *faultinject.Plan) {
				w := func(b uint8, cycles uint64) faultinject.FaultSpec {
					return faultinject.FaultSpec{
						Prob: float64(b) / 365.0,
						From: crucibleFaultsStart, Until: crucibleFaultsLift,
						Cycles: cycles, Node: faultinject.AllNodes,
					}
				}
				p.Arm(faultinject.GIDMismatch, w(pMis, 0))
				p.Arm(faultinject.AtomicityTimeout, w(pRev, 0))
				p.Arm(faultinject.LinkStall, w(pStall, 250))
			},
		}
		for _, polName := range delivery.Names() {
			pol, err := delivery.ByName(polName)
			if err != nil {
				t.Fatal(err)
			}
			rec := spans.NewRecorder(nil)
			pt := runCrucible(plan, 0, NewOptions(WithQuick(), WithTrials(1), WithSeed(seed),
				WithDeliveryPolicy(pol), WithSpans(rec)))
			if probs := rec.Check(pt.snap.Counters["glaze.deliver.fast"],
				pt.snap.Counters["glaze.deliver.buffered"]); len(probs) != 0 {
				t.Logf("seed=%#x policy=%s: span invariants violated: %v", seed, polName, probs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestCrucibleFaultFreeGolden pins the central determinism contract of the
// fault injector: arming an all-zero plan builds the injector and threads
// every hook, yet reproduces the golden CSVs byte-for-byte, because a
// disarmed spec never consumes a PCG draw and the injector never touches
// the machine RNG.
func TestCrucibleFaultFreeGolden(t *testing.T) {
	var zero faultinject.Plan
	for _, name := range []string{"table4", "fig9"} {
		want := goldenFast[name]
		exp, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		res, err := (&Runner{}).Run(context.Background(), exp,
			WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1),
			WithFaults(&zero))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files := res.(CSVer).CSVFiles()
		for file, wantHash := range want {
			sum := sha256.Sum256([]byte(files[file]))
			if got := hex.EncodeToString(sum[:]); got != wantHash {
				t.Errorf("%s with zero fault plan: %s hash = %s, want golden %s "+
					"(a disarmed injector must be bit-identical to no injector)",
					name, file, got, wantHash)
			}
		}
	}
}
