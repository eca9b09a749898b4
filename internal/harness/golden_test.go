package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fugu/internal/delivery"
	"fugu/internal/niq"
)

// Golden SHA-256 hashes of every CSV the experiments emit at the canonical
// reference configuration (quick, 1 trial, seed 1, serial). These pin the
// simulator's end-to-end determinism across refactors: any change to event
// ordering, cost accounting, rng consumption or result assembly shows up
// here as a byte-level diff. Regenerate after a *deliberate* behavioural
// change with
//
//	go run ./cmd/fugusim run all -quick -trials 1 -seed 1 -j 1 -csv out/
//	(cd out && sha256sum *.csv)
//
// and update the tables below, noting why in the commit message.
var goldenFast = map[string]map[string]string{
	"table4": {"table4.csv": "ebea092c53d6870d7c35a9c9001bc95e2b3d9a141f6ae3c68e72f39092aef43c"},
	"table5": {"table5.csv": "b250310ce6d373a58bc917e7e315c001a291e8a97197ecb982e5722e89782c51"},
	"fig9":   {"fig9.csv": "003ede8306b9a83ca8180051a63afdaffbb0cb55492fa43c8e75c19fb0970c2f"},
	"fig10":  {"fig10.csv": "58179a303c54fb58d1457be419d58a0ef1d1ade8de12f5da87f2ed8c129f67ba"},
}

// goldenSlow covers the experiments too heavy for every `go test` cycle;
// they run unless -short is set.
var goldenSlow = map[string]map[string]string{
	"table6": {"table6.csv": "0f540f3047fda197daf032a4a67c24d35db073a8003fce8e64773e8f35c9e66c"},
	"fig7and8": {
		"fig7.csv": "8393f768423cda790d515796dcf4f7d609fe859a10844f8601643ae39c403bc6",
		"fig8.csv": "f441e8503d7141f72331abbfef8cc358fe3388f7c5018f8a1fd30d8fdd69108d",
	},
}

// checkGolden runs one experiment at the reference configuration and
// compares every emitted CSV against its pinned hash.
func checkGolden(t *testing.T, name string, want map[string]string) {
	t.Helper()
	exp, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := (&Runner{}).Run(context.Background(), exp,
		WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	csv, ok := res.(CSVer)
	if !ok {
		t.Fatalf("%s result does not emit CSV", name)
	}
	files := csv.CSVFiles()
	for file, wantHash := range want {
		content, ok := files[file]
		if !ok {
			t.Errorf("%s: no %s in CSV output", name, file)
			continue
		}
		sum := sha256.Sum256([]byte(content))
		if got := hex.EncodeToString(sum[:]); got != wantHash {
			t.Errorf("%s: %s hash = %s, want %s (simulation output changed; "+
				"see golden_test.go for how to regenerate deliberately)",
				name, file, got, wantHash)
		}
	}
}

// TestGoldenCSVs pins the fast experiments' output byte-for-byte.
func TestGoldenCSVs(t *testing.T) {
	for name, want := range goldenFast {
		name, want := name, want
		t.Run(name, func(t *testing.T) { checkGolden(t, name, want) })
	}
}

// TestGoldenExplicitTwoCase pins the DeliveryPolicy seam itself: selecting
// delivery.TwoCase explicitly must be byte-identical to the machine default
// (nil policy). The refactor moved the virtual software buffer behind the
// Policy interface; this test is the proof no cost, rng draw or event
// reordered on the way.
func TestGoldenExplicitTwoCase(t *testing.T) {
	for _, name := range []string{"table4", "fig9"} {
		want := goldenFast[name]
		exp, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		res, err := (&Runner{}).Run(context.Background(), exp,
			WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1),
			WithDeliveryPolicy(delivery.TwoCase{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files := res.(CSVer).CSVFiles()
		for file, wantHash := range want {
			sum := sha256.Sum256([]byte(files[file]))
			if got := hex.EncodeToString(sum[:]); got != wantHash {
				t.Errorf("%s with explicit TwoCase: %s hash = %s, want golden %s "+
					"(selecting the default policy must be bit-identical to not selecting one)",
					name, file, got, wantHash)
			}
		}
	}
}

// TestGoldenExplicitFIFO pins the InputQueue seam the same way: selecting
// niq's static FIFO explicitly must be byte-identical to the machine
// default (zero spec). The seam moved the receive queue behind an
// interface; this is the proof the default organization neither costs,
// draws nor reorders anything on the way.
func TestGoldenExplicitFIFO(t *testing.T) {
	for _, name := range []string{"table4", "fig9"} {
		want := goldenFast[name]
		exp, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		res, err := (&Runner{}).Run(context.Background(), exp,
			WithQuick(), WithTrials(1), WithSeed(1), WithParallelism(1),
			WithInputQueue(niq.Spec{Model: niq.ModelFIFO}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files := res.(CSVer).CSVFiles()
		for file, wantHash := range want {
			sum := sha256.Sum256([]byte(files[file]))
			if got := hex.EncodeToString(sum[:]); got != wantHash {
				t.Errorf("%s with explicit fifo queue: %s hash = %s, want golden %s "+
					"(selecting the default queue organization must be bit-identical to not selecting one)",
					name, file, got, wantHash)
			}
		}
	}
}

// TestGoldenCSVsSlow pins the heavyweight experiments (tens of seconds);
// skipped under -short.
func TestGoldenCSVsSlow(t *testing.T) {
	if testing.Short() {
		t.Skip("slow golden experiments skipped in -short mode")
	}
	for name, want := range goldenSlow {
		name, want := name, want
		t.Run(name, func(t *testing.T) { checkGolden(t, name, want) })
	}
}
