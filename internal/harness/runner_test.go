package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fugu/internal/sim"
)

// sliceResult is the trivial Result test experiments assemble into.
type sliceResult struct{ vals []int }

func (sliceResult) Print(io.Writer) {}

// sliceExperiment returns every point's value in enumeration order.
func sliceExperiment(points []Point) *Experiment {
	return &Experiment{
		Name:        "test",
		Description: "test experiment",
		Points:      func(Options) []Point { return points },
		Assemble: func(_ Options, results []any) (Result, error) {
			res := sliceResult{}
			for _, r := range results {
				res.vals = append(res.vals, r.(int))
			}
			return res, nil
		},
	}
}

func TestRunnerResultOrderIndependentOfWorkerCount(t *testing.T) {
	const n = 40
	points := make([]Point, n)
	for i := range points {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run: func(context.Context, Options) (any, error) {
				// Scramble completion order: later points finish sooner.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i, nil
			},
		}
	}
	exp := sliceExperiment(points)
	var got []sliceResult
	for _, workers := range []int{1, 8} {
		res, err := new(Runner).Run(context.Background(), exp, WithParallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got = append(got, res.(sliceResult))
	}
	for i := 0; i < n; i++ {
		if got[0].vals[i] != i {
			t.Fatalf("serial run out of order at %d: %v", i, got[0].vals)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("serial and parallel results differ:\n%v\n%v", got[0], got[1])
	}
}

func TestRunnerCancellationStopsPromptly(t *testing.T) {
	var started atomic.Int32
	points := make([]Point, 64)
	for i := range points {
		points[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run: func(ctx context.Context, _ Options) (any, error) {
				started.Add(1)
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(10 * time.Second):
					return 0, nil
				}
			},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err := new(Runner).Run(ctx, sliceExperiment(points), WithParallelism(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// Only the in-flight points (one per worker) ever started; the rest of
	// the sweep was abandoned.
	if s := started.Load(); s > 8 {
		t.Errorf("%d points started after cancel, want at most the in-flight few", s)
	}
}

func TestRunnerPanicIsIsolated(t *testing.T) {
	var ran atomic.Int32
	const n = 12
	points := make([]Point, n)
	for i := range points {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run: func(context.Context, Options) (any, error) {
				ran.Add(1)
				if i == 3 {
					panic("boom at point 3")
				}
				return i, nil
			},
		}
	}
	_, err := new(Runner).Run(context.Background(), sliceExperiment(points), WithParallelism(4))
	if err == nil {
		t.Fatal("panicking point did not surface as an error")
	}
	if !strings.Contains(err.Error(), "boom at point 3") || !strings.Contains(err.Error(), "p3") {
		t.Errorf("error does not identify the panicking point: %v", err)
	}
	if ran.Load() != n {
		t.Errorf("only %d/%d points ran: the panic killed sibling work", ran.Load(), n)
	}
}

// TestRunnerProcPanicIsIsolated panics inside a simulated proc rather than
// on the point's own goroutine: the panic must still travel back through
// the engine to runPoint's recover and fail only that point.
func TestRunnerProcPanicIsIsolated(t *testing.T) {
	var ran atomic.Int32
	const n = 6
	points := make([]Point, n)
	for i := range points {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run: func(context.Context, Options) (any, error) {
				ran.Add(1)
				e := sim.NewEngine(uint64(i) + 1)
				e.Spawn("worker", func(p *sim.Proc) {
					p.Sleep(3)
					if i == 2 {
						panic("proc boom at point 2")
					}
				})
				e.Run()
				return i, nil
			},
		}
	}
	errs := make(map[string]error)
	r := &Runner{Progress: func(pr Progress) { errs[pr.Label] = pr.Err }}
	_, err := r.Run(context.Background(), sliceExperiment(points), WithParallelism(3))
	if err == nil || !strings.Contains(err.Error(), "p2") {
		t.Fatalf("err = %v, want the failure of point p2", err)
	}
	if ran.Load() != n {
		t.Errorf("only %d/%d points ran: the proc panic killed sibling work", ran.Load(), n)
	}
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("p%d", i)
		perr, ok := errs[label]
		switch {
		case !ok:
			t.Errorf("%s reported no progress", label)
		case i == 2 && (perr == nil || !strings.Contains(perr.Error(), "proc boom at point 2")):
			t.Errorf("%s: Err = %v, want the proc's panic", label, perr)
		case i != 2 && perr != nil:
			t.Errorf("%s: Err = %v, want nil", label, perr)
		}
	}
}

func TestRunnerPointErrorIsLabelled(t *testing.T) {
	points := []Point{
		{Label: "good", Run: func(context.Context, Options) (any, error) { return 1, nil }},
		{Label: "bad", Run: func(context.Context, Options) (any, error) { return nil, errors.New("sim diverged") }},
	}
	_, err := new(Runner).Run(context.Background(), sliceExperiment(points), WithParallelism(2))
	if err == nil || !strings.Contains(err.Error(), "bad") || !strings.Contains(err.Error(), "sim diverged") {
		t.Errorf("err = %v, want labelled point failure", err)
	}
}

func TestRunnerProgressCallback(t *testing.T) {
	const n = 10
	points := make([]Point, n)
	for i := range points {
		i := i
		points[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run:   func(context.Context, Options) (any, error) { return i, nil },
		}
	}
	var events []Progress
	r := &Runner{Progress: func(p Progress) { events = append(events, p) }}
	if _, err := r.Run(context.Background(), sliceExperiment(points), WithParallelism(4)); err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("%d progress events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != n || ev.Experiment != "test" {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
}

func TestRegistryNamesAndLookup(t *testing.T) {
	want := []string{"table4", "table5", "table6", "fig7and8", "fig9", "fig10", "crlstress", "crucible", "policylab", "bufferlab"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		e, ok := Lookup(name)
		if !ok || e.Name != name || e.Description == "" {
			t.Errorf("Lookup(%q) = %+v, %v", name, e, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, err := Run(context.Background(), "nope"); err == nil {
		t.Error("Run accepted an unknown name")
	}
}

func TestOptionsResolution(t *testing.T) {
	o := NewOptions()
	if o.Quick || o.Trials != 3 || o.Seed != 1 {
		t.Errorf("defaults = %+v, want paper defaults", o)
	}
	o = NewOptions(WithQuick(), WithTrials(1), WithSeed(9), WithParallelism(2))
	if !o.Quick || o.Trials != 1 || o.Seed != 9 || o.Parallelism != 2 {
		t.Errorf("resolved = %+v", o)
	}
	if o.TrialSeed(2) != 11 {
		t.Errorf("TrialSeed(2) = %d, want seed+2", o.TrialSeed(2))
	}
	if (Options{}).trials() != 1 {
		t.Error("zero trials should clamp to 1")
	}
	if (Options{}).workers() < 1 {
		t.Error("workers must be at least 1")
	}
}

// TestFig9SerialParallelIdentical is the determinism guarantee: the same
// figure sweep run serially and on eight workers yields identical
// structured results and byte-identical CSV output.
func TestFig9SerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	serial, err := Fig9(WithQuick(), WithTrials(1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig9(WithQuick(), WithTrials(1), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("structured results differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	sc, pc := serial.CSVFiles()["fig9.csv"], parallel.CSVFiles()["fig9.csv"]
	if sc != pc {
		t.Errorf("CSV output differs:\nserial:\n%s\nparallel:\n%s", sc, pc)
	}
}
