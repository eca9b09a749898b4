package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"

	"fugu/internal/metrics"
	"fugu/internal/telemetry"
)

// Observation is what a point records of its machines besides its measured
// values: their merged registry snapshot and their flight-recorder timeline
// (empty unless telemetry sampling was enabled). Point results embed it.
type Observation struct {
	Metrics  metrics.Snapshot
	Timeline telemetry.Timeline
}

// Observed returns the observation itself, so every point result that
// embeds an Observation is an ObservationCarrier.
func (o Observation) Observed() Observation { return o }

// ObservationCarrier is implemented by point results that embed an
// Observation; the Runner merges their snapshots for its OnMetrics hook and
// feeds their timelines to its OnTimeline hook.
type ObservationCarrier interface {
	Observed() Observation
}

// Progress reports one completed point to the Runner's callback.
type Progress struct {
	Experiment string
	Done       int // points completed so far, including this one
	Total      int // points in the sweep
	Label      string
	Err        error // non-nil if the point failed or panicked
}

// Runner executes an experiment's points on a worker pool. Sweep points and
// trials fan out across Options.Parallelism workers (GOMAXPROCS by
// default); results are keyed by point index so the assembled result is
// identical whatever the worker count or completion order. A panicking
// point is captured as that point's error without killing sibling workers,
// and cancelling the context stops the sweep promptly (no new points are
// started; in-flight simulation points run to completion).
type Runner struct {
	// Progress, if non-nil, is called after every point completes. Calls
	// are serialized; the callback need not lock.
	Progress func(Progress)
	// OnMetrics, if non-nil, is called once after a fully successful sweep
	// with every point's registry snapshot merged in point-index order.
	// Merging is commutative (sums and maxima), so the aggregate is
	// bit-identical whatever the worker count.
	OnMetrics func(metrics.Snapshot)
	// OnTimeline, if non-nil, is called after a fully successful sweep for
	// every point whose result carries a non-empty telemetry timeline, in
	// point-index order — so exported timelines are byte-identical
	// whatever the worker count.
	OnTimeline func(point int, label string, tl telemetry.Timeline)
}

// Run enumerates, executes and assembles one experiment.
func (r *Runner) Run(ctx context.Context, exp *Experiment, opts ...Option) (Result, error) {
	opt := NewOptions(opts...)
	points := exp.Points(opt)
	results := make([]any, len(points))
	errs := make([]error, len(points))

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range points {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes progress callbacks and the done counter
		done int
	)
	for w := 0; w < opt.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				// Label the goroutine so host CPU/heap profiles attribute
				// samples to the experiment and sweep point being simulated.
				pprof.Do(ctx, pprof.Labels("experiment", exp.Name, "point", points[i].Label),
					func(ctx context.Context) {
						results[i], errs[i] = runPoint(ctx, opt, points[i])
					})
				if r.Progress != nil {
					mu.Lock()
					done++
					r.Progress(Progress{
						Experiment: exp.Name,
						Done:       done,
						Total:      len(points),
						Label:      points[i].Label,
						Err:        errs[i],
					})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("%s point %d (%s): %w", exp.Name, i, points[i].Label, err))
		}
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	if r.OnMetrics != nil {
		parts := make([]metrics.Snapshot, 0, len(results))
		for _, res := range results {
			if c, ok := res.(ObservationCarrier); ok {
				parts = append(parts, c.Observed().Metrics)
			}
		}
		r.OnMetrics(metrics.Merge(parts...))
	}
	if r.OnTimeline != nil {
		for i, res := range results {
			if c, ok := res.(ObservationCarrier); ok {
				if tl := c.Observed().Timeline; !tl.Empty() {
					r.OnTimeline(i, points[i].Label, tl)
				}
			}
		}
	}
	return exp.Assemble(opt, results)
}

// runPoint executes one point, converting a panic into that point's error.
func runPoint(ctx context.Context, opt Options, p Point) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return p.Run(ctx, opt)
}
