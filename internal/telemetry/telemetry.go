// Package telemetry is the simulated-time flight recorder: an interval
// sampler that every N cycles (a sim event, not wall clock) diffs the
// machine's metrics registry against the previous interval and appends a
// timeline record — per-instrument counter deltas, gauge levels and
// high-waters, histogram activity with quantile estimates, spans in flight,
// NI queue depths and the per-node delivery mode — to a bounded in-memory
// ring. End-of-run aggregates (metrics snapshots, policylab CSVs) cannot
// distinguish a run that is healthy 90% of the time and overloaded 10% from
// one that limps uniformly; the timeline can.
//
// Everything is deterministic: sampling is driven by the simulation clock,
// consumes no RNG and charges no simulated cycles, so a sweep with sampling
// enabled produces byte-identical timelines serial or parallel, and a sweep
// with it disabled (nil *Recorder) is bit-identical to one without the
// package compiled in. A Recorder is not synchronized — give each machine
// its own (the harness does).
package telemetry

import (
	"fugu/internal/metrics"
)

// Defaults for Config fields left zero when a Recorder is built anyway.
const (
	// DefaultEvery is the sampling interval in simulated cycles: fine
	// enough to resolve scheduler-quantum dynamics (the quick-mode quantum
	// is 50k cycles), coarse enough that a full-scale run stays in the ring.
	DefaultEvery = 10_000
	// DefaultCap bounds the ring; older intervals are dropped (and counted)
	// once it fills, keeping the recorder's memory flat on long runs.
	DefaultCap = 4096
)

// Config parameterizes a flight recorder.
type Config struct {
	// Every is the sampling interval in simulated cycles. Zero means
	// telemetry is disabled wherever a Config gates recorder creation;
	// NewRecorder itself substitutes DefaultEvery.
	Every uint64
	// Cap is the ring capacity in intervals; <= 0 means DefaultCap.
	Cap int
	// OnSample, when non-nil, streams every recorded interval as it is
	// appended — the live dashboard hook (`fugusim inspect -with
	// timeline`). It runs inside the simulation event, so it must not touch
	// the machine.
	OnSample func(Interval)
}

// Enabled reports whether the config asks for sampling at all.
func (c Config) Enabled() bool { return c.Every > 0 }

// HistDelta is one histogram's activity within one interval: the count and
// sum deltas plus the percentiles of the interval's bucket deltas, read by
// metrics.HistogramValue.Quantile (log2-bucket upper bounds, so a true p99
// of 700 cycles reports as 1023).
type HistDelta struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	// Max is the lifetime maximum observed so far (registries do not track
	// a per-interval max; the running high-water is still useful context).
	Max uint64 `json:"max"`
}

// Interval is one flight-recorder record: the machine's activity between
// the previous sample and Cycle.
type Interval struct {
	// Epoch numbers the machine within a multi-machine timeline (Concat
	// assigns it; a recorder observes one machine, epoch 0); cycles
	// restart per epoch.
	Epoch int    `json:"epoch"`
	Cycle uint64 `json:"cycle"`
	// SpansInFlight is the number of unterminated message spans at the
	// sample (0 when no span recorder is installed).
	SpansInFlight int `json:"spans_inflight"`
	// QueueSum and QueueMax summarize NI input-queue depth across nodes.
	QueueSum int `json:"queue_sum"`
	QueueMax int `json:"queue_max"`
	// Modes is one delivery-mode glyph per node (see delivery.ModeGlyph):
	// '-' direct, 'b' buffered, 't' throttled, 'B' both, 'd'/'r' residual
	// store backlog under a software/hardware demux policy.
	Modes string `json:"modes"`
	// Counters holds the per-instrument deltas since the previous sample;
	// instruments with a zero delta are omitted, so summing a column over
	// all intervals of all epochs reconciles exactly with Totals.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges holds every gauge's level and lifetime high-water at the
	// sample (levels are instantaneous, not deltas).
	Gauges map[string]metrics.GaugeValue `json:"gauges,omitempty"`
	// Hists holds the interval activity of every histogram that recorded
	// at least one sample in the interval.
	Hists map[string]HistDelta `json:"hists,omitempty"`
	// Dwell holds per-pipeline-stage dwell-cycle deltas: cycles charged to
	// each stage by message spans that terminated within the interval
	// (keyed by spans.Stage names). Present only when a spans recorder
	// feeds the sampler; zero deltas are omitted, so the column set of
	// dwell-free timelines is unchanged.
	Dwell map[string]uint64 `json:"dwell,omitempty"`
}

// Sample is the raw machine state handed to Record/Finish at one instant;
// the recorder turns consecutive samples into Intervals.
type Sample struct {
	At            uint64
	Snap          metrics.Snapshot
	SpansInFlight int
	QueueSum      int
	QueueMax      int
	Modes         string
	// Dwell is the cumulative per-stage dwell total over terminated spans
	// at the sample (spans.Recorder.StageDwellTotals), nil when no spans
	// recorder is installed. The recorder diffs consecutive samples.
	Dwell map[string]uint64
}

// Timeline is a recorder's retained record sequence plus the final totals.
type Timeline struct {
	// Every is the sampling interval the timeline was recorded at.
	Every uint64 `json:"every"`
	// Intervals is the ring contents in record order (oldest first). When
	// Dropped is zero it is the complete history.
	Intervals []Interval `json:"intervals"`
	// Dropped counts intervals evicted from the ring; when non-zero the
	// deltas no longer sum to Totals.
	Dropped int `json:"dropped"`
	// Totals is the final registry snapshot, merged across epochs by
	// Concat. With Dropped == 0, per-instrument counter deltas summed over
	// Intervals equal Totals.Counters exactly — the reconciliation
	// invariant CI checks.
	Totals metrics.Snapshot `json:"totals"`
}

// Empty reports whether the timeline recorded nothing at all.
func (t Timeline) Empty() bool { return len(t.Intervals) == 0 && t.Totals.Empty() }

// SumCounters sums the per-interval counter deltas — the left-hand side of
// the reconciliation invariant (equals Totals.Counters when Dropped == 0
// and every machine's recorder was finished).
func (t Timeline) SumCounters() map[string]uint64 {
	out := map[string]uint64{}
	for _, iv := range t.Intervals {
		for name, d := range iv.Counters {
			out[name] += d
		}
	}
	return out
}

// Concat splices per-machine timelines into one, numbering the i-th
// timeline's intervals as epoch i, merging totals and summing drops.
// Multi-machine sweep points (table4 runs up to three machines per point,
// averaged trials one per trial) use it to present one timeline per point.
func Concat(tls ...Timeline) Timeline {
	var out Timeline
	snaps := make([]metrics.Snapshot, 0, len(tls))
	for i, tl := range tls {
		if out.Every == 0 {
			out.Every = tl.Every
		}
		for _, iv := range tl.Intervals {
			iv.Epoch = i
			out.Intervals = append(out.Intervals, iv)
		}
		out.Dropped += tl.Dropped
		snaps = append(snaps, tl.Totals)
	}
	out.Totals = metrics.Merge(snaps...)
	return out
}

// Recorder accumulates one machine's intervals into the ring. All methods
// are nil-safe no-ops on a nil receiver, so "telemetry disabled" is a nil
// pointer with zero cost (no events, no allocations) on every hot path.
type Recorder struct {
	cfg Config

	prev      metrics.Snapshot  // snapshot at the previous sample
	prevDwell map[string]uint64 // cumulative dwell at the previous sample
	lastAt    uint64
	hasSample bool // any sample recorded yet
	finished  bool // Finish seen

	buf     []Interval // ring storage
	head, n int
	dropped int

	totals metrics.Snapshot // final snapshot, set by Finish
}

// NewRecorder builds a flight recorder, substituting defaults for zero
// Every/Cap.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Every == 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	return &Recorder{cfg: cfg, totals: metrics.NewSnapshot()}
}

// Every returns the sampling interval (0 on a nil recorder — disabled).
func (r *Recorder) Every() uint64 {
	if r == nil {
		return 0
	}
	return r.cfg.Every
}

// Record appends one interval: the delta of s against the previous sample.
func (r *Recorder) Record(s Sample) {
	if r == nil {
		return
	}
	iv := r.delta(s)
	r.push(iv)
	if r.cfg.OnSample != nil {
		r.cfg.OnSample(iv)
	}
	r.prev = s.Snap
	r.prevDwell = s.Dwell
	r.lastAt = s.At
	r.hasSample = true
}

// Finish closes the recording with a final sample and returns the
// timeline. The closing delta lands in its own interval unless the engine
// stopped on the same cycle as the last sample, in which case it is folded
// into that interval (keeping the cycle column strictly monotone without
// losing counts; folded histogram quantiles keep the pre-fold estimate).
// Finishing twice is a no-op, so harness collection and ad-hoc callers
// compose.
func (r *Recorder) Finish(s Sample) Timeline {
	if r == nil {
		return Timeline{}
	}
	if !r.finished {
		iv := r.delta(s)
		switch {
		case !r.hasSample, s.At > r.lastAt:
			if intervalActive(iv) || !r.hasSample {
				r.push(iv)
				if r.cfg.OnSample != nil {
					r.cfg.OnSample(iv)
				}
			}
		default: // same cycle as the last sample: fold residual deltas in
			if intervalActive(iv) {
				r.foldIntoLast(iv)
			}
		}
		r.totals = metrics.Merge(s.Snap)
		r.prev = s.Snap
		r.prevDwell = s.Dwell
		r.lastAt = s.At
		r.hasSample = true
		r.finished = true
	}
	return r.Timeline()
}

// Timeline linearizes the ring. Safe to call at any point; the returned
// intervals are copies only of the ring's record structs (maps are shared
// — treat a timeline as read-only while its recorder is live).
func (r *Recorder) Timeline() Timeline {
	if r == nil {
		return Timeline{}
	}
	ivs := make([]Interval, r.n)
	for i := 0; i < r.n; i++ {
		ivs[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return Timeline{Every: r.cfg.Every, Intervals: ivs, Dropped: r.dropped, Totals: r.totals}
}

// Recent returns the newest k intervals (oldest first) — the Diagnose dump.
func (r *Recorder) Recent(k int) []Interval {
	if r == nil || k <= 0 {
		return nil
	}
	if k > r.n {
		k = r.n
	}
	out := make([]Interval, k)
	for i := 0; i < k; i++ {
		out[i] = r.buf[(r.head+r.n-k+i)%len(r.buf)]
	}
	return out
}

// delta computes the interval record for sample s against r.prev.
func (r *Recorder) delta(s Sample) Interval {
	iv := Interval{
		Cycle:         s.At,
		SpansInFlight: s.SpansInFlight,
		QueueSum:      s.QueueSum,
		QueueMax:      s.QueueMax,
		Modes:         s.Modes,
	}
	for name, v := range s.Snap.Counters {
		if d := v - r.prev.Counters[name]; d != 0 {
			if iv.Counters == nil {
				iv.Counters = make(map[string]uint64)
			}
			iv.Counters[name] = d
		}
	}
	if len(s.Snap.Gauges) > 0 {
		iv.Gauges = make(map[string]metrics.GaugeValue, len(s.Snap.Gauges))
		for name, g := range s.Snap.Gauges {
			iv.Gauges[name] = g
		}
	}
	for name, h := range s.Snap.Histograms {
		d := h.Sub(r.prev.Histograms[name])
		if d.Count == 0 {
			continue
		}
		if iv.Hists == nil {
			iv.Hists = make(map[string]HistDelta)
		}
		iv.Hists[name] = HistDelta{Count: d.Count, Sum: d.Sum, Max: h.Max,
			P50: d.Quantile(50), P90: d.Quantile(90), P99: d.Quantile(99)}
	}
	for name, v := range s.Dwell {
		if d := v - r.prevDwell[name]; d != 0 {
			if iv.Dwell == nil {
				iv.Dwell = make(map[string]uint64)
			}
			iv.Dwell[name] = d
		}
	}
	return iv
}

// intervalActive reports whether the interval carries any counter,
// histogram or dwell activity (gauge levels alone don't warrant a closing
// record).
func intervalActive(iv Interval) bool {
	return len(iv.Counters) > 0 || len(iv.Hists) > 0 || len(iv.Dwell) > 0
}

// push appends an interval to the ring, evicting the oldest when full.
func (r *Recorder) push(iv Interval) {
	if r.buf == nil {
		r.buf = make([]Interval, r.cfg.Cap)
	}
	if r.n == len(r.buf) {
		r.buf[r.head] = iv
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
		return
	}
	r.buf[(r.head+r.n)%len(r.buf)] = iv
	r.n++
}

// foldIntoLast merges a same-cycle closing delta into the newest interval:
// counts and sums add, instantaneous fields take the newer values.
func (r *Recorder) foldIntoLast(iv Interval) {
	if r.n == 0 {
		r.push(iv)
		return
	}
	last := &r.buf[(r.head+r.n-1)%len(r.buf)]
	for name, d := range iv.Counters {
		if last.Counters == nil {
			last.Counters = make(map[string]uint64)
		}
		last.Counters[name] += d
	}
	for name, hd := range iv.Hists {
		if last.Hists == nil {
			last.Hists = make(map[string]HistDelta)
		}
		prev := last.Hists[name]
		if prev.Count == 0 {
			last.Hists[name] = hd
			continue
		}
		prev.Count += hd.Count
		prev.Sum += hd.Sum
		prev.Max = hd.Max
		last.Hists[name] = prev
	}
	for name, d := range iv.Dwell {
		if last.Dwell == nil {
			last.Dwell = make(map[string]uint64)
		}
		last.Dwell[name] += d
	}
	last.Gauges = iv.Gauges
	last.SpansInFlight = iv.SpansInFlight
	last.QueueSum = iv.QueueSum
	last.QueueMax = iv.QueueMax
	last.Modes = iv.Modes
}
