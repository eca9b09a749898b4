package glaze

import (
	"fugu/internal/delivery"
	"fugu/internal/sim"
	"fugu/internal/spans"
	"fugu/internal/telemetry"
)

// siteTelemetry labels flight-recorder sampling ticks for the cost profiler.
var siteTelemetry = sim.NewSite("glaze.telemetry")

// sampler drives the machine's telemetry flight recorder on simulated
// time: a self-rescheduling engine event every recorder interval. Like the
// watchdog it charges no simulated cycles, consumes no RNG and stops
// rescheduling once every job completes, so a machine with sampling
// enabled produces bit-identical results to one without — the extra events
// only interleave at their own timestamps.
type sampler struct {
	m      *Machine
	rec    *telemetry.Recorder
	every  uint64
	tickFn func() // s.tick bound once so rescheduling never allocates
}

func newSampler(m *Machine, rec *telemetry.Recorder) *sampler {
	s := &sampler{m: m, rec: rec, every: rec.Every()}
	s.tickFn = s.tick
	m.Eng.ScheduleSite(siteTelemetry, s.every, s.tickFn)
	return s
}

// tick records one interval and reschedules unless every job is done (the
// closing interval is FinishTelemetry's job, at the true stop time).
func (s *sampler) tick() {
	s.rec.Record(s.m.telemetrySample())
	for _, j := range s.m.jobs {
		if !j.Done() {
			s.m.Eng.ScheduleSite(siteTelemetry, s.every, s.tickFn)
			return
		}
	}
}

// telemetrySample captures the machine's instantaneous state for one
// flight-recorder interval: the merged registry snapshot, span backlog, NI
// queue depths and the per-node delivery-mode glyph string (worst process
// per node, see delivery.ModeGlyph).
func (m *Machine) telemetrySample() telemetry.Sample {
	var qsum, qmax int
	modes := make([]byte, len(m.Nodes))
	for i, node := range m.Nodes {
		q := node.NI.QueueLen()
		qsum += q
		if q > qmax {
			qmax = q
		}
		modes[i] = '-'
	}
	for _, j := range m.jobs {
		for _, p := range j.procs {
			g := delivery.ModeGlyph(m.policy, p.buffered, p.throttled, p.store.Pending())
			if delivery.GlyphRank(g) > delivery.GlyphRank(modes[p.node]) {
				modes[p.node] = g
			}
		}
	}
	s := telemetry.Sample{
		At:            m.Eng.Now(),
		Snap:          m.MetricsSnapshot(),
		SpansInFlight: m.Spans.InFlightCount(),
		QueueSum:      qsum,
		QueueMax:      qmax,
		Modes:         string(modes),
	}
	if m.Spans != nil {
		// Cumulative per-stage dwell totals over terminated spans: the
		// recorder diffs consecutive samples into per-interval dwell
		// columns ("d:<stage>"), so timelines show dwell drift. Only
		// present with a spans recorder installed — without one the
		// column set (and every existing CSV) is unchanged.
		totals := m.Spans.StageDwellTotals()
		s.Dwell = make(map[string]uint64, len(totals))
		for st, d := range totals {
			s.Dwell[spans.Stage(st).String()] = d
		}
	}
	return s
}

// FinishTelemetry closes the machine's recording with a final sample at
// the current time and returns the timeline. Harness collection calls it
// once per machine after the run; with telemetry disabled it returns an
// empty timeline at zero cost. Calling it again is a no-op returning the
// same timeline.
func (m *Machine) FinishTelemetry() telemetry.Timeline {
	if m.telemetry == nil {
		return telemetry.Timeline{}
	}
	return m.telemetry.Finish(m.telemetrySample())
}
