// Latency anatomy: aggregation of per-stage dwell cycles over terminal
// spans. Where spans.Check answers "did every message terminate exactly
// once", the anatomy answers "where did a message's cycles go" — net-
// blocked vs queued vs buffered, broken down by delivery policy and by the
// cause that moved the message into each stage — plus per-node / per-link
// heat and a bounded table of the slowest messages with their full stage
// timelines. Everything here is fed by Recorder.End, so it shares the
// recorder's cost discipline: nothing simulated is charged, and a nil
// recorder aggregates nothing.

package spans

import (
	"sort"

	"fugu/internal/metrics"
)

// TopK bounds the slowest-message table a recorder retains.
const TopK = 32

// anatomyKey buckets dwell observations: one histogram per (delivery
// policy, pipeline stage, stage-entry cause).
type anatomyKey struct {
	policy string
	stage  Stage
	cause  string
}

// NodeHeat aggregates dwell by destination node: how long messages bound
// for this node spent in each stage.
type NodeHeat struct {
	Node  int
	Count uint64
	Dwell [NumStages]uint64
}

// LinkHeat aggregates end-to-end latency by (src, dst) pair.
type LinkHeat struct {
	Src, Dst int
	Count    uint64
	Latency  uint64 // summed end-to-end cycles
}

type linkKey struct{ src, dst int }

// anatomy is the recorder-internal aggregation state.
type anatomy struct {
	policy string

	hists      map[anatomyKey]*metrics.Histogram
	stageHists [NumStages]metrics.Histogram // merged across policy and cause
	stageDwell [NumStages]uint64            // total dwell per stage, terminal spans
	latencySum uint64
	terminated uint64

	nodes map[int]*NodeHeat
	links map[linkKey]*LinkHeat

	slowest []Span // latency desc, at most TopK entries
}

func (a *anatomy) dwellTotal() uint64 {
	var sum uint64
	for _, d := range a.stageDwell {
		sum += d
	}
	return sum
}

// observe folds a just-terminated span into the aggregates. Called from
// Recorder.End after the final dwell is closed.
func (a *anatomy) observe(s *Span) {
	a.terminated++
	a.latencySum += s.Latency()

	var visited uint8
	for _, ev := range s.History() {
		if visited&(1<<ev.Stage) != 0 {
			continue // anomalous stage revisit: dwell already aggregated
		}
		visited |= 1 << ev.Stage
		a.stageDwell[ev.Stage] += s.Dwell[ev.Stage]
		a.stageHists[ev.Stage].Observe(s.Dwell[ev.Stage])
		k := anatomyKey{a.policy, ev.Stage, ev.Cause}
		if a.hists == nil {
			a.hists = make(map[anatomyKey]*metrics.Histogram)
		}
		h := a.hists[k]
		if h == nil {
			h = &metrics.Histogram{}
			a.hists[k] = h
		}
		h.Observe(s.Dwell[ev.Stage])
	}

	if a.nodes == nil {
		a.nodes = make(map[int]*NodeHeat)
	}
	nh := a.nodes[s.Dst]
	if nh == nil {
		nh = &NodeHeat{Node: s.Dst}
		a.nodes[s.Dst] = nh
	}
	nh.Count++
	for st, d := range s.Dwell {
		nh.Dwell[st] += d
	}

	if a.links == nil {
		a.links = make(map[linkKey]*LinkHeat)
	}
	lk := linkKey{s.Src, s.Dst}
	lh := a.links[lk]
	if lh == nil {
		lh = &LinkHeat{Src: s.Src, Dst: s.Dst}
		a.links[lk] = lh
	}
	lh.Count++
	lh.Latency += s.Latency()

	a.noteSlow(s)
}

// noteSlow maintains the bounded slowest-span table: sorted by latency
// descending, ties broken by (epoch, id) so the table is deterministic.
func (a *anatomy) noteSlow(s *Span) {
	lat := s.Latency()
	if len(a.slowest) == TopK {
		last := &a.slowest[TopK-1]
		if lat < last.Latency() || (lat == last.Latency() && !beforeSpan(s, last)) {
			return
		}
	}
	i := sort.Search(len(a.slowest), func(i int) bool {
		o := &a.slowest[i]
		if o.Latency() != lat {
			return o.Latency() < lat
		}
		return beforeSpan(s, o)
	})
	if len(a.slowest) < TopK {
		a.slowest = append(a.slowest, Span{})
	}
	copy(a.slowest[i+1:], a.slowest[i:])
	a.slowest[i] = *s
}

func beforeSpan(a, b *Span) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	return a.ID < b.ID
}

// AnatomyRow is one rendered dwell-histogram bucket of the anatomy:
// dwell statistics for spans that entered stage via cause under policy.
type AnatomyRow struct {
	Policy string
	Stage  Stage
	Cause  string
	Count  uint64
	Sum    uint64
	Max    uint64
	P50    uint64
	P90    uint64
	P99    uint64
}

// Anatomy returns the per-(policy, stage, cause) dwell rows, sorted by
// (policy, stage, cause).
func (r *Recorder) Anatomy() []AnatomyRow {
	if r == nil || r.anatomy.hists == nil {
		return nil
	}
	out := make([]AnatomyRow, 0, len(r.anatomy.hists))
	for k, h := range r.anatomy.hists {
		v := h.Value()
		out = append(out, AnatomyRow{
			Policy: k.policy, Stage: k.stage, Cause: k.cause,
			Count: v.Count, Sum: v.Sum, Max: v.Max,
			P50: v.Quantile(50), P90: v.Quantile(90), P99: v.Quantile(99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Policy != out[j].Policy {
			return out[i].Policy < out[j].Policy
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

// StageHist returns the dwell histogram of one stage merged across
// policies and causes (only spans that visited the stage contribute).
func (r *Recorder) StageHist(st Stage) metrics.HistogramValue {
	if r == nil || st >= NumStages {
		return metrics.HistogramValue{}
	}
	return r.anatomy.stageHists[st].Value()
}

// StageDwellTotals returns the cumulative dwell cycles per stage over all
// terminal spans — the running totals the telemetry recorder samples to
// show dwell drift over time.
func (r *Recorder) StageDwellTotals() [NumStages]uint64 {
	if r == nil {
		return [NumStages]uint64{}
	}
	return r.anatomy.stageDwell
}

// LatencyTotal returns the summed end-to-end latency of terminal spans;
// by the conservation invariant it equals the sum of StageDwellTotals.
func (r *Recorder) LatencyTotal() uint64 {
	if r == nil {
		return 0
	}
	return r.anatomy.latencySum
}

// Terminated returns how many spans the anatomy has aggregated.
func (r *Recorder) Terminated() uint64 {
	if r == nil {
		return 0
	}
	return r.anatomy.terminated
}

// Slowest returns copies of the k slowest terminal spans (latency
// descending, deterministic tie-break); k > TopK is clamped.
func (r *Recorder) Slowest(k int) []Span {
	if r == nil || k <= 0 {
		return nil
	}
	if k > len(r.anatomy.slowest) {
		k = len(r.anatomy.slowest)
	}
	return append([]Span(nil), r.anatomy.slowest[:k]...)
}

// NodeHeats returns the per-destination-node dwell aggregates, sorted by
// node index.
func (r *Recorder) NodeHeats() []NodeHeat {
	if r == nil || r.anatomy.nodes == nil {
		return nil
	}
	out := make([]NodeHeat, 0, len(r.anatomy.nodes))
	for _, nh := range r.anatomy.nodes {
		out = append(out, *nh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// LinkHeats returns the per-(src, dst) latency aggregates, hottest first
// (by summed latency, ties by (src, dst)).
func (r *Recorder) LinkHeats() []LinkHeat {
	if r == nil || r.anatomy.links == nil {
		return nil
	}
	out := make([]LinkHeat, 0, len(r.anatomy.links))
	for _, lh := range r.anatomy.links {
		out = append(out, *lh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency > out[j].Latency
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
