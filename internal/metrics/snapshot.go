package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// GaugeValue is the exported state of one gauge.
type GaugeValue struct {
	Cur int64 `json:"cur"`
	Max int64 `json:"max"`
}

// Bucket is one occupied histogram bucket; Le is the inclusive upper bound
// of the sample range it counts (Prometheus-style "less than or equal").
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramValue is the exported state of one histogram. Buckets lists only
// occupied buckets, sorted by bound.
type HistogramValue struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Value exports the histogram's state; a nil histogram exports the zero
// value.
func (h *Histogram) Value() HistogramValue {
	if h == nil {
		return HistogramValue{}
	}
	hv := HistogramValue{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n > 0 {
			hv.Buckets = append(hv.Buckets, Bucket{Le: BucketBound(i), Count: n})
		}
	}
	return hv
}

// Mean returns the histogram's average sample, 0 with no samples.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the pct-th percentile (pct in 1..100) as the upper bound
// of the bucket where the running count first reaches ceil(Count·pct/100),
// capped at Max when Max is known (nonzero), so no percentile reads above
// the largest sample. It is the simulator's one percentile rule: exact
// integers, deterministic, and conservative (a true p99 of 700 cycles
// reads 1023 unless the largest sample is smaller). An empty histogram
// reads 0, and a Sub delta, whose Max is 0, reads its bucket bound.
func (h HistogramValue) Quantile(pct uint64) uint64 {
	rank := (h.Count*pct + 99) / 100
	var seen uint64
	for _, bk := range h.Buckets {
		seen += bk.Count
		if seen >= rank {
			if h.Max > 0 {
				return min(bk.Le, h.Max)
			}
			return bk.Le
		}
	}
	return 0
}

// Sub returns the samples h holds beyond prev, an earlier value of the same
// histogram: count, sum and buckets subtract. Min and Max are left 0, since
// buckets cannot recover the extremes of the difference.
func (h HistogramValue) Sub(prev HistogramValue) HistogramValue {
	d := HistogramValue{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	old := prev.Buckets
	for _, bk := range h.Buckets {
		for len(old) > 0 && old[0].Le < bk.Le {
			old = old[1:]
		}
		if len(old) > 0 && old[0].Le == bk.Le {
			bk.Count -= old[0].Count
		}
		if bk.Count > 0 {
			d.Buckets = append(d.Buckets, bk)
		}
	}
	return d
}

// Snapshot is a point-in-time export of a registry — plain data, safe to
// retain after the machine that produced it is gone, and mergeable across
// nodes, trials and sweep points.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters"`
	Gauges     map[string]GaugeValue     `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// NewSnapshot returns an empty snapshot with allocated maps.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]GaugeValue{},
		Histograms: map[string]HistogramValue{},
	}
}

// Empty reports whether the snapshot holds no instruments at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Snapshot exports the registry's current state. A nil registry exports an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := NewSnapshot()
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Cur: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Value()
	}
	return s
}

// Merge folds any number of snapshots into one, deterministically whatever
// the argument order: counters and histogram contents sum; gauge levels sum
// (parts are disjoint instruments — per-node registries of one machine, or
// per-point machines) while gauge maxima take the maximum, so a merged
// high-water mark reports the worst single part, matching the paper's
// per-node "buffer pages" metric.
func Merge(parts ...Snapshot) Snapshot {
	out := NewSnapshot()
	for _, p := range parts {
		for name, v := range p.Counters {
			out.Counters[name] += v
		}
		for name, g := range p.Gauges {
			cur := out.Gauges[name]
			cur.Cur += g.Cur
			if g.Max > cur.Max {
				cur.Max = g.Max
			}
			out.Gauges[name] = cur
		}
		for name, h := range p.Histograms {
			out.Histograms[name] = mergeHist(out.Histograms[name], h)
		}
	}
	return out
}

// mergeHist combines two exported histograms bucket-wise.
func mergeHist(a, b HistogramValue) HistogramValue {
	if a.Count == 0 {
		return cloneHist(b)
	}
	if b.Count == 0 {
		return cloneHist(a)
	}
	m := HistogramValue{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   a.Min,
		Max:   a.Max,
	}
	if b.Min < m.Min {
		m.Min = b.Min
	}
	if b.Max > m.Max {
		m.Max = b.Max
	}
	byLe := map[uint64]uint64{}
	for _, bk := range a.Buckets {
		byLe[bk.Le] += bk.Count
	}
	for _, bk := range b.Buckets {
		byLe[bk.Le] += bk.Count
	}
	les := make([]uint64, 0, len(byLe))
	for le := range byLe {
		les = append(les, le)
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	for _, le := range les {
		m.Buckets = append(m.Buckets, Bucket{Le: le, Count: byLe[le]})
	}
	return m
}

// cloneHist deep-copies a histogram value so merged snapshots never alias
// their parts' bucket slices.
func cloneHist(h HistogramValue) HistogramValue {
	out := h
	out.Buckets = append([]Bucket(nil), h.Buckets...)
	return out
}

// JSON renders the snapshot as indented JSON with deterministically ordered
// keys (encoding/json sorts map keys).
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("metrics: snapshot marshal: %v", err)) // plain data: cannot fail
	}
	return append(b, '\n')
}

// CSVField escapes one CSV field per RFC 4180: fields containing a comma,
// quote or line break are quoted with embedded quotes doubled; everything
// else passes through unchanged (so well-behaved instrument names render
// byte-identically to the unescaped writer). The snapshot CSV and the
// telemetry timeline CSV share it.
func CSVField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders the snapshot as "metric,kind,field,value" rows sorted by
// metric name, one row per exported scalar and one per occupied histogram
// bucket (field "le_<bound>"). Metric names are escaped with CSVField.
func (s Snapshot) CSV() string {
	var b strings.Builder
	b.WriteString("metric,kind,field,value\n")
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s,counter,count,%d\n", CSVField(n), s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := s.Gauges[n]
		fmt.Fprintf(&b, "%s,gauge,cur,%d\n", CSVField(n), g.Cur)
		fmt.Fprintf(&b, "%s,gauge,max,%d\n", CSVField(n), g.Max)
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		e := CSVField(n)
		fmt.Fprintf(&b, "%s,histogram,count,%d\n", e, h.Count)
		fmt.Fprintf(&b, "%s,histogram,sum,%d\n", e, h.Sum)
		fmt.Fprintf(&b, "%s,histogram,min,%d\n", e, h.Min)
		fmt.Fprintf(&b, "%s,histogram,max,%d\n", e, h.Max)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%s,histogram,le_%d,%d\n", e, bk.Le, bk.Count)
		}
	}
	return b.String()
}
