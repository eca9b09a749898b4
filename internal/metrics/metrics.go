// Package metrics is the simulator's observability core: a registry of
// named instruments — counters, gauges and bounded log2-bucket histograms —
// that every simulator layer (sim, mesh, nic, glaze, udm, crl) records into.
//
// The hot path is allocation-free: instruments are looked up once, at
// construction time, and recording is a plain field update on the returned
// pointer. All instrument methods are nil-safe no-ops, so a layer wired to a
// nil Registry (unit tests, standalone use) records nothing at zero cost
// beyond a predictable branch.
//
// The simulation engine is single-threaded per machine, so instruments are
// deliberately unsynchronized; independent machines (parallel sweep points)
// each carry their own registries and are merged after the fact through
// Snapshot and Merge, which are deterministic regardless of merge order.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add accumulates n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level that also remembers its lifetime maximum
// (the high-water mark the paper's buffer measurements are built on).
type Gauge struct {
	cur, max int64
}

// Set installs a new level, advancing the maximum.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.cur = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the level by delta and returns the new level.
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	g.Set(g.cur + delta)
	return g.cur
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.cur
}

// Max returns the lifetime maximum level.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// NumBuckets is the fixed histogram bucket count: bucket 0 holds exact
// zeros and bucket i (1..64) holds values in [2^(i-1), 2^i - 1].
const NumBuckets = 65

// Histogram is a bounded log2-bucket histogram of uint64 samples (cycle
// counts, latencies). Observation is allocation-free: a fixed bucket array
// plus count/sum/min/max.
type Histogram struct {
	count, sum uint64
	min, max   uint64
	buckets    [NumBuckets]uint64
}

// bucketOf maps a sample to its bucket index: 0 for 0, else floor(log2 v)+1.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return (uint64(1) << uint(i)) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry is a named set of instruments. Instrument constructors are
// get-or-create: asking twice for the same name returns the same instrument;
// asking for a name already registered as a different kind panics (a
// programming error, like a duplicate experiment name).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// checkKind panics if name is already registered under another kind.
func (r *Registry) checkKind(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("metrics: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.checkKind(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.checkKind(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.checkKind(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Names returns every registered instrument name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
