// Package stats provides the small counter types the simulator layers use to
// report the quantities the paper's evaluation measures: per-path message
// counts and simple averages.
package stats

import "fmt"

// Delivery tallies how messages reached an application: directly from the
// network interface (the fast case) or via the software buffer (the slow
// case). This is the quantity behind Figures 7, 9 and 10.
type Delivery struct {
	Fast     uint64 // upcall or poll straight from the NI
	Buffered uint64 // inserted into and handled from the virtual buffer
}

// Total returns all delivered messages.
func (d Delivery) Total() uint64 { return d.Fast + d.Buffered }

// BufferedPct returns the percentage of messages that took the buffered
// path, 0 if none were delivered.
func (d Delivery) BufferedPct() float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(d.Buffered) / float64(t)
}

// Add accumulates another tally.
func (d *Delivery) Add(o Delivery) {
	d.Fast += o.Fast
	d.Buffered += o.Buffered
}

func (d Delivery) String() string {
	return fmt.Sprintf("fast=%d buffered=%d (%.2f%%)", d.Fast, d.Buffered, d.BufferedPct())
}

// Mean is a streaming average.
type Mean struct {
	Sum   float64
	Count uint64
}

// Observe adds a sample.
func (m *Mean) Observe(v float64) {
	m.Sum += v
	m.Count++
}

// Value returns the mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}
