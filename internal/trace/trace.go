// Package trace is the simulator's structured event log: a bounded ring of
// timestamped events with per-category enables. The kernel records
// delivery-mode transitions, revocations, context switches and overflow
// events through it, so a surprising run can be replayed and inspected
// (`fugusim inspect -with trace` exports it as a Chrome trace_event timeline
// or JSONL).
package trace

import "fmt"

// Category classifies events; categories are enabled independently.
type Category int

// Event categories.
const (
	Mode     Category = iota // buffered-mode entry/exit, revocation
	Sched                    // context switches, gang ticks
	Overflow                 // overflow-control trips and releases
	Span                     // message-lifecycle span events (very verbose)
	numCategories
)

func (c Category) String() string {
	switch c {
	case Mode:
		return "mode"
	case Sched:
		return "sched"
	case Overflow:
		return "overflow"
	case Span:
		return "span"
	default:
		return fmt.Sprintf("cat(%d)", int(c))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At   uint64
	Node int
	Cat  Category
	What string
}

// Log is a bounded ring of events. The zero value is a disabled log; use
// New to size and enable one.
type Log struct {
	enabled [numCategories]bool
	ring    []Event
	next    int
	total   uint64
	full    bool
}

// New returns a log holding the last cap events, with no categories
// enabled yet.
func New(cap int) *Log {
	if cap < 1 {
		cap = 1
	}
	return &Log{ring: make([]Event, 0, cap)}
}

// Enable turns recording on for the categories.
func (l *Log) Enable(cats ...Category) {
	for _, c := range cats {
		l.enabled[c] = true
	}
}

// Enabled reports whether a category records. A nil log records nothing,
// so call sites can trace unconditionally.
func (l *Log) Enabled(c Category) bool {
	return l != nil && l.enabled[c]
}

// Add records an event if its category is enabled.
func (l *Log) Add(at uint64, node int, cat Category, format string, args ...any) {
	if !l.Enabled(cat) {
		return
	}
	ev := Event{At: at, Node: node, Cat: cat, What: fmt.Sprintf(format, args...)}
	l.total++
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
		return
	}
	l.full = true
	l.ring[l.next] = ev
	l.next = (l.next + 1) % cap(l.ring)
}

// Total reports how many events were recorded over the log's lifetime
// (including ones the ring has since dropped).
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Events returns the retained events in chronological order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	if !l.full {
		out := make([]Event, len(l.ring))
		copy(out, l.ring)
		return out
	}
	out := make([]Event, 0, cap(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}
