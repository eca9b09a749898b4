package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Categories returns every event category in declaration order.
func Categories() []Category {
	cats := make([]Category, 0, int(numCategories))
	for c := Category(0); c < numCategories; c++ {
		cats = append(cats, c)
	}
	return cats
}

// ParseCats resolves a comma-separated category list ("mode,sched") to
// categories. An empty string selects every category.
func ParseCats(s string) ([]Category, error) {
	if strings.TrimSpace(s) == "" {
		return Categories(), nil
	}
	var out []Category
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for _, c := range Categories() {
			if c.String() == part {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("trace: unknown category %q (have %v)", part, Categories())
		}
	}
	return out, nil
}

// chromeEvent is one entry of the Chrome trace_event format ("JSON Object
// Format" with a traceEvents array), loadable in chrome://tracing and
// Perfetto. Simulated cycles are reported as microseconds — both viewers
// treat ts as a unitless microsecond axis, so one tick reads as one cycle.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    uint64            `json:"ts"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the retained events as Chrome trace_event JSON.
// Every simulated node becomes a "process" and every category a "thread"
// within it, so the viewer groups a node's mode transitions, scheduling and
// overflow activity into adjacent tracks. Events are instants (phase "i",
// thread scope); the dropped-event count, if any, is recorded as a metadata
// instant at the start of the retained window.
func (l *Log) WriteChromeTrace(w io.Writer) error {
	evs := l.Events()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(evs)+8)}

	// Name the tracks: seen (node, cat) pairs become labelled pid/tid rows.
	type track struct{ node, cat int }
	seen := map[track]bool{}
	for _, e := range evs {
		tr := track{e.Node, int(e.Cat)}
		if seen[tr] {
			continue
		}
		seen[tr] = true
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "process_name", Phase: "M", PID: e.Node,
				Args: map[string]string{"name": fmt.Sprintf("node %d", e.Node)}},
			chromeEvent{Name: "thread_name", Phase: "M", PID: e.Node, TID: int(e.Cat),
				Args: map[string]string{"name": e.Cat.String()}})
	}
	if dropped := l.Dropped(); dropped > 0 {
		var first uint64
		if len(evs) > 0 {
			first = evs[0].At
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("%d earlier events dropped by the ring", dropped),
			Cat:  "trace", Phase: "i", TS: first, Scope: "g",
		})
	}
	for _, e := range evs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  e.What,
			Cat:   e.Cat.String(),
			Phase: "i",
			TS:    e.At,
			PID:   e.Node,
			TID:   int(e.Cat),
			Scope: "t",
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// jsonlEvent is the structured per-line form WriteJSONL emits.
type jsonlEvent struct {
	At   uint64 `json:"at"`
	Node int    `json:"node"`
	Cat  string `json:"cat"`
	What string `json:"what"`
}

// WriteJSONL renders the retained events as JSON Lines, one event object
// per line in chronological order.
func (l *Log) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Events() {
		if err := enc.Encode(jsonlEvent{At: e.At, Node: e.Node, Cat: e.Cat.String(), What: e.What}); err != nil {
			return err
		}
	}
	return nil
}

// Dropped reports how many recorded events the ring has since overwritten.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.total - uint64(len(l.Events()))
}
