package telemetry

import (
	"strings"
	"testing"
)

// dwell builds a cumulative per-stage dwell map.
func dwell(pairs ...any) map[string]uint64 {
	m := make(map[string]uint64)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = uint64(pairs[i+1].(int))
	}
	return m
}

// TestDwellDeltas: samples carry cumulative stage-dwell totals; intervals
// carry the per-interval deltas, omitting stages that did not move, and the
// deltas sum back to the final cumulative totals.
func TestDwellDeltas(t *testing.T) {
	r := NewRecorder(Config{Every: 100})
	r.Record(Sample{At: 100, Snap: snap("a", 1), Dwell: dwell("queued", 40, "buffered", 0)})
	r.Record(Sample{At: 200, Snap: snap("a", 2), Dwell: dwell("queued", 90, "buffered", 30)})
	tl := r.Finish(Sample{At: 300, Snap: snap("a", 3), Dwell: dwell("queued", 90, "buffered", 55)})

	if len(tl.Intervals) != 3 {
		t.Fatalf("got %d intervals, want 3", len(tl.Intervals))
	}
	if d := tl.Intervals[0].Dwell["queued"]; d != 40 {
		t.Errorf("interval 0 Δqueued = %d, want 40", d)
	}
	if _, ok := tl.Intervals[0].Dwell["buffered"]; ok {
		t.Errorf("interval 0 carries zero-delta buffered dwell")
	}
	if d := tl.Intervals[1].Dwell["queued"]; d != 50 {
		t.Errorf("interval 1 Δqueued = %d, want 50", d)
	}
	if d := tl.Intervals[1].Dwell["buffered"]; d != 30 {
		t.Errorf("interval 1 Δbuffered = %d, want 30", d)
	}
	if _, ok := tl.Intervals[2].Dwell["queued"]; ok {
		t.Errorf("closing interval carries zero-delta queued dwell")
	}
	sums := map[string]uint64{}
	for _, iv := range tl.Intervals {
		for name, d := range iv.Dwell {
			sums[name] += d
		}
	}
	if sums["queued"] != 90 || sums["buffered"] != 55 {
		t.Errorf("dwell deltas sum to %v, want queued=90 buffered=55", sums)
	}
}

// TestDwellFoldsIntoSameCycleInterval: a Finish on the same cycle as the
// last sample folds its residual dwell into that interval instead of
// emitting a duplicate-cycle record.
func TestDwellFoldsIntoSameCycleInterval(t *testing.T) {
	r := NewRecorder(Config{Every: 100})
	r.Record(Sample{At: 100, Snap: snap("a", 1), Dwell: dwell("queued", 10)})
	tl := r.Finish(Sample{At: 100, Snap: snap("a", 1), Dwell: dwell("queued", 25)})
	if len(tl.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1 (same-cycle fold)", len(tl.Intervals))
	}
	if d := tl.Intervals[0].Dwell["queued"]; d != 25 {
		t.Errorf("folded Δqueued = %d, want 25", d)
	}
}

// TestDwellCSVColumns: timelines carrying dwell grow "d:<stage>" columns;
// timelines without any dwell keep the pre-anatomy column set, so existing
// exports stay byte-identical.
func TestDwellCSVColumns(t *testing.T) {
	r := NewRecorder(Config{Every: 100})
	tl := r.Finish(Sample{At: 100, Snap: snap("a", 2), Dwell: dwell("queued", 7)})
	var b strings.Builder
	if err := WriteCSV(&b, []LabeledTimeline{{Label: "p", Timeline: tl}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.Contains(lines[0], "d:queued") {
		t.Errorf("header missing d:queued column: %s", lines[0])
	}
	if !strings.Contains(lines[1], "7") {
		t.Errorf("row missing dwell value: %s", lines[1])
	}

	// No spans recorder -> no Dwell maps -> no d: columns at all.
	r2 := NewRecorder(Config{Every: 100})
	tl2 := r2.Finish(Sample{At: 100, Snap: snap("a", 2)})
	var b2 strings.Builder
	if err := WriteCSV(&b2, []LabeledTimeline{{Label: "p", Timeline: tl2}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b2.String(), "d:") {
		t.Errorf("dwell-free timeline grew d: columns: %s", b2.String())
	}
}
