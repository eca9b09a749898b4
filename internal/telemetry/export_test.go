package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"fugu/internal/metrics"
)

// nastyTimeline builds a timeline whose instrument names contain CSV
// metacharacters, exercising the shared metrics.CSVField escaping.
func nastyTimeline() []LabeledTimeline {
	r := NewRecorder(Config{Every: 100})
	s := metrics.NewSnapshot()
	s.Counters[`evil,name`] = 3
	s.Counters[`quo"ted`] = 7
	s.Gauges["plain.gauge"] = metrics.GaugeValue{Cur: 2, Max: 5}
	tl := r.Finish(Sample{At: 100, Snap: s, Modes: "-b"})
	return []LabeledTimeline{{Point: 0, Label: `label, with "comma"`, Timeline: tl}}
}

// TestWriteCSVEscapingRoundTrip: the wide CSV must survive a standard RFC
// 4180 parse with metacharacters in instrument names and labels intact.
func TestWriteCSVEscapingRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, nastyTimeline()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("timeline CSV does not re-parse: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want header + 1 row", len(recs))
	}
	header, row := recs[0], recs[1]
	if len(header) != len(row) {
		t.Fatalf("header has %d fields, row has %d", len(header), len(row))
	}
	byCol := map[string]string{}
	for i, h := range header {
		byCol[h] = row[i]
	}
	if byCol[`c:evil,name`] != "3" || byCol[`c:quo"ted`] != "7" {
		t.Errorf("escaped counter columns lost: %v", byCol)
	}
	if byCol["g:plain.gauge.cur"] != "2" || byCol["g:plain.gauge.max"] != "5" {
		t.Errorf("gauge columns wrong: cur=%q max=%q", byCol["g:plain.gauge.cur"], byCol["g:plain.gauge.max"])
	}
	if byCol["label"] != `label, with "comma"` {
		t.Errorf("label round-tripped as %q", byCol["label"])
	}
	if byCol["modes"] != "-b" {
		t.Errorf("modes = %q, want -b", byCol["modes"])
	}
}

// TestWriteCSVDeterministic: identical inputs produce identical bytes, and
// instrument columns are the sorted union across points (empty cell where an
// instrument was silent at a point).
func TestWriteCSVDeterministic(t *testing.T) {
	mk := func(name string, v int) Timeline {
		r := NewRecorder(Config{Every: 100})
		s := metrics.NewSnapshot()
		s.Counters[name] = uint64(v)
		return r.Finish(Sample{At: 100, Snap: s})
	}
	tls := []LabeledTimeline{
		{Point: 0, Label: "p0", Timeline: mk("zed", 1)},
		{Point: 1, Label: "p1", Timeline: mk("alpha", 2)},
	}
	var a, b strings.Builder
	if err := WriteCSV(&a, tls); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, tls); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two WriteCSV calls over the same data differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if !strings.HasSuffix(lines[0], "c:alpha,c:zed") {
		t.Errorf("columns not the sorted union: %q", lines[0])
	}
	// Point 0 recorded only zed: its alpha cell must be empty, not zero.
	recs, err := csv.NewReader(strings.NewReader(a.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	alphaCol := len(recs[0]) - 2
	if recs[1][alphaCol] != "" {
		t.Errorf("silent instrument cell = %q, want empty", recs[1][alphaCol])
	}
}

// TestWriteJSONL: one JSON object per interval carrying the point identity
// and the promoted interval fields.
func TestWriteJSONL(t *testing.T) {
	var b strings.Builder
	if err := WriteJSONL(&b, nastyTimeline()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var rec struct {
		Point    int               `json:"point"`
		Label    string            `json:"label"`
		Cycle    uint64            `json:"cycle"`
		Modes    string            `json:"modes"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line does not parse: %v", err)
	}
	if rec.Cycle != 100 || rec.Modes != "-b" || rec.Counters[`evil,name`] != 3 {
		t.Errorf("record = %+v", rec)
	}
	if rec.Label != `label, with "comma"` {
		t.Errorf("label = %q", rec.Label)
	}
}
