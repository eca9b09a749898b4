package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseCats(t *testing.T) {
	got, err := ParseCats("mode, overflow")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Category{Mode, Overflow}) {
		t.Errorf("ParseCats = %v", got)
	}
	all, err := ParseCats("")
	if err != nil || len(all) != int(numCategories) {
		t.Errorf("empty ParseCats = %v, %v", all, err)
	}
	if _, err := ParseCats("bogus"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestWriteChromeTraceIsLoadableJSON(t *testing.T) {
	l := New(16)
	l.Enable(Mode, Overflow)
	l.Add(100, 0, Mode, "enter buffered %s", "barnes")
	l.Add(250, 3, Overflow, "trip %s", "barnes")
	l.Add(400, 0, Mode, "exit buffered barnes")

	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
			PID   int    `json:"pid"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var instants, metadata int
	for _, ev := range parsed.TraceEvents {
		switch ev.Phase {
		case "i":
			instants++
		case "M":
			metadata++
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if instants != 3 {
		t.Errorf("instants = %d, want 3", instants)
	}
	// Two distinct (node, cat) tracks, two metadata records each.
	if metadata != 4 {
		t.Errorf("metadata records = %d, want 4", metadata)
	}
	last := parsed.TraceEvents[len(parsed.TraceEvents)-1]
	if last.Name != "exit buffered barnes" || last.TS != 400 || last.PID != 0 || last.Cat != "mode" {
		t.Errorf("last event = %+v", last)
	}
}

func TestWriteChromeTraceReportsDropped(t *testing.T) {
	l := New(2)
	l.Enable(Categories()...)
	for i := 0; i < 5; i++ {
		l.Add(uint64(i), 0, Sched, "e%d", i)
	}
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 earlier events dropped") {
		t.Errorf("no dropped marker in %s", buf.String())
	}
	if l.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", l.Dropped())
	}
}

func TestWriteJSONL(t *testing.T) {
	l := New(8)
	l.Enable(Categories()...)
	l.Add(7, 1, Mode, "a")
	l.Add(9, 2, Sched, "b")
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2: %q", len(lines), buf.String())
	}
	var ev jsonlEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.At != 9 || ev.Node != 2 || ev.Cat != "sched" || ev.What != "b" {
		t.Errorf("event = %+v", ev)
	}
}

func TestEmptyLogExports(t *testing.T) {
	l := New(4)
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	buf.Reset()
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty JSONL = %q", buf.String())
	}
}
