package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fugu/internal/harness"
	"fugu/internal/trace"
)

// TestResolvePoint covers inspect's experiment/point resolution.
func TestResolvePoint(t *testing.T) {
	opt := harness.NewOptions(harness.WithQuick(), harness.WithTrials(1))

	if _, _, _, err := resolvePoint("nonesuch", 0, false, opt); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown name: err = %v", err)
	}

	exp, pts, sel, err := resolvePoint("table4", 1, false, opt)
	if err != nil {
		t.Fatalf("table4 point 1: %v", err)
	}
	if exp.Name != "table4" || len(pts) != 3 {
		t.Fatalf("exp=%q with %d points, want table4 with 3", exp.Name, len(pts))
	}
	if sel == nil || sel.Label != pts[1].Label {
		t.Fatalf("selected %+v, want point 1 (%q)", sel, pts[1].Label)
	}

	for _, index := range []int{99, -1} {
		if _, _, sel, err := resolvePoint("table4", index, false, opt); err == nil || sel != nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Fatalf("index %d: sel=%v err = %v, want out of range", index, sel, err)
		}
	}

	// The -list path: enumeration only, no selection, whatever the index.
	_, pts, sel, err = resolvePoint("crlstress", -1, true, opt)
	if err != nil || sel != nil || len(pts) == 0 {
		t.Fatalf("list path: pts=%d sel=%v err=%v", len(pts), sel, err)
	}
}

// TestPrepareOutputPath covers inspect's -o safety contract: stdout always
// passes, a fresh path gets its directory created, an existing file is
// refused without -force and preserved, and -force permits the overwrite.
func TestPrepareOutputPath(t *testing.T) {
	if err := prepareOutputPath("-", false); err != nil {
		t.Errorf("stdout sentinel: %v", err)
	}
	if err := prepareOutputPath("", false); err != nil {
		t.Errorf("empty path: %v", err)
	}

	dir := t.TempDir()
	fresh := filepath.Join(dir, "sub", "report.txt")
	if err := prepareOutputPath(fresh, false); err != nil {
		t.Fatalf("fresh path: %v", err)
	}
	if fi, err := os.Stat(filepath.Dir(fresh)); err != nil || !fi.IsDir() {
		t.Fatalf("parent directory not created: %v", err)
	}

	existing := filepath.Join(dir, "report.txt")
	if err := os.WriteFile(existing, []byte("previous diagnosis"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := prepareOutputPath(existing, false)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("existing file without force: err = %v, want refusal", err)
	}
	if got, _ := os.ReadFile(existing); string(got) != "previous diagnosis" {
		t.Errorf("refusal clobbered the file: %q", got)
	}

	if err := prepareOutputPath(existing, true); err != nil {
		t.Errorf("existing file with -force: %v", err)
	}
}

// TestExpandNames covers `run`'s name resolution: aliases and "all" expand,
// duplicates drop, and any unknown name is an error before anything runs.
func TestExpandNames(t *testing.T) {
	cases := []struct {
		names   []string
		want    []string
		wantErr string
	}{
		{names: []string{"table4"}, want: []string{"table4"}},
		{names: []string{"fig7", "fig8", "fig7and8"}, want: []string{"fig7and8"}},
		{names: []string{"all", "table6"}, want: harness.Names()},
		{names: []string{"table6", "nosuch"}, wantErr: `unknown experiment "nosuch"`},
		{names: []string{"bench"}, wantErr: `unknown experiment "bench"`},
		// The replay subcommands inspect replaced read as unknown
		// experiments through the legacy spelling.
		{names: []string{"trace"}, wantErr: `unknown experiment "trace"`},
		{names: []string{"doctor"}, wantErr: `unknown experiment "doctor"`},
		{names: []string{"explain"}, wantErr: `unknown experiment "explain"`},
		{names: []string{"watch"}, wantErr: `unknown experiment "watch"`},
	}
	for _, tc := range cases {
		exps, err := expandNames(tc.names)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("expandNames(%q): err = %v, want %q", tc.names, err, tc.wantErr)
			}
			continue
		}
		var got []string
		for _, e := range exps {
			got = append(got, e.Name)
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("expandNames(%q) = %q, %v; want %q", tc.names, got, err, tc.want)
		}
	}
}

// TestReplayWritesTimeline replays table4 point 0 through inspect with
// -timeline and -metrics set: both timeline files must exist, and the
// per-interval counter deltas in the CSV must sum exactly to the point's
// metrics snapshot.
func TestReplayWritesTimeline(t *testing.T) {
	dir := t.TempDir()
	if _, code := inspectCmd([]string{"table4", "-with", "timeline", "-timeline", dir,
		"-timeline-cap", "65536", "-metrics", dir}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}

	for _, file := range []string{"table4.timeline.csv", "table4.timeline.jsonl", "table4.metrics.json"} {
		if fi, err := os.Stat(filepath.Join(dir, file)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", file, err)
		}
	}
	f, err := os.Open(filepath.Join(dir, "table4.timeline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("timeline has %d rows, want a header and intervals", len(rows))
	}
	sums := map[string]uint64{}
	for _, row := range rows[1:] {
		for i, col := range rows[0] {
			if !strings.HasPrefix(col, "c:") || row[i] == "" {
				continue
			}
			v, err := strconv.ParseUint(row[i], 10, 64)
			if err != nil {
				t.Fatalf("column %s: %v", col, err)
			}
			sums[strings.TrimPrefix(col, "c:")] += v
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "table4.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]uint64 }
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	for name, want := range snap.Counters {
		if sums[name] != want {
			t.Errorf("%s: interval deltas sum to %d, snapshot says %d", name, sums[name], want)
		}
	}
	for name := range sums {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("timeline counter %s absent from the snapshot", name)
		}
	}
}

// TestInspectSections replays table4 point 2 under each observer alone:
// every run exits 0 and its report carries that observer's section, and
// only the span recorder's tables appear without -with spans.
func TestInspectSections(t *testing.T) {
	cases := []struct {
		with string
		want []string
	}{
		{"spans", []string{"spans: OK", "stage-dwell waterfall", "dwell by (policy, stage, cause)",
			"destination-node heat", "hottest links", "slowest 2 message(s)"}},
		{"profile", []string{"engine cost profile (by schedule site)", "glaze.gang.tick"}},
		{"watchdog", []string{"watchdog: no stall (checked every 200000 cycles, grace 5)"}},
		{"timeline", []string{"Δfast", "timeline: ", "final: fast=2 buffered=0"}},
		{"trace", []string{"trace: ", "events recorded"}},
	}
	for _, tc := range cases {
		t.Run(tc.with, func(t *testing.T) {
			args := []string{"table4", "-point", "2", "-with", tc.with}
			if tc.with == "trace" {
				args = append(args, "-trace-out", filepath.Join(t.TempDir(), "t.json"))
			}
			report, code := inspectCmd(args, io.Discard, io.Discard)
			if code != 0 {
				t.Fatalf("exit %d, report:\n%s", code, report)
			}
			if !strings.HasPrefix(report, "inspect: table4 point 2 (impl=soft-atomicity) seed=0x1 -with "+tc.with+"\n") {
				t.Errorf("report header: %q", strings.SplitN(report, "\n", 2)[0])
			}
			for _, want := range tc.want {
				if !strings.Contains(report, want) {
					t.Errorf("report lacks %q:\n%s", want, report)
				}
			}
			if tc.with != "spans" && strings.Contains(report, "stage-dwell waterfall") {
				t.Errorf("-with %s printed the span tables", tc.with)
			}
		})
	}
}

// TestInspectUsageErrors: a bad -with list, a negative or out-of-range
// point, or an export flag without its observer exits 2 before anything
// runs.
func TestInspectUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-with", "nonesuch"},
		{"-with", ""},
		{"-with", "spans,,profile"},
		{"-with", "spans,"},
		{"-point", "-1"},
		{"-point", "3"},
		{"-with", "trace"},
		{"-trace-out", filepath.Join(t.TempDir(), "t.json")},
		{"-folded", filepath.Join(t.TempDir(), "f.txt")},
		{"-cats", "nonesuch", "-with", "trace", "-trace-out", filepath.Join(t.TempDir(), "t.json")},
		{"-cats", "message", "-with", "trace", "-trace-out", filepath.Join(t.TempDir(), "t.json")},
	} {
		var stderr strings.Builder
		report, code := inspectCmd(append([]string{"table4", "-point", "2"}, args...), io.Discard, &stderr)
		if code != 2 || report != "" {
			t.Errorf("%q: exit %d with report %q, want exit 2 and no report", args, code, report)
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: no error message", args)
		}
	}
}

// TestInspectTraceExport: -with trace writes a Chrome trace_event file that
// parses, and a .jsonl path gets one JSON object per line.
func TestInspectTraceExport(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "t.json")
	if _, code := inspectCmd([]string{"table4", "-point", "2", "-with", "trace", "-trace-out", chrome},
		io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome export has no events")
	}

	lines := filepath.Join(dir, "t.jsonl")
	if _, code := inspectCmd([]string{"table4", "-point", "2", "-with", "trace", "-trace-out", lines},
		io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	raw, err = os.ReadFile(lines)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, row := range rows {
		var ev map[string]any
		if err := json.Unmarshal([]byte(row), &ev); err != nil {
			t.Fatalf("JSON Lines row %q: %v", row, err)
		}
	}
	if len(rows) == 0 || rows[0] == "" {
		t.Error("JSON Lines export is empty")
	}
}

// FuzzInspectArgs fuzzes inspect's two list parsers, -with and -cats: neither
// may panic, and every accepted list must read back the same from its names.
func FuzzInspectArgs(f *testing.F) {
	f.Add("spans", "")
	f.Add("spans,profile,watchdog,timeline,trace", "mode,sched,overflow,span")
	f.Add(" trace , spans,trace", "mode, overflow")
	f.Add("", ",")
	f.Fuzz(func(t *testing.T, with, cats string) {
		if set, err := parseWith(with); err == nil {
			if set == 0 {
				t.Fatalf("parseWith(%q) accepted an empty set", with)
			}
			again, err := parseWith(set.String())
			if err != nil || again != set {
				t.Fatalf("parseWith(%q) = %v; its names %q read back as %v, %v", with, set, set.String(), again, err)
			}
		}
		if got, err := trace.ParseCats(cats); err == nil {
			names := make([]string, len(got))
			for i, c := range got {
				names[i] = c.String()
			}
			again, err := trace.ParseCats(strings.Join(names, ","))
			if err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("ParseCats(%q) = %v; its names read back as %v, %v", cats, got, again, err)
			}
		}
	})
}
