package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fugu/internal/harness"
)

// TestResolvePoint covers the experiment/point resolution shared by the
// replay subcommands.
func TestResolvePoint(t *testing.T) {
	opt := harness.NewOptions(harness.WithQuick(), harness.WithTrials(1))

	if _, _, _, err := resolvePoint("nonesuch", 0, opt); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown name: err = %v", err)
	}

	exp, pts, sel, err := resolvePoint("table4", 1, opt)
	if err != nil {
		t.Fatalf("table4 point 1: %v", err)
	}
	if exp.Name != "table4" || len(pts) != 3 {
		t.Fatalf("exp=%q with %d points, want table4 with 3", exp.Name, len(pts))
	}
	if sel == nil || sel.Label != pts[1].Label {
		t.Fatalf("selected %+v, want point 1 (%q)", sel, pts[1].Label)
	}

	if _, _, _, err := resolvePoint("table4", 99, opt); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index: err = %v", err)
	}

	// A negative index is the -list path: enumeration only, no selection.
	_, pts, sel, err = resolvePoint("crlstress", pointIndex(5, true), opt)
	if err != nil || sel != nil || len(pts) == 0 {
		t.Fatalf("list path: pts=%d sel=%v err=%v", len(pts), sel, err)
	}
}

// TestPrepareOutputPath covers the doctor -o safety contract: stdout always
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

// TestReplayWritesTimeline replays table4 point 0 through the shared replay
// shell with -timeline and -metrics set: both timeline files must exist,
// and the per-interval counter deltas in the CSV must sum exactly to the
// point's metrics snapshot.
func TestReplayWritesTimeline(t *testing.T) {
	dir := t.TempDir()
	r := newReplay("watch")
	name := r.parse([]string{"table4", "-timeline", dir, "-timeline-cap", "65536", "-metrics", dir})
	p := r.run(name, nil)

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
	snap := p.res.(harness.MetricsCarrier).MetricsSnapshot()
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
