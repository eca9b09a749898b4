package harness

import (
	"context"
	"fmt"
	"io"

	"fugu/internal/plot"
)

// Table6Paper holds the paper's published characterization for comparison.
var Table6Paper = map[string]struct {
	Cycles string
	Msgs   string
	TBetw  string
	THand  string
}{
	"barnes":  {"45.7M", "107,849", "3390", "337"},
	"water":   {"47.6M", "36,303", "10,500", "419"},
	"lu":      {"13.4M", "7,564", "14,200", "478"},
	"barrier": {"18.5M", "240,177", "615", "149"},
	"enum":    {"72.7M", "610,148", "953", "320"},
}

// Table6Result is the measured application characterization.
type Table6Result struct {
	Rows []RunStats
}

// Table6 runs every application standalone on eight nodes and reports the
// paper's characterization columns.
func Table6(opts ...Option) (Table6Result, error) {
	return runAs[Table6Result]("table6", opts...)
}

// table6Experiment fans out one point per (application, trial) pair.
func table6Experiment() *Experiment {
	return &Experiment{
		Name:        "table6",
		Description: "application characteristics, standalone on 8 nodes",
		Points: func(opt Options) []Point {
			var pts []Point
			for _, mk := range AppMakers(opt.Quick) {
				name := mk().Name()
				for trial := 0; trial < opt.trials(); trial++ {
					pts = append(pts, Point{
						Label: fmt.Sprintf("%s trial=%d", name, trial),
						Run: func(_ context.Context, opt Options) (any, error) {
							return RunStandaloneMut(mk, opt.TrialSeed(trial), opt.machineMut(nil)), nil
						},
					})
				}
			}
			return pts
		},
		Assemble: func(opt Options, results []any) (Result, error) {
			var res Table6Result
			for _, group := range groupTrials(results, opt.trials()) {
				res.Rows = append(res.Rows, averageStats(group))
			}
			return res, nil
		},
	}
}

// groupTrials slices a flat index-keyed result list into consecutive
// trial groups of the given size, converting each entry to RunStats.
func groupTrials(results []any, trials int) [][]RunStats {
	var groups [][]RunStats
	for i := 0; i < len(results); i += trials {
		runs := make([]RunStats, 0, trials)
		for _, r := range results[i : i+trials] {
			runs = append(runs, r.(RunStats))
		}
		groups = append(groups, runs)
	}
	return groups
}

// Print renders the table with the paper's values interleaved.
func (r Table6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 6: application characteristics, standalone on 8 nodes")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		p := Table6Paper[row.App]
		rows = append(rows, []string{
			row.App, row.Model,
			mcyc(row.Runtime), p.Cycles,
			u(row.Msgs), p.Msgs,
			f1(row.TBetw), p.TBetw,
			f1(row.THand), p.THand,
		})
		if row.Err != nil {
			rows = append(rows, []string{"", "", "", "", "", "", "", "", "CHECK FAILED:", row.Err.Error()})
		}
	}
	fmt.Fprintln(w, plot.Table(
		[]string{"App", "Model", "Cycles", "(paper)", "Msgs", "(paper)", "T_betw", "(paper)", "T_hand", "(paper)"},
		rows))
	fmt.Fprintln(w, "note: sizes differ in quick mode and enum runs 5 pegs/side (DESIGN.md);")
	fmt.Fprintln(w, "compare shapes (orderings, ratios), not absolute values.")
}
