package harness

import (
	"context"
	"fmt"
	"io"

	"fugu/internal/apps"
	"fugu/internal/glaze"
	"fugu/internal/plot"
)

// Fig78Result holds the shared sweep behind Figures 7 and 8: every
// application multiprogrammed against null across scheduler skews.
type Fig78Result struct {
	Skews []float64
	// Runs[app][skewIndex]
	Runs map[string][]RunStats
	Apps []string
}

// Fig7Skews returns the schedule-quality sweep (fraction of the quantum by
// which node clocks are skewed).
func Fig7Skews(quick bool) []float64 {
	if quick {
		return []float64{0, 0.01, 0.04, 0.08}
	}
	return []float64{0, 0.005, 0.01, 0.02, 0.04, 0.08}
}

// Fig7and8 runs the sweep. Figure 7 reads the buffered fraction, Figure 8
// the runtime relative to zero skew; both also expose the max physical
// buffer pages per node (the paper's "less than seven pages" observation).
func Fig7and8(opts ...Option) (Fig78Result, error) {
	return runAs[Fig78Result]("fig7and8", opts...)
}

// fig7and8Experiment fans out one point per (application, skew, trial).
func fig7and8Experiment() *Experiment {
	return &Experiment{
		Name:        "fig7and8",
		Description: "buffered fraction and relative runtime vs scheduler skew",
		Points: func(opt Options) []Point {
			skews := Fig7Skews(opt.Quick)
			var pts []Point
			for _, mk := range AppMakers(opt.Quick) {
				name := mk().Name()
				for _, skew := range skews {
					for trial := 0; trial < opt.trials(); trial++ {
						pts = append(pts, Point{
							Label: fmt.Sprintf("%s skew=%.1f%% trial=%d", name, skew*100, trial),
							Run: func(_ context.Context, opt Options) (any, error) {
								return RunMultiprogrammedQ(mk, skew, opt.TrialSeed(trial), opt.QuantumFor(), opt.machineMut(nil)), nil
							},
						})
					}
				}
			}
			return pts
		},
		Assemble: func(opt Options, results []any) (Result, error) {
			res := Fig78Result{Skews: Fig7Skews(opt.Quick), Runs: map[string][]RunStats{}}
			groups := groupTrials(results, opt.trials())
			g := 0
			for _, mk := range AppMakers(opt.Quick) {
				name := mk().Name()
				res.Apps = append(res.Apps, name)
				for range res.Skews {
					res.Runs[name] = append(res.Runs[name], averageStats(groups[g]))
					g++
				}
			}
			return res, nil
		},
	}
}

// Print renders both figures the shared sweep backs.
func (r Fig78Result) Print(w io.Writer) {
	r.Print7(w)
	r.Print8(w)
}

// Print7 renders Figure 7: percentage of messages traversing the buffered
// path versus decreasing schedule quality.
func (r Fig78Result) Print7(w io.Writer) {
	var series []plot.Series
	rows := make([][]string, 0)
	for _, app := range r.Apps {
		s := plot.Series{Name: app}
		for i, skew := range r.Skews {
			run := r.Runs[app][i]
			s.X = append(s.X, skew*100)
			s.Y = append(s.Y, run.BufferedPct)
			rows = append(rows, []string{app, fmt.Sprintf("%.1f%%", skew*100),
				pct(run.BufferedPct), u(run.Buffered), u(run.Msgs),
				fmt.Sprintf("%d", run.MaxBufferPages), errStr(run.Err)})
		}
		series = append(series, s)
	}
	fmt.Fprintln(w, plot.Line("Figure 7: % messages buffered vs scheduler skew",
		"skew (% of quantum)", "% buffered", series, 60, 16))
	fmt.Fprintln(w, plot.Table(
		[]string{"app", "skew", "%buffered", "buffered", "msgs", "maxpages/node", "check"}, rows))
	fmt.Fprintln(w, "paper: synchronizing apps flat, enum linear in skew; all < 7 pages/node")
}

// Print8 renders Figure 8: runtime normalized to the zero-skew run.
func (r Fig78Result) Print8(w io.Writer) {
	var series []plot.Series
	rows := make([][]string, 0)
	for _, app := range r.Apps {
		base := float64(r.Runs[app][0].Runtime)
		s := plot.Series{Name: app}
		for i, skew := range r.Skews {
			rel := float64(r.Runs[app][i].Runtime) / base
			s.X = append(s.X, skew*100)
			s.Y = append(s.Y, rel)
			rows = append(rows, []string{app, fmt.Sprintf("%.1f%%", skew*100),
				fmt.Sprintf("%.3f", rel), mcyc(r.Runs[app][i].Runtime)})
		}
		series = append(series, s)
	}
	fmt.Fprintln(w, plot.Line("Figure 8: relative runtime vs scheduler skew",
		"skew (% of quantum)", "runtime / zero-skew runtime", series, 60, 16))
	fmt.Fprintln(w, plot.Table([]string{"app", "skew", "relative", "runtime"}, rows))
	fmt.Fprintln(w, "paper: barrier most sensitive (~1/(1-skew)), enum least; others intermediate")
}

// SynthSweepResult is a synth-N sweep of one quantity (Figures 9 and 10).
type SynthSweepResult struct {
	// X is the swept quantity: the send interval T_betw (Figure 9) or the
	// cycles added to the buffered-path cost (Figure 10).
	X  []uint64
	Ns []int
	// Pct[nIndex][xIndex] = % buffered on the consumer side.
	Pct  [][]float64
	Errs []error

	sweep *synthSweep
}

// Fig9 reproduces: % messages buffered vs send interval, synth-N at 1%
// scheduler skew, T_hand fixed (~290 cycles with overheads).
func Fig9(opts ...Option) (SynthSweepResult, error) {
	return runAs[SynthSweepResult]("fig9", opts...)
}

// Fig10 reproduces: % messages buffered vs artificial additions to the
// buffer-insert handler cost, at T_betw = 275 cycles and 1% skew.
func Fig10(opts ...Option) (SynthSweepResult, error) {
	return runAs[SynthSweepResult]("fig10", opts...)
}

// synthNs are the synth-N sizes Figures 9 and 10 sweep.
var synthNs = []int{10, 100, 1000}

// synthGroups keeps the total requests per node constant across synth-N
// sizes (12,000 full scale, 4,000 quick).
func synthGroups(n int, quick bool) int {
	total := 12000
	if quick {
		total = 4000
	}
	return max(1, total/n)
}

// synthSweep defines one synth-N sweep figure. Figures 9 and 10 run the
// same machine (synth-N against null at 1% skew) and differ only in the
// swept quantity x and in their labels.
type synthSweep struct {
	name, description string
	key               string // x's name in point labels
	xs                func(quick bool) []uint64
	// extraCost selects what x sets: the buffered-path cost addition
	// (Cost.ExtraBufferCost, at T_betw = 275) rather than the synth send
	// interval.
	extraCost bool

	title, axis, column, csvColumn string
	paper                          string // the paper's expectation
}

var fig9Sweep = &synthSweep{
	name:        "fig9",
	description: "buffered fraction vs send interval for synth-N at 1% skew",
	key:         "tbetw",
	xs: func(quick bool) []uint64 {
		if quick {
			return []uint64{100, 150, 275, 600}
		}
		return []uint64{100, 150, 200, 275, 400, 600, 900, 1300}
	},
	title:     "Figure 9: % messages buffered vs send interval (1% skew)",
	axis:      "T_betw (cycles)",
	column:    "T_betw",
	csvColumn: "t_betw",
	paper:     "paper: small once T_betw > T_hand + buffering overhead; smaller N buffers less",
}

var fig10Sweep = &synthSweep{
	name:        "fig10",
	description: "buffered fraction vs added buffered-path cost for synth-N",
	key:         "extra",
	xs: func(quick bool) []uint64 {
		if quick {
			return []uint64{0, 200, 800}
		}
		return []uint64{0, 100, 200, 400, 800, 1600}
	},
	extraCost: true,
	title:     "Figure 10: % messages buffered vs added buffered-path cost (T_betw=275, 1% skew)",
	axis:      "added insert cost (cycles)",
	column:    "extra cost",
	csvColumn: "extra_insert_cost",
	paper: "paper: synth-10 stays small; larger N climbs once the buffered path\n" +
		"cannot keep up with the send rate",
}

// experiment fans out one point per (synth-N, x, trial).
func (s *synthSweep) experiment() *Experiment {
	return &Experiment{
		Name:        s.name,
		Description: s.description,
		Points: func(opt Options) []Point {
			var pts []Point
			for _, n := range synthNs {
				for _, x := range s.xs(opt.Quick) {
					tBetw := x
					var mut func(*glaze.Config)
					if s.extraCost {
						tBetw, mut = 275, func(cfg *glaze.Config) { cfg.Cost.ExtraBufferCost = x }
					}
					for trial := 0; trial < opt.trials(); trial++ {
						pts = append(pts, Point{
							Label: fmt.Sprintf("synth-%d %s=%d trial=%d", n, s.key, x, trial),
							Run: func(_ context.Context, opt Options) (any, error) {
								return RunMultiprogrammedQ(
									func() apps.Instance { return apps.NewSynth(n, synthGroups(n, opt.Quick), tBetw) },
									0.01, opt.TrialSeed(trial), Quantum, opt.machineMut(mut)), nil
							},
						})
					}
				}
			}
			return pts
		},
		Assemble: func(opt Options, results []any) (Result, error) {
			res := SynthSweepResult{X: s.xs(opt.Quick), Ns: synthNs, sweep: s}
			groups := groupTrials(results, opt.trials())
			g := 0
			for range res.Ns {
				var row []float64
				for range res.X {
					avg := averageStats(groups[g])
					g++
					if avg.Err != nil {
						res.Errs = append(res.Errs, avg.Err)
					}
					row = append(row, avg.BufferedPct)
				}
				res.Pct = append(res.Pct, row)
			}
			return res, nil
		},
	}
}

// Print renders the figure.
func (r SynthSweepResult) Print(w io.Writer) {
	var series []plot.Series
	rows := [][]string{}
	for i, n := range r.Ns {
		s := plot.Series{Name: fmt.Sprintf("synth-%d", n)}
		for j, x := range r.X {
			s.X = append(s.X, float64(x))
			s.Y = append(s.Y, r.Pct[i][j])
			rows = append(rows, []string{s.Name, u(x), pct(r.Pct[i][j])})
		}
		series = append(series, s)
	}
	fmt.Fprintln(w, plot.Line(r.sweep.title, r.sweep.axis, "% buffered", series, 60, 16))
	fmt.Fprintln(w, plot.Table([]string{"app", r.sweep.column, "%buffered"}, rows))
	fmt.Fprintln(w, r.sweep.paper)
	for _, err := range r.Errs {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", err)
	}
}

func errStr(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
