package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"fugu/internal/plot"
)

// CSV renders the Table 4 cost-model rows and measurements.
func (r Table4Result) CSV() string {
	rows := make([][]string, 0, len(r.Rows)+2)
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Item, u(row.Kernel), u(row.Hard), u(row.Soft)})
	}
	rows = append(rows,
		[]string{"measured interrupt total", u(r.MeasuredIntr[0]), u(r.MeasuredIntr[1]), u(r.MeasuredIntr[2])},
		[]string{"measured polling total", u(r.MeasuredPoll[0]), u(r.MeasuredPoll[1]), u(r.MeasuredPoll[2])})
	return plot.CSV([]string{"item", "kernel", "hard_atomicity", "soft_atomicity"}, rows)
}

// CSVFiles implements CSVer.
func (r Table4Result) CSVFiles() map[string]string {
	return map[string]string{"table4.csv": r.CSV()}
}

// CSV renders the Table 5 buffered-path measurements.
func (r Table5Result) CSV() string {
	return plot.CSV([]string{"item", "configured", "measured"}, [][]string{
		{"buffer_insert_min", u(r.InsertMin), f1(r.MeasuredInsertMean)},
		{"buffer_insert_vmalloc", u(r.InsertVMAlloc), fmt.Sprintf("%d/%d", r.VMAllocs, r.Inserts)},
		{"buffered_null_handler", u(r.Extract), f1(r.MeasuredExtractMean)},
	})
}

// CSVFiles implements CSVer.
func (r Table5Result) CSVFiles() map[string]string {
	return map[string]string{"table5.csv": r.CSV()}
}

// CSV renders the Table 6 characterization as comma-separated values.
func (r Table6Result) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App, row.Model, u(row.Runtime), u(row.Msgs),
			fmt.Sprintf("%.1f", row.TBetw), fmt.Sprintf("%.1f", row.THand),
			errStr(row.Err),
		})
	}
	return plot.CSV([]string{"app", "model", "cycles", "msgs", "t_betw", "t_hand", "check"}, rows)
}

// CSVFiles implements CSVer.
func (r Table6Result) CSVFiles() map[string]string {
	return map[string]string{"table6.csv": r.CSV()}
}

// CSV7 renders the Figure 7 sweep (buffered fraction and buffer pages).
func (r Fig78Result) CSV7() string {
	var rows [][]string
	for _, app := range r.Apps {
		for i, skew := range r.Skews {
			run := r.Runs[app][i]
			rows = append(rows, []string{
				app, fmt.Sprintf("%.3f", skew),
				fmt.Sprintf("%.4f", run.BufferedPct),
				u(run.Buffered), u(run.Msgs),
				fmt.Sprintf("%d", run.MaxBufferPages),
			})
		}
	}
	return plot.CSV([]string{"app", "skew", "buffered_pct", "buffered", "msgs", "max_pages"}, rows)
}

// CSV8 renders the Figure 8 sweep (relative runtimes).
func (r Fig78Result) CSV8() string {
	var rows [][]string
	for _, app := range r.Apps {
		base := float64(r.Runs[app][0].Runtime)
		for i, skew := range r.Skews {
			rows = append(rows, []string{
				app, fmt.Sprintf("%.3f", skew),
				fmt.Sprintf("%.4f", float64(r.Runs[app][i].Runtime)/base),
				u(r.Runs[app][i].Runtime),
			})
		}
	}
	return plot.CSV([]string{"app", "skew", "relative_runtime", "runtime_cycles"}, rows)
}

// CSVFiles implements CSVer: the shared sweep backs both figures' files.
func (r Fig78Result) CSVFiles() map[string]string {
	return map[string]string{"fig7.csv": r.CSV7(), "fig8.csv": r.CSV8()}
}

// CSVFiles implements CSVer.
func (r SynthSweepResult) CSVFiles() map[string]string {
	var rows [][]string
	for i, n := range r.Ns {
		for j, x := range r.X {
			rows = append(rows, []string{
				fmt.Sprintf("synth-%d", n), u(x),
				fmt.Sprintf("%.4f", r.Pct[i][j]),
			})
		}
	}
	csv := plot.CSV([]string{"app", r.sweep.csvColumn, "buffered_pct"}, rows)
	return map[string]string{r.sweep.name + ".csv": csv}
}

// WriteCSV saves content under dir/name, creating dir as needed.
func WriteCSV(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
