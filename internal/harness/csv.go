package harness

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// runFile is one file of a run's output: its name, what it holds, in
// one line, and its writer.
type runFile struct {
	name, desc string
	write      func(io.Writer) error
}

// csvFiles are the evaluation's CSV exports, so the curves can be
// re-plotted with any tool:
//
//	fig6.csv    delay_ms, <series...>        (architecture comparison)
//	fig7.csv    delay_ms, <series...>        (ES/RDB algorithms)
//	table2.csv  algorithm, architecture, sensitivity, r2
//	fig8.csv    configuration, bytes_per_interaction, wire_round_trips_per_interaction
func (e *Evaluation) csvFiles() []runFile {
	return []runFile{
		{"fig6.csv", "Figure 6 latency curves (architecture comparison)",
			func(w io.Writer) error { return writeSweepCSV(w, e.Fig6Series()) }},
		{"fig7.csv", "Figure 7 latency curves (ES/RDB algorithms)",
			func(w io.Writer) error { return writeSweepCSV(w, e.Fig7Series()) }},
		{"table2.csv", "Table 2 latency sensitivities", e.writeTable2CSV},
		{"fig8.csv", "Figure 8 bytes and wire round trips per interaction", e.writeFig8CSV},
	}
}

// WriteCSV writes every CSV export into dir, created if needed.
func (e *Evaluation) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: csv dir: %w", err)
	}
	for _, f := range e.csvFiles() {
		if err := createFile(filepath.Join(dir, f.name), f.write); err != nil {
			return err
		}
	}
	return nil
}

// createFile streams write into a new file at path.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %s: %w", path, err)
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		return fmt.Errorf("harness: %s: %w", path, err)
	}
	return nil
}

func writeSweepCSV(out io.Writer, sweeps []Sweep) error {
	w := csv.NewWriter(out)

	header := []string{"delay_ms"}
	for _, s := range sweeps {
		header = append(header, s.Arch.String()+" "+s.Algo.String())
	}
	if err := w.Write(header); err != nil {
		return err
	}
	if len(sweeps) > 0 {
		for i := range sweeps[0].Points {
			row := []string{formatFloat(sweeps[0].Points[i].OneWayDelayMs)}
			for _, s := range sweeps {
				if i < len(s.Points) {
					row = append(row, formatFloat(s.Points[i].MeanLatencyMs()))
				} else {
					row = append(row, "")
				}
			}
			if err := w.Write(row); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

func (e *Evaluation) writeTable2CSV(out io.Writer) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"algorithm", "architecture", "sensitivity", "r2"}); err != nil {
		return err
	}
	for _, cell := range e.Table2() {
		row := []string{cell.Pair.Algo.String(), cell.Pair.Arch.String()}
		if cell.NA {
			row = append(row, "", "")
		} else {
			row = append(row, formatFloat(cell.Sensitivity), formatFloat(cell.R2))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func (e *Evaluation) writeFig8CSV(out io.Writer) error {
	w := csv.NewWriter(out)
	if err := w.Write([]string{"configuration", "bytes_per_interaction", "wire_round_trips_per_interaction"}); err != nil {
		return err
	}
	for _, row := range e.Fig8Rows() {
		rec := []string{
			row.Pair.String(),
			formatFloat(row.BytesPerInteraction),
			formatFloat(row.RoundTripsPerInteraction),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Undefined cells (e.g. the fit of a single-delay sweep) export
		// as "n/a" rather than a literal NaN that breaks CSV consumers.
		return "n/a"
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}
