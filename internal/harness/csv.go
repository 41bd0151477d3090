package harness

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// WriteCSV exports every figure and table as CSV files in dir (created
// if needed), so the curves can be re-plotted with any tool:
//
//	fig6.csv    delay_ms, <series...>        (architecture comparison)
//	fig7.csv    delay_ms, <series...>        (ES/RDB algorithms)
//	table2.csv  algorithm, architecture, sensitivity, r2
//	fig8.csv    configuration, bytes_per_interaction, wire_round_trips_per_interaction
func (e *Evaluation) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: csv dir: %w", err)
	}
	if err := writeSweepCSV(filepath.Join(dir, "fig6.csv"), e.Fig6Series()); err != nil {
		return err
	}
	if err := writeSweepCSV(filepath.Join(dir, "fig7.csv"), e.Fig7Series()); err != nil {
		return err
	}
	if err := e.writeTable2CSV(filepath.Join(dir, "table2.csv")); err != nil {
		return err
	}
	return e.writeFig8CSV(filepath.Join(dir, "fig8.csv"))
}

func writeSweepCSV(path string, sweeps []Sweep) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %s: %w", path, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)

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

func (e *Evaluation) writeTable2CSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %s: %w", path, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
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

func (e *Evaluation) writeFig8CSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %s: %w", path, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
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
