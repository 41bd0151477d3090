package main

import (
	"path/filepath"
	"testing"

	"edgeejb/internal/regress"
)

func writeSummary(t *testing.T, dir, name, schema string, metrics map[string]regress.Metric) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := regress.Save(path, &regress.Summary{Schema: schema, Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the CLI contract CI scripts depend on: 0 clean,
// 2 when an exact metric moved either way, 1 on usage or I/O errors.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	summary := func(name string, rts, latency float64) string {
		return writeSummary(t, dir, name, regress.SchemaV3, map[string]regress.Metric{
			"wire.rts":  {Kind: regress.KindExact, Better: regress.LowerIsBetter, Mean: rts},
			"latency.x": {Kind: regress.KindMeasured, Better: regress.LowerIsBetter, Mean: latency},
		})
	}
	base := summary("base.json", 3.6, 10)
	renamed := writeSummary(t, dir, "renamed.json", regress.SchemaV3, map[string]regress.Metric{
		"wire.rts2": {Kind: regress.KindExact, Better: regress.LowerIsBetter, Mean: 3.6},
	})
	// The schema before exact and measured kinds is refused, not compared.
	v2 := writeSummary(t, dir, "v2.json", "edgeejb/summary/v2", nil)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"identical", []string{"-q", base, base}, 0},
		{"measured row +50 %", []string{"-q", base, summary("slower.json", 3.6, 15)}, 0},
		{"exact row worse", []string{"-q", base, summary("worse.json", 3.61, 10)}, 2},
		{"exact row better", []string{"-q", base, summary("better.json", 3.59, 10)}, 2},
		{"rows added and removed", []string{"-all", base, renamed}, 0},
		{"one argument", []string{"-q", base}, 1},
		{"missing file", []string{"-q", base, filepath.Join(dir, "missing.json")}, 1},
		{"v2 summary", []string{"-q", base, v2}, 1},
		{"retired flag", []string{"-tol", "wire.rts=0.5", base, base}, 1},
		{"unknown flag", []string{"-gate", "none", base, base}, 1},
	} {
		if code := run(tc.args); code != tc.want {
			t.Errorf("%s: exit = %d, want %d", tc.name, code, tc.want)
		}
	}
}
