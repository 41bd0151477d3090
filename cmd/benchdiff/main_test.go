package main

import (
	"path/filepath"
	"testing"

	"edgeejb/internal/regress"
)

func writeSummary(t *testing.T, dir, name string, metrics map[string]regress.Metric) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := regress.Save(path, &regress.Summary{Schema: regress.SchemaV2, Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the CLI contract CI scripts depend on: 0 clean,
// 2 gated regression, 1 usage/IO error.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", map[string]regress.Metric{
		"wire.rts":  {Kind: regress.KindCount, Better: regress.LowerIsBetter, Mean: 3.6},
		"latency.x": {Kind: regress.KindTime, Better: regress.LowerIsBetter, Mean: 10},
	})
	same := writeSummary(t, dir, "same.json", map[string]regress.Metric{
		"wire.rts":  {Kind: regress.KindCount, Better: regress.LowerIsBetter, Mean: 3.6},
		"latency.x": {Kind: regress.KindTime, Better: regress.LowerIsBetter, Mean: 10.1},
	})
	worse := writeSummary(t, dir, "worse.json", map[string]regress.Metric{
		"wire.rts":  {Kind: regress.KindCount, Better: regress.LowerIsBetter, Mean: 4.4},
		"latency.x": {Kind: regress.KindTime, Better: regress.LowerIsBetter, Mean: 10},
	})

	if code := run([]string{"-q", base, same}); code != 0 {
		t.Errorf("clean compare exit = %d, want 0", code)
	}
	if code := run([]string{"-q", base, worse}); code != 2 {
		t.Errorf("regressed compare exit = %d, want 2", code)
	}
	// The same regression vanishes when count metrics are not gated.
	if code := run([]string{"-q", "-gate", "none", base, worse}); code != 0 {
		t.Errorf("ungated compare exit = %d, want 0", code)
	}
	// A widened per-metric budget absorbs it too.
	if code := run([]string{"-q", "-tol", "wire.rts=0.5", base, worse}); code != 0 {
		t.Errorf("tolerance-overridden exit = %d, want 0", code)
	}
	// Usage and IO errors are 1, distinct from the gate's 2.
	if code := run([]string{"-q", base}); code != 1 {
		t.Errorf("one-arg exit = %d, want 1", code)
	}
	if code := run([]string{"-q", base, filepath.Join(dir, "missing.json")}); code != 1 {
		t.Errorf("missing-file exit = %d, want 1", code)
	}
	if code := run([]string{"-gate", "bogus", base, same}); code != 1 {
		t.Errorf("bad-gate exit = %d, want 1", code)
	}
	if code := run([]string{"-tol", "nonsense", base, same}); code != 1 {
		t.Errorf("bad-tol exit = %d, want 1", code)
	}
}
