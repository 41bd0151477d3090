package regress

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func metric(kind Kind, better Direction, mean float64, samples ...float64) Metric {
	return Metric{Kind: kind, Better: better, Mean: mean, N: len(samples), Samples: samples}
}

func TestCompareVerdicts(t *testing.T) {
	oldS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		// Tight samples, large move: regressed.
		"latency.up": metric(KindTime, LowerIsBetter, 10, 10, 10.1, 9.9, 10.05),
		// Tight samples, large drop: improved.
		"latency.down": metric(KindTime, LowerIsBetter, 10, 10, 10.1, 9.9, 10.05),
		// Within budget: unchanged.
		"latency.flat": metric(KindTime, LowerIsBetter, 10, 10, 10.1, 9.9, 10.05),
		// Huge noise, mean moved past tolerance: inconclusive.
		"latency.noisy": metric(KindTime, LowerIsBetter, 10, 2, 18, 4, 16),
		// Throughput dropping is a regression for higher-is-better.
		"throughput.x": metric(KindRate, HigherIsBetter, 100, 99, 100, 101, 100),
		// Ratio compared by absolute difference.
		"cache.hit": metric(KindRatio, HigherIsBetter, 0.90),
		// Disappears in the new run.
		"gone.metric": metric(KindCount, LowerIsBetter, 5),
	}}
	newS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"latency.up":    metric(KindTime, LowerIsBetter, 15, 15, 15.1, 14.9, 15.05),
		"latency.down":  metric(KindTime, LowerIsBetter, 6, 6, 6.1, 5.9, 6.05),
		"latency.flat":  metric(KindTime, LowerIsBetter, 10.5, 10.5, 10.6, 10.4, 10.55),
		"latency.noisy": metric(KindTime, LowerIsBetter, 14, 6, 22, 8, 20),
		"throughput.x":  metric(KindRate, HigherIsBetter, 60, 59, 60, 61, 60),
		"cache.hit":     metric(KindRatio, HigherIsBetter, 0.70),
		"new.metric":    metric(KindCount, LowerIsBetter, 3),
	}}
	rep := Compare(oldS, newS, Options{Gate: GateAll})
	want := map[string]Verdict{
		"latency.up":    Regressed,
		"latency.down":  Improved,
		"latency.flat":  Unchanged,
		"latency.noisy": Inconclusive,
		"throughput.x":  Regressed,
		"cache.hit":     Regressed,
		"gone.metric":   Removed,
		"new.metric":    Added,
	}
	got := make(map[string]Verdict)
	for _, r := range rep.Results {
		got[r.Name] = r.Verdict
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: verdict %s, want %s", name, got[name], v)
		}
	}
	if rep.Regressions != 3 {
		t.Errorf("Regressions = %d, want 3", rep.Regressions)
	}
	if rep.Improvements != 1 {
		t.Errorf("Improvements = %d, want 1", rep.Improvements)
	}

	// Results come back name-sorted for stable output.
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i-1].Name > rep.Results[i].Name {
			t.Fatalf("results not sorted: %s > %s", rep.Results[i-1].Name, rep.Results[i].Name)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteTable(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"latency.up", "regressed", "3 regressed", "unchanged metrics hidden"} {
		if !strings.Contains(out, needle) {
			t.Errorf("table missing %q:\n%s", needle, out)
		}
	}
	if strings.Contains(out, "latency.flat") {
		t.Errorf("table shows unchanged row without -all:\n%s", out)
	}
}

func TestCompareIdenticalIsClean(t *testing.T) {
	s := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"a": metric(KindTime, LowerIsBetter, 10, 10, 10.2, 9.8),
		"b": metric(KindCount, LowerIsBetter, 3.63),
		"c": metric(KindRatio, HigherIsBetter, 0.98),
	}}
	rep := Compare(s, s, Options{Gate: GateAll})
	if rep.Regressions != 0 || rep.Improvements != 0 || rep.Inconclusives != 0 {
		t.Fatalf("self-compare not clean: %+v", rep)
	}
	for _, r := range rep.Results {
		if r.Verdict != Unchanged {
			t.Errorf("%s: %s, want unchanged", r.Name, r.Verdict)
		}
	}
}

func TestCompareGating(t *testing.T) {
	oldS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"time.x":  metric(KindTime, LowerIsBetter, 10),
		"count.x": metric(KindCount, LowerIsBetter, 4),
	}}
	newS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"time.x":  metric(KindTime, LowerIsBetter, 20),
		"count.x": metric(KindCount, LowerIsBetter, 5),
	}}
	// Stable gating: only count.x (a stable kind) arms the gate even
	// though both regressed.
	rep := Compare(oldS, newS, Options{Gate: GateStable})
	if rep.Regressions != 1 {
		t.Fatalf("stable-gated regressions = %d, want 1", rep.Regressions)
	}
	for _, r := range rep.Results {
		if r.Name == "time.x" && (r.Gated || r.Verdict != Regressed) {
			t.Errorf("time.x: gated=%v verdict=%s, want ungated regressed", r.Gated, r.Verdict)
		}
	}
	if rep := Compare(oldS, newS, Options{Gate: GateNone}); rep.Regressions != 0 {
		t.Fatalf("none-gated regressions = %d, want 0", rep.Regressions)
	}
	if rep := Compare(oldS, newS, Options{Gate: GateKinds(KindTime)}); rep.Regressions != 1 {
		t.Fatalf("kind-gated regressions = %d, want 1", rep.Regressions)
	}
}

func TestCompareToleranceOverride(t *testing.T) {
	oldS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"wire.rts": metric(KindCount, LowerIsBetter, 4.0),
	}}
	newS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"wire.rts": metric(KindCount, LowerIsBetter, 4.5),
	}}
	// 12.5% over the default 4% count budget: regressed.
	if rep := Compare(oldS, newS, Options{Gate: GateAll}); rep.Regressions != 1 {
		t.Fatalf("default tolerance: regressions = %d, want 1", rep.Regressions)
	}
	// A widened per-metric budget absorbs it.
	rep := Compare(oldS, newS, Options{
		Gate:      GateAll,
		Tolerance: map[string]float64{"wire.rts": 0.20},
	})
	if rep.Regressions != 0 {
		t.Fatalf("overridden tolerance: regressions = %d, want 0", rep.Regressions)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	oldS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"conflicts": metric(KindCount, LowerIsBetter, 0),
	}}
	newS := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
		"conflicts": metric(KindCount, LowerIsBetter, 7),
	}}
	rep := Compare(oldS, newS, Options{Gate: GateAll})
	if rep.Results[0].Verdict != Regressed {
		t.Fatalf("zero baseline growth: %s, want regressed", rep.Results[0].Verdict)
	}
	// And zero -> zero is unchanged, not a divide-by-zero artifact.
	rep = Compare(oldS, oldS, Options{Gate: GateAll})
	if rep.Results[0].Verdict != Unchanged {
		t.Fatalf("zero self-compare: %s, want unchanged", rep.Results[0].Verdict)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := &Summary{
		Schema:    SchemaV2,
		CreatedAt: "2026-01-02T03:04:05Z",
		Args:      []string{"-fig6"},
		Metrics: map[string]Metric{
			"latency.x": metric(KindTime, LowerIsBetter, 1.5, 1.4, 1.6),
		},
	}
	file := filepath.Join(dir, "sub", SummaryFile)
	if err := Save(file, s); err != nil {
		t.Fatal(err)
	}

	// Load by exact file.
	got, err := Load(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics["latency.x"].Mean != 1.5 || len(got.Metrics["latency.x"].Samples) != 2 {
		t.Fatalf("round trip lost data: %+v", got.Metrics["latency.x"])
	}
	// Load by containing directory.
	if _, err := Load(filepath.Join(dir, "sub")); err != nil {
		t.Fatalf("dir load: %v", err)
	}

	// Load by artifact root: newest run-* wins.
	root := t.TempDir()
	for _, run := range []struct {
		name string
		mean float64
	}{
		{"run-20260101-000000", 1.0},
		{"run-20260102-000000", 2.0},
	} {
		rs := &Summary{Schema: SchemaV2, Metrics: map[string]Metric{
			"m": metric(KindTime, LowerIsBetter, run.mean),
		}}
		if err := Save(filepath.Join(root, run.name, SummaryFile), rs); err != nil {
			t.Fatal(err)
		}
	}
	got, err = Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics["m"].Mean != 2.0 {
		t.Fatalf("artifact-root load picked mean %v, want the newest run (2.0)", got.Metrics["m"].Mean)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("empty dir: want error")
	}
	// A foreign schema and the retired v1 are both refused, and the
	// error names the schema the file carries.
	for _, schema := range []string{"someone/elses/v9", "edgeejb/summary/v1"} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(`{"schema":"`+schema+`","metrics":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), schema) {
			t.Fatalf("schema %s: err = %v, want an error naming it", schema, err)
		}
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(garbage); err == nil {
		t.Fatal("garbage json: want error")
	}
}

func TestKindProperties(t *testing.T) {
	if !KindCount.Stable() || !KindRatio.Stable() {
		t.Error("count and ratio must be stable kinds")
	}
	if KindTime.Stable() || KindRate.Stable() {
		t.Error("time and rate must not be stable kinds")
	}
	for _, k := range []Kind{KindTime, KindRate, KindCount, KindRatio} {
		if tol := k.DefaultTolerance(); tol <= 0 || tol > 0.5 {
			t.Errorf("%s default tolerance %v out of sane range", k, tol)
		}
	}
}

// FuzzLoadSummary feeds the summary loader hostile file contents: it
// must never panic, never hand back a nil summary without an error, and
// whatever it accepts must survive the comparison the gate runs on it.
func FuzzLoadSummary(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("..", "..", "results", "baseline", SummaryFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
	f.Add(baseline[:len(baseline)/2])
	f.Add([]byte(`{"schema":"` + SchemaV2 + `"}`))
	f.Add([]byte(`{"schema":"` + SchemaV2 + `","metrics":{"m":{"kind":"?","better":"?","mean":1e308,"samples":[0,-1e308]}}}`))
	file := filepath.Join(f.TempDir(), SummaryFile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(file)
		if err != nil {
			return
		}
		if s == nil || s.Metrics == nil {
			t.Fatalf("Load returned %+v with a nil error", s)
		}
		if rep := Compare(s, s, Options{Gate: GateAll}); rep.Regressions != 0 {
			t.Fatalf("self-compare of a loaded summary regressed: %+v", rep)
		}
	})
}
