package regress

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func metric(kind Kind, better Direction, mean float64) Metric {
	return Metric{Kind: kind, Better: better, Mean: mean}
}

func TestCompareVerdicts(t *testing.T) {
	oldS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		// An exact count that grew: regressed.
		"wire.up": metric(KindExact, LowerIsBetter, 3.6333),
		// An exact count that fell: improved.
		"wire.down": metric(KindExact, LowerIsBetter, 3.6333),
		// An exact count that repeated: unchanged.
		"wire.flat": metric(KindExact, LowerIsBetter, 1.1927),
		// A hit ratio that fell is a regression for higher-is-better.
		"cache.hit": metric(KindExact, HigherIsBetter, 0.2941),
		// A measured latency that doubled: printed, never judged.
		"latency.x": metric(KindMeasured, LowerIsBetter, 10),
		// Disappears in the new run.
		"gone.metric": metric(KindExact, LowerIsBetter, 5),
	}}
	newS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"wire.up":    metric(KindExact, LowerIsBetter, 4.0399),
		"wire.down":  metric(KindExact, LowerIsBetter, 3.6),
		"wire.flat":  metric(KindExact, LowerIsBetter, 1.1927),
		"cache.hit":  metric(KindExact, HigherIsBetter, 0.28),
		"latency.x":  metric(KindMeasured, LowerIsBetter, 20),
		"new.metric": metric(KindExact, LowerIsBetter, 3),
	}}
	rep := Compare(oldS, newS)
	want := map[string]Verdict{
		"wire.up":     Regressed,
		"wire.down":   Improved,
		"wire.flat":   Unchanged,
		"cache.hit":   Regressed,
		"latency.x":   "",
		"gone.metric": Removed,
		"new.metric":  Added,
	}
	got := make(map[string]Verdict)
	for _, r := range rep.Results {
		got[r.Name] = r.Verdict
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: verdict %q, want %q", name, got[name], v)
		}
	}
	if rep.Regressions != 2 || rep.Improvements != 1 {
		t.Errorf("Regressions, Improvements = %d, %d, want 2, 1", rep.Regressions, rep.Improvements)
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
	for _, needle := range []string{
		"wire.up", "+11.2%", "regressed", "latency.x", "+100.0%", "(new)", "(gone)",
		"2 regressed, 1 improved", "1 unchanged exact metrics hidden",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("table missing %q:\n%s", needle, out)
		}
	}
	if strings.Contains(out, "wire.flat") {
		t.Errorf("table shows an unchanged row without -all:\n%s", out)
	}
}

func TestCompareIdenticalIsClean(t *testing.T) {
	s := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"a": metric(KindMeasured, LowerIsBetter, 10),
		"b": metric(KindExact, LowerIsBetter, 3.63),
		"c": metric(KindExact, HigherIsBetter, 0.98),
	}}
	rep := Compare(s, s)
	if rep.Regressions != 0 || rep.Improvements != 0 {
		t.Fatalf("self-compare not clean: %+v", rep)
	}
	for _, r := range rep.Results {
		if want := map[Kind]Verdict{KindExact: Unchanged}[r.Kind]; r.Verdict != want {
			t.Errorf("%s: %q, want %q", r.Name, r.Verdict, want)
		}
	}
}

// TestCompareGating: only exact metrics arm the gate, in both
// directions; a measured metric moving any distance does not.
func TestCompareGating(t *testing.T) {
	oldS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"resource.x": metric(KindMeasured, LowerIsBetter, 10),
		"wire.x":     metric(KindExact, LowerIsBetter, 4),
	}}
	for _, tc := range []struct {
		measured, exact float64
		regressions     int
		improvements    int
	}{
		{measured: 15, exact: 4},
		{measured: 5, exact: 4},
		{measured: 10, exact: 5, regressions: 1},
		{measured: 10, exact: 3, improvements: 1},
	} {
		newS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
			"resource.x": metric(KindMeasured, LowerIsBetter, tc.measured),
			"wire.x":     metric(KindExact, LowerIsBetter, tc.exact),
		}}
		rep := Compare(oldS, newS)
		if rep.Regressions != tc.regressions || rep.Improvements != tc.improvements {
			t.Errorf("measured 10 -> %v, exact 4 -> %v: %d regressed, %d improved, want %d, %d",
				tc.measured, tc.exact, rep.Regressions, rep.Improvements, tc.regressions, tc.improvements)
		}
	}
}

// TestCompareExactHasNoTolerance: an exact metric has no budget to hide
// in; the smallest difference a float can hold is a verdict.
func TestCompareExactHasNoTolerance(t *testing.T) {
	oldS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"wire.bytes": metric(KindExact, LowerIsBetter, 373.5886),
	}}
	newS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"wire.bytes": metric(KindExact, LowerIsBetter, 373.5886000001),
	}}
	if rep := Compare(oldS, newS); rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1", rep.Regressions)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	oldS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"conflicts": metric(KindExact, LowerIsBetter, 0),
	}}
	newS := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
		"conflicts": metric(KindExact, LowerIsBetter, 7),
	}}
	rep := Compare(oldS, newS)
	if rep.Results[0].Verdict != Regressed {
		t.Fatalf("zero baseline growth: %s, want regressed", rep.Results[0].Verdict)
	}
	var buf bytes.Buffer
	if err := rep.WriteTable(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+inf") {
		t.Errorf("growth from zero not shown as +inf:\n%s", buf.String())
	}
	// And zero -> zero is unchanged, not a divide-by-zero artifact.
	rep = Compare(oldS, oldS)
	if rep.Results[0].Verdict != Unchanged {
		t.Fatalf("zero self-compare: %s, want unchanged", rep.Results[0].Verdict)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := &Summary{
		Schema:    SchemaV3,
		CreatedAt: "2026-01-02T03:04:05Z",
		Args:      []string{"-fig6"},
		Metrics: map[string]Metric{
			"latency.x": {Unit: "ms", Kind: KindMeasured, Better: LowerIsBetter, Mean: 1.5, N: 12},
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
	if got.Metrics["latency.x"] != s.Metrics["latency.x"] {
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
		rs := &Summary{Schema: SchemaV3, Metrics: map[string]Metric{
			"m": metric(KindMeasured, LowerIsBetter, run.mean),
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
	// A foreign schema and the retired v1 and v2 are all refused, and the
	// error names the schema the file carries.
	for _, schema := range []string{"someone/elses/v9", "edgeejb/summary/v1", "edgeejb/summary/v2"} {
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

// TestKindProperties pins how the two kinds are written to the file: CI's
// trace-smoke check and every checked-in baseline read these names.
func TestKindProperties(t *testing.T) {
	for k, want := range map[Kind]string{KindExact: `"kind":"exact"`, KindMeasured: `"kind":"measured"`} {
		data, err := json.Marshal(Metric{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), want) {
			t.Errorf("kind %q encodes as %s, want %s", k, data, want)
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
	f.Add([]byte(`{"schema":"` + SchemaV3 + `"}`))
	f.Add([]byte(`{"schema":"` + SchemaV3 + `","metrics":{"m":{"kind":"?","better":"?","mean":1e308,"n":-1}}}`))
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
		if rep := Compare(s, s); rep.Regressions != 0 || rep.Improvements != 0 {
			t.Fatalf("self-compare of a loaded summary moved: %+v", rep)
		}
	})
}
