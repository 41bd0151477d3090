package harness

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/obs"
	"edgeejb/internal/regress"
	"edgeejb/internal/trade"
)

func TestArtifactsLifecycle(t *testing.T) {
	root := t.TempDir()
	art, err := NewArtifacts(root, []string{"-fig6", "-out-dir", root})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(art.Dir), "run-") {
		t.Fatalf("run dir not timestamped: %s", art.Dir)
	}

	// A phase window plus its per-phase artifact.
	start := time.Now().Add(-time.Second)
	end := time.Now()
	art.RecordPhase("fig6", start, end)

	reg := obs.NewRegistry()
	reg.Counter("test.count").Add(3)
	reg.Histogram("test.lat").Observe(2 * time.Millisecond)
	if err := art.WriteRegistryDiff("fig6", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// A tiny assembled trace set.
	base := time.Now()
	traces := obs.Assemble([]obs.SpanRecord{
		{Trace: 1, Span: 1, Name: "client.interaction", Tier: "client", Start: base, Dur: 5 * time.Millisecond},
		{Trace: 1, Span: 2, Parent: 1, Name: "edge.request", Tier: "edge", Start: base.Add(time.Millisecond), Dur: 3 * time.Millisecond},
	})
	if err := art.WriteTraces(traces, 2, 7); err != nil {
		t.Fatal(err)
	}
	if err := art.Close(); err != nil {
		t.Fatal(err)
	}

	// Every indexed file exists; the manifest round-trips.
	raw, err := os.ReadFile(filepath.Join(art.Dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("MANIFEST.json does not parse: %v", err)
	}
	// MANIFEST.json indexes everything but itself.
	wantKinds := map[string]bool{"registry-diff": false, "trace": false, "waterfalls": false}
	for _, f := range m.Files {
		if _, err := os.Stat(filepath.Join(art.Dir, f.Path)); err != nil {
			t.Fatalf("manifest lists missing file %s: %v", f.Path, err)
		}
		if _, ok := wantKinds[f.Kind]; ok {
			wantKinds[f.Kind] = true
		}
	}
	for kind, seen := range wantKinds {
		if !seen {
			t.Fatalf("manifest missing a %q artifact: %+v", kind, m.Files)
		}
	}
	if len(m.Phases) != 1 || m.Phases[0].Name != "fig6" {
		t.Fatalf("bad phases: %+v", m.Phases)
	}
	if m.Traces == nil || m.Traces.Assembled != 1 || m.Traces.Complete != 1 || m.Traces.Dropped != 7 {
		t.Fatalf("bad trace stats: %+v", m.Traces)
	}

	// The waterfall file carries the drop count so incompleteness is
	// never silent.
	wf, err := os.ReadFile(filepath.Join(art.Dir, "waterfalls.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wf), "7 spans dropped") {
		t.Fatalf("waterfalls.txt missing drop count:\n%s", wf)
	}
}

func TestArtifactsWriteFileError(t *testing.T) {
	art, err := NewArtifacts(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	werr := art.WriteFile("bad.txt", "report", "fails", "", func(io.Writer) error {
		return os.ErrInvalid
	})
	if werr == nil {
		t.Fatal("expected error from failing writer")
	}
	// A failed write must not be indexed.
	if err := art.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(filepath.Join(art.Dir, "MANIFEST.json"))
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Files {
		if f.Path == "bad.txt" {
			t.Fatal("failed artifact indexed in manifest")
		}
	}
}

// TestEvaluationRunDirectory runs the whole evaluation, every cell at a
// tiny scale and one 0 ms delay, and writes its run directory: the
// reports, the CSV exports and summary.json, all indexed in
// MANIFEST.json. Summary's wire rows carry Figure 8's counts exactly.
func TestEvaluationRunDirectory(t *testing.T) {
	eval, err := RunEvaluation(context.Background(), Options{
		Populate: trade.PopulateConfig{Users: 6, Symbols: 10, HoldingsPerUser: 2},
	}, Scale{
		Workload: trade.GeneratorConfig{Seed: 5, Users: 6, Symbols: 10},
		Warmup:   1,
		Sessions: 2,
		Batches:  2,
	}, []time.Duration{0}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(eval.Sweeps) != len(AllPairs()) {
		t.Fatalf("%d sweeps, want %d", len(eval.Sweeps), len(AllPairs()))
	}

	art, err := NewArtifacts(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := art.WriteEvalReports(eval); err != nil {
		t.Fatal(err)
	}
	summary := BuildSummary(SummaryInput{Eval: eval})
	if err := art.WriteSummary(summary); err != nil {
		t.Fatal(err)
	}
	if err := art.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(art.Dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	indexed := make(map[string]bool)
	for _, f := range m.Files {
		if _, err := os.Stat(filepath.Join(art.Dir, f.Path)); err != nil {
			t.Errorf("manifest lists missing file %s: %v", f.Path, err)
		}
		indexed[f.Path] = true
	}
	for _, name := range []string{"report.txt", "forensics.txt", "fig6.csv", "fig7.csv", "table2.csv", "fig8.csv", regress.SummaryFile} {
		if !indexed[name] {
			t.Errorf("MANIFEST.json does not index %s: %+v", name, m.Files)
		}
	}

	written, err := regress.Load(filepath.Join(art.Dir, regress.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	rows := eval.Fig8Rows()
	if len(rows) != len(Fig6Pairs()) {
		t.Fatalf("%d Figure 8 rows, want %d", len(rows), len(Fig6Pairs()))
	}
	for _, row := range rows {
		ps := pairSlug(row.Pair)
		for metric, want := range map[string]float64{
			"wire." + ps + ".rts_per_interaction":   row.RoundTripsPerInteraction,
			"wire." + ps + ".bytes_per_interaction": row.BytesPerInteraction,
		} {
			if got, ok := written.Metrics[metric]; !ok || got.Mean != want {
				t.Errorf("summary.json %s = %+v, Figure 8 reports %v", metric, got, want)
			}
		}
	}
}
