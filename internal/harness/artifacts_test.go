package harness

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgeejb/internal/obs"
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
