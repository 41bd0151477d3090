package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"edgeejb/internal/obs"
	"edgeejb/internal/regress"
)

// Artifacts is one benchmark run's output directory: traces, per-phase
// registry diffs, and the figure reports, indexed by a
// MANIFEST.json so downstream tooling (and future perf PRs comparing
// runs) can find everything without guessing filenames.
type Artifacts struct {
	// Dir is the run directory (a timestamped child of the root passed
	// to NewArtifacts).
	Dir string

	manifest Manifest
}

// Manifest is the MANIFEST.json written by Close.
type Manifest struct {
	CreatedAt time.Time      `json:"created_at"`
	Args      []string       `json:"args,omitempty"`
	Traces    *TraceStats    `json:"traces,omitempty"`
	Phases    []PhaseRecord  `json:"phases,omitempty"`
	Files     []ManifestFile `json:"files"`
}

// ManifestFile indexes one artifact.
type ManifestFile struct {
	// Path is relative to the run directory.
	Path string `json:"path"`
	// Kind is one of: trace, waterfalls, registry-diff, report, csv,
	// summary, events, manifest.
	Kind string `json:"kind"`
	// Desc says what the file holds, in one line.
	Desc string `json:"desc"`
	// Phase names the experiment phase the file covers, when it covers
	// just one.
	Phase string `json:"phase,omitempty"`
}

// PhaseRecord is one experiment phase's wall-clock window.
type PhaseRecord struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// TraceStats summarizes the run's trace assembly, including how many
// spans the ring buffer evicted before collection — nonzero Dropped
// means some traces are knowingly incomplete rather than silently
// wrong.
type TraceStats struct {
	Assembled  int    `json:"assembled"`
	Complete   int    `json:"complete"`
	Incomplete int    `json:"incomplete"`
	Dropped    uint64 `json:"spans_dropped"`
}

// NewArtifacts creates a timestamped run directory under root and
// returns its artifact writer. Call Close to write MANIFEST.json.
func NewArtifacts(root string, args []string) (*Artifacts, error) {
	dir := filepath.Join(root, "run-"+time.Now().Format("20060102-150405"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: artifacts dir: %w", err)
	}
	return &Artifacts{
		Dir:      dir,
		manifest: Manifest{CreatedAt: time.Now(), Args: args},
	}, nil
}

// RecordPhase logs one experiment phase's window in the manifest.
func (a *Artifacts) RecordPhase(name string, start, end time.Time) {
	a.manifest.Phases = append(a.manifest.Phases, PhaseRecord{Name: name, Start: start, End: end})
}

// WriteFile streams fn into name inside the run directory and indexes
// it in the manifest.
func (a *Artifacts) WriteFile(name, kind, desc, phase string, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(a.Dir, name))
	if err != nil {
		return fmt.Errorf("harness: artifact %s: %w", name, err)
	}
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("harness: artifact %s: %w", name, werr)
	}
	if cerr != nil {
		return fmt.Errorf("harness: artifact %s: %w", name, cerr)
	}
	a.manifest.Files = append(a.manifest.Files, ManifestFile{Path: name, Kind: kind, Desc: desc, Phase: phase})
	return nil
}

// WriteRegistryDiff writes the metric activity one phase accumulated.
func (a *Artifacts) WriteRegistryDiff(phase string, diff obs.Snapshot) error {
	name := "metrics_" + phase + ".txt"
	return a.WriteFile(name, "registry-diff", "metrics accumulated by the "+phase+" phase", phase,
		func(w io.Writer) error { return diff.WriteText(w) })
}

// WriteTraces writes the assembled traces as Perfetto-loadable
// trace-event JSON plus a plain-text waterfall file holding the
// nWaterfalls slowest and nWaterfalls median traces. dropped is the
// span ring's eviction count at collection time.
func (a *Artifacts) WriteTraces(traces []*obs.Trace, nWaterfalls int, dropped uint64) error {
	stats := &TraceStats{Assembled: len(traces), Dropped: dropped}
	for _, t := range traces {
		if t.Complete {
			stats.Complete++
		} else {
			stats.Incomplete++
		}
	}
	a.manifest.Traces = stats

	err := a.WriteFile("trace.perfetto.json", "trace",
		"Chrome trace-event JSON of every assembled trace (load in ui.perfetto.dev)", "",
		func(w io.Writer) error { return obs.WriteTraceEvents(w, traces) })
	if err != nil {
		return err
	}
	return a.WriteFile("waterfalls.txt", "waterfalls",
		fmt.Sprintf("plain-text waterfalls of the %d slowest and %d median traces", nWaterfalls, nWaterfalls), "",
		func(w io.Writer) error {
			fmt.Fprintf(w, "%d traces assembled (%d complete, %d incomplete, %d spans dropped before collection)\n\n",
				stats.Assembled, stats.Complete, stats.Incomplete, dropped)
			fmt.Fprintf(w, "== %d slowest ==\n", nWaterfalls)
			for _, t := range obs.Slowest(traces, nWaterfalls) {
				if err := obs.WriteWaterfall(w, t); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "== %d median ==\n", nWaterfalls)
			for _, t := range obs.Medians(traces, nWaterfalls) {
				if err := obs.WriteWaterfall(w, t); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		})
}

// WriteEvents writes the run's forensic event artifacts: the full event
// stream as JSON Lines, plus the conflict and invalidation-latency CSV
// extracts. Headers are always written, so the files are valid (and
// indexed) even for an incident-free run.
func (a *Artifacts) WriteEvents(events []obs.Event) error {
	if err := a.WriteFile("events.jsonl", "events",
		"forensic event stream (conflict/invalidation/stale_read/twopc), one JSON object per line", "",
		func(w io.Writer) error { return obs.WriteEventsJSONL(w, events) }); err != nil {
		return err
	}
	if err := a.WriteFile("conflicts.csv", "csv",
		"one row per optimistic-commit abort, with loser/winner trace attribution", "",
		func(w io.Writer) error { return WriteConflictsCSV(w, events) }); err != nil {
		return err
	}
	return a.WriteFile("invalidation_latency.csv", "csv",
		"one row per invalidation notice received at an edge, with push latency and staleness window", "",
		func(w io.Writer) error { return WriteInvalidationCSV(w, events) })
}

// WriteEvalReports writes the figure/table reports and CSV exports for
// a finished evaluation.
func (a *Artifacts) WriteEvalReports(e *Evaluation) error {
	if err := a.WriteFile("report.txt", "report",
		"Figures 6-8 and Table 2, as tradebench prints them", "evaluation",
		func(w io.Writer) error { e.WriteAll(w); return nil }); err != nil {
		return err
	}
	if err := a.WriteFile("forensics.txt", "report",
		"per-point conflict matrices, hot keys, and per-bean cache hit ratios", "evaluation",
		func(w io.Writer) error {
			for _, s := range e.Fig6Series() {
				if err := WriteForensics(w, s.Pair, s.Labelled()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}
	if err := e.WriteCSV(a.Dir); err != nil {
		return err
	}
	for _, f := range []struct{ name, desc string }{
		{"fig6.csv", "Figure 6 latency curves (architecture comparison)"},
		{"fig7.csv", "Figure 7 latency curves (ES/RDB algorithms)"},
		{"table2.csv", "Table 2 latency sensitivities"},
		{"fig8.csv", "Figure 8 bytes and wire round trips per interaction"},
	} {
		a.manifest.Files = append(a.manifest.Files,
			ManifestFile{Path: f.name, Kind: "csv", Desc: f.desc, Phase: "evaluation"})
	}
	return nil
}

// WriteSummary writes the run's canonical machine-readable result set
// as summary.json — the file benchdiff compares and the CI perf gate
// baselines.
func (a *Artifacts) WriteSummary(s *regress.Summary) error {
	return a.WriteFile(regress.SummaryFile, "summary",
		"canonical machine-readable run summary (latency, wire, throughput, shard, cache, and resource metrics) for benchdiff", "",
		func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(s)
		})
}

// Close writes MANIFEST.json. The artifacts remain readable; Close just
// finalizes the index.
func (a *Artifacts) Close() error {
	return a.WriteFile("MANIFEST.json", "manifest", "this index", "",
		func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(a.manifest)
		})
}
