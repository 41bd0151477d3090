// Package regress defines the canonical machine-readable result
// summary a benchmark run emits (summary.json) and the artifact-diff
// engine that compares two of them — the regression gate that keeps
// the paper's reproduced numbers from drifting as the codebase grows.
//
// A Summary is a flat map of named metrics, each of one of two kinds.
// An exact metric (wire round trips and bytes per interaction, cache hit
// ratios) is a count of what the protocol did: at a fixed seed with one
// client it repeats bit for bit on any machine, so any difference
// between two runs is a change, and the gate needs no statistics. A
// measured metric (latencies, fitted slopes, rates, allocations) comes
// from a clock or the runtime and is printed for a reader, never judged.
package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SchemaV3 is the summary.json schema every run writes. Load rejects
// any other, the retired v1 and v2 included, rather than mis-parsing it.
const SchemaV3 = "edgeejb/summary/v3"

// SummaryFile is the filename a run writes and Load resolves inside
// artifact directories.
const SummaryFile = "summary.json"

// Kind says whether a metric is gated.
type Kind string

const (
	// KindExact is a protocol count that repeats exactly at a fixed
	// seed; any difference is a verdict.
	KindExact Kind = "exact"
	// KindMeasured is a timed or sampled value; it is printed, never
	// judged.
	KindMeasured Kind = "measured"
)

// Direction says which way a metric should move.
type Direction string

const (
	// LowerIsBetter marks latencies, counts, conflict ratios.
	LowerIsBetter Direction = "lower"
	// HigherIsBetter marks throughputs and hit ratios.
	HigherIsBetter Direction = "higher"
)

// Metric is one named measurement in a Summary.
type Metric struct {
	// Unit is for display only (ms, ixn/s, rt/ixn, B/ixn, "").
	Unit string `json:"unit,omitempty"`
	// Kind decides whether a difference is a verdict.
	Kind Kind `json:"kind"`
	// Better is the improvement direction.
	Better Direction `json:"better"`
	// Mean is the headline value.
	Mean float64 `json:"mean"`
	// N is how many raw observations fed the metric.
	N int `json:"n,omitempty"`
}

// Summary is one run's canonical machine-readable result set.
type Summary struct {
	// Schema is SchemaV3.
	Schema string `json:"schema"`
	// CreatedAt is when the run finished, RFC3339 (informational).
	CreatedAt string `json:"created_at,omitempty"`
	// Args echoes the command line that produced the run.
	Args []string `json:"args,omitempty"`
	// Metrics maps metric name to measurement. Names are dotted paths
	// (latency.es-rdb.d0ms.mean_ms, wire.es-rdb.rts_per_interaction);
	// OBSERVABILITY.md documents the namespace.
	Metrics map[string]Metric `json:"metrics"`
}

// Names returns the metric names in sorted order.
func (s *Summary) Names() []string {
	out := make([]string, 0, len(s.Metrics))
	for name := range s.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load reads a Summary from path, which may be the summary.json itself,
// a run directory containing one, or an artifact root of run-* children
// (the newest run with a summary is used — run directory names embed
// their timestamp, so lexical order is chronological).
func Load(path string) (*Summary, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	file := path
	if fi.IsDir() {
		file, err = resolveDir(path)
		if err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("regress: parse %s: %w", file, err)
	}
	if s.Schema != SchemaV3 {
		return nil, fmt.Errorf("regress: %s: schema %q, want %q", file, s.Schema, SchemaV3)
	}
	if s.Metrics == nil {
		s.Metrics = map[string]Metric{}
	}
	return &s, nil
}

// resolveDir finds the summary.json under an artifact directory.
func resolveDir(dir string) (string, error) {
	direct := filepath.Join(dir, SummaryFile)
	if _, err := os.Stat(direct); err == nil {
		return direct, nil
	}
	runs, err := filepath.Glob(filepath.Join(dir, "run-*", SummaryFile))
	if err != nil || len(runs) == 0 {
		return "", fmt.Errorf("regress: no %s under %s (looked for %s and run-*/%s)",
			SummaryFile, dir, direct, SummaryFile)
	}
	sort.Strings(runs)
	return runs[len(runs)-1], nil
}

// Save writes the summary as indented JSON to path, creating parent
// directories as needed.
func Save(path string, s *Summary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("regress: %w", err)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("regress: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
