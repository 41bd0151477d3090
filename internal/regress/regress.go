// Package regress defines the canonical machine-readable result
// summary a benchmark run emits (summary.json) and the artifact-diff
// engine that compares two of them — the regression gate that keeps
// the paper's reproduced numbers from drifting as the codebase grows.
//
// A Summary is a flat map of named metrics. Each metric carries its
// batch-mean samples when the harness has them, so a comparison can
// run a Welch two-sample test instead of eyeballing means: a verdict
// of "regressed" requires BOTH the tolerance budget to be exceeded AND
// the difference to be statistically significant (when samples exist),
// which is what keeps a noisy 6-batch run from tripping the CI gate
// one time in twenty per metric.
//
// Metric kinds split along a line that matters for CI: "count" and
// "ratio" metrics (wire round trips per interaction, bytes per
// interaction, cache hit ratios, sensitivity slopes) are properties of
// the protocol and workload, not the machine — they reproduce across
// hosts and gate against a checked-in baseline. "time" and "rate"
// metrics depend on the host and only gate meaningfully in same-machine
// A/B comparisons.
package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SchemaV2 is the summary.json schema every run writes. Load rejects
// any other, the retired v1 included, rather than mis-parsing it.
const SchemaV2 = "edgeejb/summary/v2"

// SummaryFile is the filename a run writes and Load resolves inside
// artifact directories.
const SummaryFile = "summary.json"

// Kind classifies what a metric measures, which decides its default
// tolerance and whether it is machine-independent.
type Kind string

const (
	// KindTime is a latency or duration (host-dependent).
	KindTime Kind = "time"
	// KindRate is a throughput (host-dependent).
	KindRate Kind = "rate"
	// KindCount is a per-interaction count — wire round trips, bytes,
	// sensitivity slopes. Protocol-determined: stable across hosts.
	KindCount Kind = "count"
	// KindRatio is a dimensionless fraction in [0,1] — hit ratios,
	// conflict rates. Compared by absolute difference, and stable.
	KindRatio Kind = "ratio"
)

// Stable reports whether the kind is machine-independent — safe to
// gate against a baseline produced on different hardware.
func (k Kind) Stable() bool { return k == KindCount || k == KindRatio }

// DefaultTolerance is the per-kind budget a difference must exceed
// before it can be a verdict at all: a relative fraction for time,
// rate, and count; an absolute difference for ratio.
func (k Kind) DefaultTolerance() float64 {
	switch k {
	case KindTime:
		return 0.25
	case KindRate:
		return 0.20
	case KindCount:
		return 0.04
	case KindRatio:
		return 0.05
	default:
		return 0.25
	}
}

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
	// Kind decides tolerance semantics and baseline stability.
	Kind Kind `json:"kind"`
	// Better is the improvement direction.
	Better Direction `json:"better"`
	// Mean is the headline value.
	Mean float64 `json:"mean"`
	// N is how many raw observations fed the metric.
	N int `json:"n,omitempty"`
	// Samples are batch means (or per-point values) when available;
	// two summaries that both carry samples are compared with a Welch
	// two-sample test instead of tolerance alone.
	Samples []float64 `json:"samples,omitempty"`
}

// Summary is one run's canonical machine-readable result set.
type Summary struct {
	// Schema is SchemaV2.
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
	if s.Schema != SchemaV2 {
		return nil, fmt.Errorf("regress: %s: schema %q, want %q", file, s.Schema, SchemaV2)
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
