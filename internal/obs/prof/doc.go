// Package prof feeds the Go runtime's own meters into the observability
// stack: where internal/obs answers "where did the wall-clock time go",
// prof answers "how much did the process allocate, collect, and
// schedule while it went there".
//
// Runtime reads runtime/metrics plus getrusage CPU time on an interval
// and registers them in an obs.Registry as ordinary counters, gauges,
// and histograms under the runtime.* namespace. Registered there, they
// ride every existing export for free: /metrics text and Prometheus
// exposition, per-phase registry diffs, and the time-series CSVs the
// artifact pipeline writes; tradebench normalizes three of them into
// summary.json's resource.* metrics.
//
// Profiles are not this package's job: every -debug-addr listener
// serves /debug/pprof, and go tool pprof reads, diffs (-base) and
// tabulates (-top) what it serves. OBSERVABILITY.md's "Taking a
// profile" has the commands, and documents the runtime.* names; CI
// fails if one goes undocumented.
package prof
