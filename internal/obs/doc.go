// Package obs is the observability layer: a dependency-free metrics
// and tracing subsystem every tier of the system reports into, so a
// running edge server, back-end, database server, or proxy can be
// watched live instead of being scraped for counters after a run ends.
//
// It has four parts:
//
//   - Metrics: atomic Counters and Gauges, and log-bucketed latency
//     Histograms with p50/p95/p99 estimates, collected in a named
//     Registry. Snapshot captures every metric at a point in time;
//     Snapshot.Sub diffs two captures, which is how the benchmark
//     harness attributes activity to one experiment phase.
//   - Trace spans: a trace ID is planted in a context (WithNewTrace)
//     at the edge of the system — one ID per client interaction — and
//     propagates across process boundaries in the wire transport's
//     frame header. Each tier brackets its hot work in StartSpan/End;
//     finished spans feed a per-name latency histogram ("span.<name>")
//     and a bounded in-memory SpanLog from which a single Trade2
//     interaction can be reconstructed as edge → (cache hit | back-end
//     round trip) → datastore with per-hop durations.
//   - Trace assembly: Assemble joins span records by trace ID into
//     trees, marking a trace incomplete when a parent is missing;
//     WriteWaterfall renders one as an indented per-hop waterfall with
//     tier labels — the per-hop decomposition the paper's Figures 6–8
//     argue from — and WriteTraceEvents renders many as Chrome
//     trace-event JSON for ui.perfetto.dev. The run artifacts and
//     /debug/spans both print WriteWaterfall, so a trace reads the
//     same wherever it is shown.
//   - Debug endpoints: StartDebug serves /metrics (text and JSON),
//     /healthz, /debug/spans, /debug/events, and /debug/pprof/* on an
//     opt-in address; every daemon exposes it behind its -debug-addr
//     flag.
//
// The package deliberately depends on the standard library only, sits
// below every other internal package, and costs nothing measurable when
// idle: counters are single atomic adds, and StartSpan on a context
// without a trace returns a nil span whose End is a no-op.
//
// Every metric and span name is documented in OBSERVABILITY.md at the
// repository root beside the code, gate or test that reads it; CI fails
// if a registered name is missing there or has no reader
// (scripts/check_metrics_docs.sh).
package obs
