// Package prof feeds the Go runtime's own meters into the observability
// stack: where internal/obs answers "where did the wall-clock time go",
// prof answers "how much did the process allocate while it went there".
//
// Runtime reads runtime/metrics on an interval and registers heap
// objects and bytes allocated and the goroutine high-water mark in an
// obs.Registry under the runtime.* namespace — the three figures
// tradebench normalizes into summary.json's resource.* metrics, and
// nothing else: CPU time, GC pauses and heap size are host measurements
// the repository benchmark (bench/) reports per workload.
//
// Profiles are not this package's job: every -debug-addr listener
// serves /debug/pprof, and go tool pprof reads, diffs (-base) and
// tabulates (-top) what it serves. OBSERVABILITY.md's "Taking a
// profile" has the commands, and documents the runtime.* names; CI
// fails if one goes undocumented or unread.
package prof
