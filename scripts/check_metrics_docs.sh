#!/bin/sh
# Fails if a metric or span name registered in the code is missing from
# OBSERVABILITY.md. Names are extracted from non-test sources:
#
#   - obs.Default.Counter/Gauge/Histogram("literal")
#   - obs.Default.LabeledCounter/LabeledHistogram("base", "key"),
#     documented as base{key=<key>}
#   - Counter/Gauge/Histogram(p + "suffix") where p = "wire.<role>."
#     (the wire package builds its names from a role prefix; both roles
#     are expanded here)
#   - obs.StartSpan(ctx, "name"), documented as span.<name>
#   - forensic event types (EventFoo EventType = "foo" in internal/obs),
#     documented by their type string
#
# Dynamically-built names beyond the known wire roles would evade the
# grep; keep registrations literal so this check stays sound.
set -eu
cd "$(dirname "$0")/.."

doc=OBSERVABILITY.md
fail=0

names=$(
	grep -rho --include='*.go' --exclude='*_test.go' \
		-E 'obs\.Default\.(Counter|Gauge|Histogram)\("[^"]+"\)' internal cmd |
		sed -E 's/.*\("([^"]+)"\).*/\1/'
	# wire.<role>.<suffix> names built in newWireMetrics
	suffixes=$(grep -ho -E '(Counter|Gauge|Histogram)\(p \+ "[^"]+"\)' internal/wire/stats.go |
		sed -E 's/.*\(p \+ "([^"]+)"\).*/\1/')
	for role in client server; do
		for s in $suffixes; do echo "wire.$role.$s"; done
	done
	grep -rho --include='*.go' --exclude='*_test.go' \
		-E 'obs\.StartSpan\([^,]+, "[^"]+"' internal cmd |
		sed -E 's/.*, "([^"]+)".*/span.\1/'
	# package obs registers its own metrics without the obs. qualifier
	grep -rho --include='*.go' --exclude='*_test.go' \
		-E '(^|[^.[:alnum:]_])Default\.(Counter|Gauge|Histogram)\("[^"]+"\)' internal/obs |
		sed -E 's/.*\("([^"]+)"\).*/\1/'
	# labeled families, documented as base{key=<key>}
	grep -rho --include='*.go' --exclude='*_test.go' \
		-E 'obs\.Default\.Labeled(Counter|Histogram)\("[^"]+", *"[^"]+"\)' internal cmd |
		sed -E 's/.*\("([^"]+)", *"([^"]+)"\).*/\1{\2=<\2>}/'
	# the runtime telemetry sampler registers through named constants
	# (runtimeFooName = "runtime.foo"); extract the literals directly
	grep -rho --include='*.go' --exclude='*_test.go' \
		-E '= "runtime\.[^"]+"' internal/obs/prof |
		sed -E 's/.*"([^"]+)".*/\1/'
)

# Forensic event types must be documented by their type string.
event_types=$(
	grep -rho --include='*.go' --exclude='*_test.go' \
		-E 'Event[A-Za-z]+ EventType = "[^"]+"' internal/obs |
		sed -E 's/.*"([^"]+)".*/\1/'
)
for t in $(printf '%s\n' "$event_types" | sort -u); do
	if ! grep -q -F "\`$t\`" "$doc"; then
		echo "undocumented event type: $t (add it to $doc)" >&2
		fail=1
	fi
done

for name in $(printf '%s\n' "$names" | sort -u); do
	if ! grep -q -F "\`$name\`" "$doc"; then
		echo "undocumented metric: $name (add it to $doc)" >&2
		fail=1
	fi
done

# The finder-cache metric family underpins Fig 6/7 round-trip accounting
# and the finder_cache.csv artifact; require it explicitly so a refactor
# to dynamically-built names can't silently drop it from the extraction
# above (which only sees literal registrations).
required="slicache.finder_hits slicache.finder_misses slicache.finder_invalidations slicache.finder_entries"

# The sharded-tier commit-path split feeds shards.csv and the scaling
# acceptance curve; require the router and participant metrics the same
# way so the 2PC story can't silently lose its instrumentation.
required="$required shard.fastpath_commits shard.readonly_commits shard.2pc_commits shard.2pc_aborts shard.2pc_heuristics shard.scatter_queries sqlstore.prepares sqlstore.prepared_commits sqlstore.prepared_aborts sqlstore.presumed_aborts"

# The runtime telemetry sampler feeds the resource.* summary rows and
# the per-phase time series; require its full name set so a rename in
# internal/obs/prof can't silently drop a gated metric's source.
required="$required runtime.gc_pause runtime.sched_latency runtime.heap_live_bytes runtime.heap_goal_bytes runtime.goroutines runtime.goroutines_highwater runtime.allocs_total runtime.alloc_bytes_total runtime.gc_cycles_total runtime.cpu_ms_total"
for name in $required; do
	if ! printf '%s\n' "$names" | grep -q -F -x "$name"; then
		echo "required metric not registered literally in the code: $name" >&2
		fail=1
	fi
	if ! grep -q -F "\`$name\`" "$doc"; then
		echo "undocumented required metric: $name (add it to $doc)" >&2
		fail=1
	fi
done

# Artifact files downstream tooling depends on by name: the perf gate
# loads summary.json, CI reads MANIFEST.json and the Perfetto trace.
# Their schemas must stay documented.
for artifact in summary.json MANIFEST.json trace.perfetto.json waterfalls.txt; do
	if ! grep -q -F "\`$artifact\`" "$doc"; then
		echo "undocumented artifact: $artifact (add it to $doc)" >&2
		fail=1
	fi
done

# The gated metric namespace: the prefixes benchdiff and the CI perf
# gate key on. Renaming one in the summary builder without updating the
# docs (and the baseline) silently un-gates it.
for prefix in latency. sensitivity. wire. throughput. shards. cache. resource.; do
	if ! grep -rho --include='*.go' --exclude='*_test.go' -F "\"$prefix" internal/harness >/dev/null; then
		echo "summary metric prefix no longer built: $prefix (update $doc and results/baseline)" >&2
		fail=1
	fi
	if ! grep -q -F "\`$prefix" "$doc"; then
		echo "undocumented summary metric prefix: $prefix (add it to $doc)" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_metrics_docs: every registered metric name appears in $doc"
