#!/bin/sh
# CI perf gate: run the pinned fixed-seed tradebench leg and compare its
# summary.json against the checked-in baseline with benchdiff.
#
#   sh scripts/perf_gate.sh            # compare against results/baseline
#   sh scripts/perf_gate.sh -update    # regenerate results/baseline
#
# One client at a fixed seed makes every exact row (wire.* round trips
# and bytes per interaction, cache.finder_hit_ratio) a count of what the
# protocol did, repeated bit for bit on any machine: the harness waits
# for every pushed invalidation notice before it snapshots a count. So
# benchdiff fails on any difference in an exact row, better or worse,
# and a change that moves one commits the regenerated baseline with it.
# Measured rows (latencies, fitted slopes, resource totals) are printed
# for a reader and never judged; per-operation allocations are gated by
# CI's bench_budget.sh lines instead.
#
# Exit status is benchdiff's: 0 clean, 2 when an exact row moved.
set -eu
cd "$(dirname "$0")/.."

baseline=results/baseline
update=0
if [ "${1:-}" = "-update" ]; then
	update=1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/tradebench" ./cmd/tradebench
go build -o "$tmp/benchdiff" ./cmd/benchdiff

# The pinned leg: fixed seed, fixed scale, two delay points so every
# sweep has a sensitivity slope. Must match the leg that produced
# results/baseline/summary.json exactly. It runs inside $tmp with a
# relative -out-dir, so the command line the summary echoes is the same
# on every run.
(cd "$tmp" && ./tradebench -fig6 -q -sessions 6 -warmup 2 -batches 6 \
	-delays 0ms,1ms -users 10 -symbols 20 -seed 42 -out-dir run)

if [ "$update" = 1 ]; then
	mkdir -p "$baseline"
	cp "$tmp"/run/run-*/summary.json "$baseline/summary.json"
	echo "perf_gate: baseline updated at $baseline/summary.json"
	exit 0
fi

if [ ! -f "$baseline/summary.json" ]; then
	echo "perf_gate: no baseline at $baseline/summary.json (run with -update to create one)" >&2
	exit 1
fi

"$tmp/benchdiff" "$baseline" "$tmp/run"
