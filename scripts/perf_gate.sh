#!/bin/sh
# CI perf gate: run the pinned fixed-seed tradebench leg and compare its
# summary.json against the checked-in baseline with benchdiff.
#
#   sh scripts/perf_gate.sh            # compare against results/baseline
#   sh scripts/perf_gate.sh -update    # regenerate results/baseline
#
# The gate compares only the machine-independent kinds (-gate stable:
# count and ratio) so the checked-in baseline survives a hardware
# change. Sensitivity slopes are counts in principle but are fitted
# through timed latency points, so at this deliberately tiny CI scale
# they wobble 4-9% between identical builds; they get a widened 25%
# budget here. The allocation-per-interaction counts repeat to 0.3% on
# one host and toolchain (the whole-run diff is cut before trace
# assembly, see cmd/tradebench), but the baseline is written by whatever
# Go release its author had and read by the one CI installs from go.mod,
# and the runtime's own allocations move between releases, so they keep
# a 25% budget; a real per-row allocation leak blows far past it. The
# goroutine high-water mark breathes with scheduler timing (a
# late-exiting worker adds a few), so it gets a 50% budget — a leaked
# per-request goroutine multiplies it and still trips. A real protocol
# regression (say, losing write batching) moves wire round trips and
# sensitivities by >100%, which still trips the widened budget with
# room to spare.
#
# Exit status is benchdiff's: 0 clean, 2 on a gated regression.
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
# results/baseline/summary.json exactly.
"$tmp/tradebench" -fig6 -q -sessions 6 -warmup 2 -batches 6 \
	-delays 0ms,1ms -users 10 -symbols 20 -seed 42 -out-dir "$tmp/run"

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

"$tmp/benchdiff" -gate stable \
	-tol sensitivity.es-rdb.cached-ejbs=0.25 \
	-tol sensitivity.es-rdb.jdbc=0.25 \
	-tol sensitivity.es-rdb.vanilla-ejbs=0.25 \
	-tol sensitivity.es-rbes.cached-ejbs=0.25 \
	-tol sensitivity.clients-ras.cached-ejbs=0.25 \
	-tol sensitivity.clients-ras.jdbc=0.25 \
	-tol sensitivity.clients-ras.vanilla-ejbs=0.25 \
	-tol resource.allocs_per_interaction=0.25 \
	-tol resource.alloc_bytes_per_interaction=0.25 \
	-tol resource.goroutine_high_water=0.5 \
	"$baseline" "$tmp/run"
