#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Run from the root of a checkout:
#
#   bash bench/run.sh --workload rbes-lan --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/ (the Go build cache and the toolchain's own telemetry
# counters included), so a run neither reads nor leaves anything
# elsewhere.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout (no bench/go.mod under $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$out/config"
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
