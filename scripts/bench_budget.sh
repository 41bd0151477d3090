#!/bin/sh
# Runs one Go benchmark and holds one unit it reports to a budget.
#
#   sh scripts/bench_budget.sh <pkg> <benchmark> <unit> <max|exact> <value>
#   sh scripts/bench_budget.sh ./internal/wire BenchmarkWireRoundTrip allocs/op max 10
#
# max fails when the benchmark reports more than value; exact fails on
# any other value — for counts such as rts/op, where one round trip more
# or less is a protocol change. The script also fails when the benchmark
# does not run or does not report the unit, so a renamed benchmark
# cannot pass its budget by vanishing.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 5 ]; then
	echo "usage: $0 <pkg> <benchmark> <unit> <max|exact> <value>" >&2
	exit 2
fi
pkg=$1
bench=$2
unit=$3
mode=$4
budget=$5
case "$mode" in
max | exact) ;;
*)
	echo "bench_budget: mode is max or exact, not $mode" >&2
	exit 2
	;;
esac

if ! out=$(go test -run '^$' -bench "^${bench}\$" -benchmem "$pkg" 2>&1); then
	printf '%s\n' "$out"
	echo "bench_budget: $bench failed to run" >&2
	exit 1
fi
printf '%s\n' "$out"
printf '%s\n' "$out" | awk -v bench="$bench" -v unit="$unit" -v mode="$mode" -v budget="$budget" '
	$1 == bench || index($1, bench "-") == 1 {
		for (i = 3; i <= NF; i++) if ($i == unit) { got = $(i - 1) + 0; found = 1 }
	}
	END {
		if (!found) { printf "bench_budget: %s reported no %s\n", bench, unit; exit 1 }
		if ((mode == "max" && got > budget + 0) || (mode == "exact" && got != budget + 0)) {
			printf "bench_budget: %s %s %s, budget %s %s\n", bench, unit, got, mode, budget
			exit 1
		}
		printf "bench_budget: %s %s %s within budget (%s %s)\n", bench, unit, got, mode, budget
	}'
