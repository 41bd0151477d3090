#!/bin/sh
# Self-test for the regression engine: prove benchdiff can tell "same
# build run twice" from "build with a real protocol regression" before
# trusting it to gate CI.
#
#   Leg A, Leg B  identical fixed-seed runs -> benchdiff must exit 0:
#                 every exact row (wire.*, cache.*) repeats bit for bit,
#                 and the measured rows, which differ, are never judged
#   Leg C         same build with -batch=false -finder-cache=false (the
#                 paper's untuned behaviour) -> benchdiff must exit 2 and
#                 flag the ES/RDB round-trip rows: losing statement
#                 batching adds one round trip per write-back statement
#                 (wire.es-rdb.vanilla-ejbs.rts_per_interaction
#                 3.9929 -> 8.5890, +115%) and one per memento image of
#                 a cached-EJB commit
#                 (wire.es-rdb.cached-ejbs.rts_per_interaction
#                 1.6249 -> 4.8901, +201%)
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/tradebench" ./cmd/tradebench
go build -o "$tmp/benchdiff" ./cmd/benchdiff

leg='-fig6 -q -sessions 6 -warmup 2 -batches 6 -delays 0ms,1ms -users 10 -symbols 20 -seed 42'

# shellcheck disable=SC2086 # $leg is a fixed word list, splitting is intended
"$tmp/tradebench" $leg -out-dir "$tmp/a"
# shellcheck disable=SC2086
"$tmp/tradebench" $leg -out-dir "$tmp/b"

echo "== same build, same seed: expect every exact row unchanged =="
if ! "$tmp/benchdiff" "$tmp/a" "$tmp/b"; then
	echo "perf_selftest: FAIL: identical builds reported a changed exact row" >&2
	exit 1
fi

# shellcheck disable=SC2086
"$tmp/tradebench" $leg -batch=false -finder-cache=false -out-dir "$tmp/c"

echo "== batching and finder cache off: expect ES/RDB round-trip regressions =="
rc=0
"$tmp/benchdiff" "$tmp/a" "$tmp/c" >"$tmp/diff.out" || rc=$?
cat "$tmp/diff.out"
if [ "$rc" != 2 ]; then
	echo "perf_selftest: FAIL: degraded leg exited $rc, want 2" >&2
	exit 1
fi
for pair in vanilla-ejbs cached-ejbs; do
	if ! grep -E "wire\.es-rdb\.$pair\.rts_per_interaction .*\+.*regressed" "$tmp/diff.out" >/dev/null; then
		echo "perf_selftest: FAIL: wire.es-rdb.$pair.rts_per_interaction not flagged (with -batch=false every statement pays its own round trip again)" >&2
		exit 1
	fi
done

echo "perf_selftest: ok (clean A/B, degraded leg flagged on both ES/RDB round-trip rows)"
