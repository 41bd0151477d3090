#!/usr/bin/env bash
# Records one point of the benchmark trajectory (ROADMAP item 2a): the
# repository benchmark on a parent commit and on the working tree, as
# BENCH_<pr>.json at the repository root. Run from the root of a
# checkout, before committing the change:
#
#   bash scripts/bench_record.sh <pr> [parent-commit, default HEAD]
#
# Both sides run `bash bench/run.sh` exactly as BENCHMARK.json names it:
# every workload at seeds 1..3 untraced (the eight end-to-end metrics),
# then `rbes-lan` seed 1 traced (the per-layer block). The parent is a
# `git archive` of its commit under .bench_build/, so it is built from
# committed files only; the two sides alternate which runs first. About
# ten minutes at the benchmark's 10 s run length.
#
# The file is a record, not a verdict: three seeds are not the ten pairs
# a claimed gain needs (bench/README.md, "Comparing two commits").
set -euo pipefail

pr=${1:?usage: bash scripts/bench_record.sh <pr> [parent-commit]}
parent=$(git rev-parse "${2:-HEAD}")
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

root=$(pwd)
mkdir -p .bench_build
tmp=$(mktemp -d "$root/.bench_build/record.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"

# run <side> <workload> <seed> <trace>: one benchmark run in that side's
# checkout; keeps the JSON line it ends with.
run() {
	local dir=$root
	[ "$1" = parent ] && dir=$tmp/parent
	(cd "$dir" && bash bench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4") |
		tail -n 1 >"$tmp/$1.$2.$3.$4.json"
	echo "$1 $2 seed $3 trace $4: done" >&2
}

first=parent second=change
for w in $workloads; do
	for seed in 1 2 3; do
		run $first "$w" "$seed" 0
		run $second "$w" "$seed" 0
		t=$first first=$second second=$t
	done
done
run parent rbes-lan 1 1
run change rbes-lan 1 1

python3 - "$tmp" "$pr" "$parent" "$seconds" >"BENCH_$pr.json" <<'EOF'
import glob, json, os, sys

tmp, pr, parent, seconds = sys.argv[1:]
out = {
    "pr": int(pr),
    "command": f"bash bench/run.sh --workload W --seed S --seconds {seconds} --trace T",
    "cpus": os.cpu_count(),
    "parent": {"commit": parent, "end_to_end": {}, "per_layer": {}},
    "change": {"commit": f"working tree on {parent[:7]}", "end_to_end": {}, "per_layer": {}},
}
for path in sorted(glob.glob(os.path.join(tmp, "*.json"))):
    side, workload, seed, trace, _ = os.path.basename(path).split(".")
    run = json.load(open(path))
    assert run["correct"], path
    values = {name: m["value"] for name, m in run["metrics"].items()}
    if trace == "0":
        values["attempted"], values["failed"] = run["attempted"], run["failed"]
        out[side]["end_to_end"].setdefault(workload, {})[f"seed{seed}"] = values
    else:
        out[side]["per_layer"][workload] = values
json.dump(out, sys.stdout, indent=1, sort_keys=True)
print()
EOF
echo "wrote BENCH_$pr.json" >&2
