#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and checks that the two
# sets agree within the benchmark's own bounds: the test the benchmark
# has to pass before any change is measured with it. Run from the root
# of a checkout:
#
#   bash bench/selfcheck.sh [out.json]
#
# A set is every workload at seeds 1..10, untraced; both
# sets use the same seeds, so a count that differs between them is a
# defect and a time that differs is the host. For each end-to-end metric
# x workload it prints both medians, each set's spread
# (the distance between the quartiles as a share of the median, as
# Python's statistics.quantiles(values, n=4) gives them) and a verdict:
#
#   ok          the second median is no worse than the first by more than
#               the bound, and both spreads are within it
#   unresolved  a spread exceeds the bound: the runs disagree by more than
#               the metric is allowed to move (setup_s is exempt)
#   MISS        the second median is worse than the first by more than
#               the bound, or a count (shared_rt_per_ixn,
#               shared_bytes_per_ixn) differs by more than 0.5 % between
#               the two runs of one seed (the last column)
#
# Exits non-zero on any MISS or unresolved row. With an argument, both
# sets' raw values are written there as JSON (bench/results/seed.json is
# one such file).
set -euo pipefail

runs=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=${1:-}
mkdir -p .bench_build
tmp=$(mktemp -d .bench_build/selfcheck.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for set in 1 2; do
	for w in $workloads; do
		for i in $(seq 1 "$runs"); do
			seed=$i
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 >"$tmp/$set.$w.$seed.json"
			echo "set $set $w seed $seed: $(python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); print(d["attempted"], "attempted,", d["failed"], "failed")' "$tmp/$set.$w.$seed.json")" >&2
		done
	done
done

python3 - "$tmp" "$out" <<'EOF'
import glob, json, os, statistics, sys

tmp, out = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
sets = {}
names = [os.path.basename(p).split(".") for p in glob.glob(os.path.join(tmp, "*.json"))]
for s, w, seed, _ in sorted(names, key=lambda n: (n[0], n[1], int(n[2]))):
    path = os.path.join(tmp, f"{s}.{w}.{seed}.json")
    run = json.load(open(path))
    assert run["correct"], path
    for name, m in run["metrics"].items():
        sets.setdefault(w, {}).setdefault(name, {}).setdefault(s, []).append(m["value"])

def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0

bad = 0
counts = ("shared_rt_per_ixn", "shared_bytes_per_ixn")
print(f"{'workload':<11} {'metric':<21} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6} {'per seed':>9}  verdict")
for w in (x["name"] for x in spec["workloads"]):
    for m in spec["end_to_end"]:
        a, b = sets[w][m["name"]]["1"], sets[w][m["name"]]["2"]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        verdict = "ok"
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            verdict = "unresolved"
        # Runs are stored in seed order, so a[i] and b[i] share a seed.
        per_seed = max(abs(y - x) / x for x, y in zip(a, b))
        if worse > m["bound"] or (m["name"] in counts and per_seed > 0.005):
            verdict = "MISS"
        bad += verdict != "ok"
        print(f"{w:<11} {m['name']:<21} {ma:>12.6g} {mb:>12.6g} {worse:>+9.2%} {sa:>9.2%} {sb:>9.2%} {m['bound']:>6.1%} {per_seed:>9.2%}  {verdict}")
if out:
    json.dump({"run_seconds": spec["run_seconds"], "sets": sets}, open(out, "w"), indent=1, sort_keys=True)
    print(f"wrote {out}")
sys.exit(1 if bad else 0)
EOF
