#!/usr/bin/env bash
# Prints the benchmark trajectory (ROADMAP item 2a): for every
# BENCH_<pr>.json at the repository root, in PR order, the median over
# seeds of each end-to-end metric on each workload, parent commit beside
# working tree. Run from the root of a checkout:
#
#   bash scripts/bench_trajectory.sh
#
# Workloads and metrics come in BENCHMARK.json's order; `-` marks a
# pair a record does not hold. A reader of records, not a verdict:
# scripts/bench_record.sh says what three seeds can and cannot show.
set -euo pipefail

python3 - <<'EOF'
import glob, json, statistics

bench = json.load(open("BENCHMARK.json"))
records = sorted((json.load(open(p)) for p in glob.glob("BENCH_*.json")), key=lambda r: r["pr"])
if not records:
    raise SystemExit("bench_trajectory: no BENCH_*.json at the repository root")


def median(record, side, workload, metric):
    seeds = record[side]["end_to_end"].get(workload, {})
    values = [run[metric] for run in seeds.values() if metric in run]
    return f"{statistics.median(values):.4g}" if values else "-"


header = ["workload", "metric"]
for r in records:
    header += [f"{r['pr']}:parent", f"{r['pr']}:change"]
rows = [header]
for w in (w["name"] for w in bench["workloads"]):
    for m in (m["name"] for m in bench["end_to_end"]):
        row = [w, m]
        for r in records:
            row += [median(r, "parent", w, m), median(r, "change", w, m)]
        rows.append(row)
widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
for row in rows:
    print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
EOF
