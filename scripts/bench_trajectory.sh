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
#
# A second table makes timing cells comparable across files recorded on
# hosts of different speed (ROADMAP 2a'): every cell whose unit is a
# time or a rate is scaled by that side's traced rbes-lan wire.echo_rt_ns
# calibration rung relative to the first record's parent side. Times are
# divided by the ratio, rates multiplied; count cells stay raw, and a
# side recorded without the rung prints `-` in its timing cells.
set -euo pipefail

python3 - <<'EOF'
import glob, json, statistics

bench = json.load(open("BENCHMARK.json"))
records = sorted((json.load(open(p)) for p in glob.glob("BENCH_*.json")), key=lambda r: r["pr"])
if not records:
    raise SystemExit("bench_trajectory: no BENCH_*.json at the repository root")
SIDES = ("parent", "change")
# unit -> exponent of the host-speed ratio a value is multiplied by
SCALE = {"s": -1, "ms": -1, "1/s": 1}


def median(record, side, workload, metric):
    seeds = record[side]["end_to_end"].get(workload, {})
    values = [run[metric] for run in seeds.values() if metric in run]
    return statistics.median(values) if values else None


def echo(record, side):
    return record[side].get("per_layer", {}).get("rbes-lan", {}).get("wire.echo_rt_ns")


def table(cell):
    header = ["workload", "metric"]
    for r in records:
        header += [f"{r['pr']}:{side}" for side in SIDES]
    rows = [header]
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            row = [w, m["name"]]
            for r in records:
                for side in SIDES:
                    v = cell(r, side, w, m)
                    row.append("-" if v is None else f"{v:.4g}")
            rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(c.ljust(width) for c, width in zip(row, widths)).rstrip())


table(lambda r, side, w, m: median(r, side, w, m["name"]))

ref = echo(records[0], "parent")
print()
if ref is None:
    print(f"no scaled table: PR {records[0]['pr']}'s parent has no rbes-lan wire.echo_rt_ns")
    raise SystemExit
rungs = "  ".join(f"{r['pr']}:{side}=" + ("-" if echo(r, side) is None else f"{echo(r, side):.0f}")
                  for r in records for side in SIDES)
print(f"timing cells scaled to PR {records[0]['pr']}:parent wire.echo_rt_ns = {ref:.0f} ns")
print(f"rungs (ns): {rungs}")


def scaled(r, side, w, m):
    v = median(r, side, w, m["name"])
    if v is None or m["unit"] not in SCALE:
        return v
    rung = echo(r, side)
    return None if rung is None else v * (rung / ref) ** SCALE[m["unit"]]


table(scaled)
EOF
