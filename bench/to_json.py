#!/usr/bin/env python3
"""Convert google-benchmark JSON output into the BENCH trajectory format.

Usage: to_json.py <benchmark_out.json> <BENCH_core.json>

The output is a flat {bench_name: {"items_per_sec": float, "ns_per_op": float}}
map, one entry per benchmark, so successive PRs can diff a stable, minimal
schema. With repetitions, the kept entry is the repetition with the lowest
cpu_time (the minimum is the robust estimator under one-sided machine
noise; run_bench.sh interleaves the repetitions so drift is shared across
families); aggregate rows are ignored.
"""

import json
import sys

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def convert(raw):
    # Per benchmark, the repetition with the lowest cpu_time wins.
    best = {}
    for r in raw["benchmarks"]:
        if r.get("run_type") == "aggregate":
            continue
        name = r.get("run_name", r["name"])
        if name not in best or r["cpu_time"] < best[name]["cpu_time"]:
            best[name] = r
    out = {}
    for name, r in best.items():
        entry = {}
        if "items_per_second" in r:
            entry["items_per_sec"] = r["items_per_second"]
        entry["ns_per_op"] = r["real_time"] * _TIME_UNIT_NS[r.get("time_unit", "ns")]
        # Carry user counters (pool stats, recorder samples/runs/series,
        # scheduler sift levels) through for the record.
        for key, value in r.items():
            if key.startswith("pool_") or key in ("samples", "runs", "series",
                                                  "sift_levels_per_event"):
                entry[key] = value
        out[name] = entry
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        raw = json.load(f)
    with open(sys.argv[2], "w") as f:
        json.dump(convert(raw), f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
