#!/usr/bin/env python3
"""Summarises a set of benchmark runs: per workload and end-to-end metric,
the median over runs and the inter-quartile spread as a share of it (the
steadiness rule `BENCHMARK.json` bounds are checked with).

    python3 perfbench/spread.py [RESULT.json ...]

Without arguments it reads every `--trace 0` result record under
`.bench_build/perfbench/` (one per workload and seed).
"""

import glob
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(paths):
    if not paths:
        paths = sorted(glob.glob(os.path.join(ROOT, ".bench_build", "perfbench",
                                              "result-*-trace0.json")))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        for name, m in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(m["value"])
    for (workload, name), vals in sorted(values.items()):
        spread = stats.spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  (above a third of the bound)"
        print(f"{workload:14s} {name:14s} runs={len(vals):3d} median={stats.median(vals):<12.6g}"
              f" spread={spread:.4f} bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
