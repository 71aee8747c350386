"""Record the benchmark's baseline and run-to-run spread in baseline.json.

Usage, from the root of a checkout:

    python3 bench/record.py [--seeds 1-10] [--seconds 15]

Runs every workload untraced once per seed (the workloads take turns, so
a drift in machine speed falls on all of them alike) and then traced once
with the first seed, each run in its own process.  For every end-to-end
metric it prints and records the median, the quartiles and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Each run checks its outputs, and its
output digest against the one baseline.json holds for its workload,
--seconds and seed.  Exits nonzero if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    baseline = json.loads(run.BASELINE.read_text()) if run.BASELINE.is_file() else {}
    runs = {name: [] for name in workloads.WORKLOADS}
    ok = True
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            result = run.child_run(name, seed, args.seconds, 0)
            ok = ok and result["correct"] and result["failed"] == 0
            runs[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)

    untraced, traced = {}, {}
    for name, results in runs.items():
        metrics = {}
        for key, unit in run.END_TO_END:
            metrics[key] = {**summary([r["metrics"][key]["value"] for r in results]), "unit": unit}
        untraced[name] = {"runs": len(results), "seeds": args.seeds, "seconds": args.seconds, "metrics": metrics}
        one = run.child_run(name, args.seeds[0], args.seconds, 1)
        ok = ok and one["correct"] and one["failed"] == 0
        traced[name] = {"seed": args.seeds[0], "metrics": {k: m["value"] for k, m in one["metrics"].items()}}

    print(f"{'workload':14} {'metric':14} {'median':>10} {'spread':>8} {'bound':>6}")
    for name, entry in untraced.items():
        for key, m in entry["metrics"].items():
            flag = "" if m["spread"] < bounds[key] / 3 else "  above a third of the bound"
            print(f"{name:14} {key:14} {m['median']:10.5g} {m['spread']:8.3f} {bounds[key]:6.2f}{flag}")

    baseline["machine"] = {"nproc": len(os.sched_getaffinity(0)),
                           "python": platform.python_version(), "machine": platform.machine(),
                           "system": platform.system()}
    baseline["about"] = (
        "Medians, quartiles and spreads (quartile distance over median) of untraced runs, one per seed, "
        "and one traced run per workload with the first seed, made by bench/record.py on the commit the "
        "benchmark was defined on; times are on the speed scale of bench/calibrate.py.  The digests are "
        "the output digests that runs with the same workload, --seconds and seed must match."
    )
    baseline["untraced"] = untraced
    baseline["traced"] = traced
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("all runs correct" if ok else "some run failed an output check")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
