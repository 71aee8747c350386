"""Benchmark of the cdindex command line, run in-process through cli.main.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One run generates the operations of a workload from the seed, runs each
as one ``cli.main(argv)`` call with stdout captured, checks every output
exactly, and prints metrics.  The operations form workloads.ROUNDS passes
over the workload's slot list, each set up afresh: the library is imported
again, the round's inputs are generated and, for bruhat_s6, the S6 Bruhat
graph is built.  Set-up is timed SETUP_REPS times before each round and
setup_s is the median of all of them.  The latency of a slot is the
median of its rounds; wall_s is their sum, the time of one pass, and
op_p50_ms and op_tail_ms are Harrell-Davis percentile estimates over the
slots, which weigh the neighbouring order statistics and so do not jump
when noise reorders slots of different cost.  Every operation and set-up
time is put on a fixed machine-speed scale by the probes of calibrate.py,
which run between operations, so that the drift in speed of a shared
machine does not show as a change of the program; the unscaled time of a
round is printed on a line of its own.  The amount of work scales with
--seconds: the slot lists take about NOMINAL_SECONDS at the commit the
benchmark was defined on.  The last line of stdout is a JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every round
twice, untraced and with the library callables listed in layers.py
wrapped, and reports the per-layer metrics of the traced passes, the
tracing overhead (traced minus untraced wall_s; the passes alternate, so a
drift in machine speed hits both alike) and the traced time of all
rounds (trace.loop_s); it writes the spans to .bench_out/trace-NAME.jsonl.

--workload all runs every workload in its own process, prints each metric
with its unit, and exits nonzero if any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import workloads
from calibrate import SpeedClock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
SETUP_REPS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def import_library():
    """Import cdindex afresh from the checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "cdindex" or m.startswith("cdindex.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cdindex = importlib.import_module("cdindex")
    importlib.import_module("cdindex.cli")
    if Path(cdindex.__file__).resolve().parent != SRC / "cdindex":
        raise ImportError(f"cdindex was imported from {cdindex.__file__}, not from {SRC}")
    return cdindex


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` values beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def harrell_davis(sorted_values, pct: int) -> float:
    """Harrell-Davis estimate of a percentile: order statistics weighted by a Beta law."""
    n = len(sorted_values)
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w / (steps * n))
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def recorded_digest(name: str, seed: int, seconds: float):
    if not BASELINE.is_file():
        return None
    table = json.loads(BASELINE.read_text(encoding="utf-8")).get("digests", {})
    return table.get(name, {}).get(f"{seconds:g}", {}).get(str(seed))


def slot_latencies(latencies: list) -> list:
    """Sorted latency of each slot: the median over its rounds."""
    per_round = len(latencies) // workloads.ROUNDS
    return sorted(statistics.median(latencies[j::per_round]) for j in range(per_round))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.WORKLOADS[name]
    workloads.slots_for(name)  # static class tables, built once outside the set-up timing
    tracer = Tracer() if trace else None
    clock = SpeedClock()
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    setup_spans = []  # (start, end) of every set-up
    made = []  # (op, rc, stdout) of every operation of every pass
    results = []  # (rc, stdout) of the reported passes
    op_spans = {False: [], True: []}  # (start, end) of every operation, by whether the pass was traced
    loop = 0.0
    try:
        for round_no in range(workloads.ROUNDS):
            roundir = workdir / f"round{round_no}"
            # in trace mode the order alternates, so neither pass always runs on a warmer heap
            for traced in ((False, True), (True, False))[round_no % 2] if trace else (False,):
                for _ in range(SETUP_REPS):
                    clock.maybe_probe()
                    shutil.rmtree(roundir, ignore_errors=True)
                    roundir.mkdir(parents=True)
                    gc.collect()  # drop the previous set-up's modules before timing
                    t0 = perf_counter()
                    cdindex = import_library()
                    if traced:
                        tracer.install("cdindex", layers.LAYERS)
                        tracer.recording = True
                    with contextlib.redirect_stdout(io.StringIO()):
                        round_ops = workloads.generate(name, seed, seconds, round_no, roundir, cdindex.cli.main)
                    if spec.needs_group:
                        cdindex.coxeter.bruhat_graph_sn(spec.needs_group)
                    setup_spans.append((t0, perf_counter()))

                main = cdindex.cli.main
                clock.probe()
                start, probing = perf_counter(), clock.spent
                for op in round_ops:
                    t0 = perf_counter()
                    root = tracer.begin_op(len(results)) if traced else None
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            rc = main(list(op.argv))
                    except SystemExit as exc:
                        rc = exc.code if isinstance(exc.code, int) else 2
                    except Exception as exc:  # an escaped exception is a failed operation
                        rc = f"{type(exc).__name__}: {exc}"
                    if root is not None:
                        tracer.end_op(root)
                    op_spans[traced].append((t0, perf_counter()))
                    made.append((op, rc, out.getvalue()))
                    if traced == trace:
                        results.append((rc, out.getvalue()))
                    clock.maybe_probe()
                if traced == trace:
                    loop += perf_counter() - start - (clock.spent - probing)
        clock.probe()
        if tracer is not None:
            tracer.recording = False

        failures = []
        failed_ops = 0
        for i, (op, rc, stdout) in enumerate(made):
            try:
                problem = workloads.check(op, rc, stdout, cdindex)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failed_ops += 1
                failures.append(f"op {i} {' '.join(op.argv)}: {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    expected = recorded_digest(name, seed, seconds)
    if expected is not None and expected != digest:
        failures.append(f"output digest {digest} differs from the recorded {expected}")
    latencies = {k: [clock.scale(*span) for span in spans] for k, spans in op_spans.items()}
    slots = slot_latencies(latencies[trace])
    pct = tail_percentile(len(slots))
    metrics = {
        "wall_s": sum(slots),
        "op_p50_ms": 1000 * harrell_davis(slots, 50),
        "op_tail_ms": 1000 * harrell_davis(slots, pct),
        "setup_s": statistics.median(clock.scale(*span) for span in setup_spans),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": metrics,
        "attempted": len(made),
        "failed": failed_ops,
        "failures": failures,
        "digest": digest,
        "tail_pct": pct,
        "loop_s": loop,
        "raw_wall_s": sum(end - start for start, end in op_spans[trace]) / workloads.ROUNDS,
        "probe_s": statistics.median(clock.times),
        "untraced_wall_s": sum(slot_latencies(latencies[False])),
        "tracer": tracer,
    }


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def single(name: str, seed: int, seconds: float, trace: bool) -> int:
    run = run_workload(name, seed, seconds, trace)
    for failure in run["failures"]:
        print(f"FAIL {name}: {failure}", file=sys.stderr)
    correct = not run["failures"]
    attempted, failed = run["attempted"], run["failed"]
    print(f"{name}: {attempted} ops in {workloads.ROUNDS} rounds, tail percentile p{run['tail_pct']}, "
          f"fail_frac {failed / attempted:.4f}, digest {run['digest']}")
    print(f"unscaled wall {run['raw_wall_s']:.4f} s per round, median probe {1000 * run['probe_s']:.3f} ms")
    if trace:
        tracer = run["tracer"]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{name}.jsonl")
        values = layers.per_layer_metrics(tracer)
        values["trace.wall_s"] = run["metrics"]["wall_s"]
        values["trace.loop_s"] = run["loop_s"]
        values["trace.overhead_s"] = run["metrics"]["wall_s"] - run["untraced_wall_s"]
        units = dict(layers.PER_LAYER)
    else:
        values = run["metrics"]
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    summary = {}
    ok = True
    for name in workloads.WORKLOADS:
        result = child_run(name, seed, seconds, trace)
        summary[name] = result
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={result['failed'] / result['attempted']:.4f}")
        for key, m in result["metrics"].items():
            print(f"  {name} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cdindex" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'cdindex'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return single(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
