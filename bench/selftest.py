"""Self-test of the benchmark harness on reduced inputs.

Usage, from the root of a checkout:

    python3 bench/selftest.py [--seconds 1]

For every workload it makes two traced runs with the same seed and checks
that every span named for the workload fires, that self times are
nonnegative and add up to the traced loop time, and that every count
repeats exactly.  It also checks that two seeds give different inputs with
the same number of operations.  Exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys

import layers
import run
import workloads
from spans import NAME, OP, PARENT, Tracer


def load_spans(name: str) -> Tracer:
    tracer = Tracer()
    with open(run.OUT / f"trace-{name}.jsonl", encoding="utf-8") as fh:
        tracer.spans = [json.loads(line) for line in fh]
    return tracer


def inputs(name: str, seed: int, seconds: float, cli_main) -> list:
    """The operations of a run as (argv, graph file text) with paths made relative."""
    workdir = run.OUT / f"selftest-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = []
    try:
        for round_no in range(workloads.ROUNDS):
            roundir = workdir / f"round{round_no}"
            roundir.mkdir(parents=True)
            with contextlib.redirect_stdout(io.StringIO()):
                ops += workloads.generate(name, seed, seconds, round_no, roundir, cli_main)
        result = []
        for op in ops:
            argv = list(op.argv)
            text = None
            if "--graph" in argv:
                i = argv.index("--graph") + 1
                with open(argv[i], encoding="utf-8") as fh:
                    text = fh.read()
                argv[i] = argv[i].replace(str(workdir), "")
            result.append((argv, text))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    counted = [m for m, unit in layers.PER_LAYER if unit != "s"]
    cdindex = run.import_library()
    for name in workloads.WORKLOADS:
        first = run.child_run(name, 1, args.seconds, 1)
        tracer = load_spans(name)
        second = run.child_run(name, 1, args.seconds, 1)
        expect(first["correct"] and first["failed"] == 0, f"{name}: outputs correct")

        fired = {span[NAME] for span in tracer.spans}
        for span, home in layers.SPAN_WORKLOAD.items():
            if home == name:
                expect(span in fired, f"{name}: span {span} fires")

        own = tracer.self_times()
        expect(min(own) >= -1e-6, f"{name}: self times are nonnegative")
        loop = first["metrics"]["trace.loop_s"]["value"]
        overhead = first["metrics"]["trace.overhead_s"]["value"] * workloads.ROUNDS
        in_ops = sum(t for span, t in zip(tracer.spans, own) if span[OP] >= 0)
        expect(
            abs(loop - in_ops) <= max(abs(overhead), 0.02 * loop),
            f"{name}: op self times sum to {in_ops:.4f} s, traced loop {loop:.4f} s",
        )
        roots = [span for span in tracer.spans if span[OP] >= 0 and span[PARENT] < 0]
        expect(all(span[NAME] == "op" for span in roots), f"{name}: every op span hangs under its op root")

        differ = [m for m in counted if first["metrics"][m] != second["metrics"][m]]
        expect(not differ, f"{name}: counts repeat exactly across two runs {differ or ''}")

        one = inputs(name, 1, args.seconds, cdindex.cli.main)
        two = inputs(name, 2, args.seconds, cdindex.cli.main)
        expect(len(one) == len(two) and one != two,
               f"{name}: seeds 1 and 2 give different inputs, {len(one)} and {len(two)} ops")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
