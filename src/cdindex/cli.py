"""Command-line entry point.

One subcommand per computation, all operating on the JSON graph format or
on Coxeter group generators.  Exit status: 0 on success, 1 on a negative
mathematical outcome (an unbalanced graph, a failed identity, a search
hit), 2 on bad input, 3 on an internal error (a bug, reported in one line
instead of a traceback), 141 when its reader closes the stdout pipe
(``head``, say), which ends the output with nothing on stderr.  Every
command returns its exit status, a JSON payload and its text lines, and
``main`` alone prints them: the payload behind ``--json``, the lines
otherwise.  ``alexander`` gives no payload and the lines of the form
asked for, which ``main`` prints as they come: its ``--all`` rows, 2^k
of them for k interior vertices, are written ``_BATCH`` lines at a time
and never held whole, as text or as the lines of ``json_text(rows,
sort_keys=True)``.  Both row writers are here, side by side.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import os
import sys
from pathlib import Path

from . import alexander as alexander_mod
from . import construct as construct_mod
from . import coxeter as coxeter_mod
from . import fixtures as fixtures_mod
from . import qsym as qsym_mod
from .digraph import GraphError, InternalError, load_graph, to_json_dict
from .jsontext import json_text, quote
from .ncpoly import NotInSpan, ab_to_cd, parse_cd

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe

# lines joined into one write: an unbuffered stdout makes each write one
# system call, and a batch this size keeps the rows of ``alexander --all``
# from being held whole
_BATCH = 256


def _parse_subset(text: str) -> frozenset:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(part.strip() for part in text.split(","))


def _interval_names(text: str) -> tuple[str, str]:
    """The two endpoint names of an interval given as 'x:y'."""
    x, colon, y = text.partition(":")
    if not colon:
        raise GraphError(f"interval {text!r} is not of the form x:y")
    return x, y


def _vertices_named(graph, names) -> list:
    """The vertex each name denotes, matched by str(v).

    Vertices read from JSON may be strings or integers, and a name on the
    command line is always a string.
    """
    by_name: dict = {}
    for v in graph.vertices:
        by_name.setdefault(str(v), []).append(v)
    vertices = []
    for name in names:
        matches = by_name.get(name, ())
        if not matches:
            raise GraphError(f"vertex {name!r} not in the graph")
        if len(matches) > 1:
            raise GraphError(f"vertex name {name!r} is ambiguous: {matches!r}")
        vertices.append(matches[0])
    return vertices


def cmd_cdindex(args):
    graph = load_graph(args.graph)
    if args.interval:
        x, y = _vertices_named(graph, _interval_names(args.interval))
    else:
        x, y = graph.zero_hat(), graph.one_hat()
    psi = graph.ab_index(x, y)
    payload = {"interval": [str(x), str(y)], "ab_index": str(psi)}
    try:
        cd = ab_to_cd(psi)
    except NotInSpan as exc:
        payload.update(cd_index=None, residual=exc.factored_residual)
        text = psi if args.ab else f"not a cd-polynomial; residual: {exc.factored_residual}"
        return EXIT_NEGATIVE, payload, [text]
    payload.update(cd_index=str(cd), residual=None)
    return EXIT_OK, payload, [psi if args.ab else cd]


def cmd_balance(args):
    graph = load_graph(args.graph)
    report = graph.is_balanced()
    payload = {
        "balanced": report.balanced,
        "witness": None,
        "cd_index": str(report.cd_index) if report.cd_index is not None else None,
    }
    if report.balanced:
        lines = ["balanced"]
        if report.cd_index is not None:
            lines.append(f"cd-index: {report.cd_index}")
        return EXIT_OK, payload, lines
    w = report.witness
    payload["witness"] = {
        "interval": [str(w.x), str(w.y)],
        "length": w.length,
        "rising": w.rising,
        "falling": w.falling,
    }
    return EXIT_NEGATIVE, payload, [
        "unbalanced",
        f"witness: interval [{w.x}, {w.y}] length {w.length}: "
        f"{w.rising} rising vs {w.falling} falling",
    ]


def _splits(names, bits, lhs, rhs):
    """(the names of S, lhs, rhs) for every split, by size and then in the order of ``names``.

    ``bits[i]`` is the bitmask bit of ``names[i]``, and ``lhs`` and ``rhs``
    hold the two sides by bitmask.
    """
    for k in range(len(names) + 1):
        for c, m in zip(itertools.combinations(names, k), map(sum, itertools.combinations(bits, k))):
            yield c, lhs[m], rhs[m]


def _alexander_line(names, lhs, rhs) -> str:
    subset_text = ",".join(names) or "(empty)"
    return f"S={{{subset_text}}} lhs={lhs} rhs={rhs} {'equal' if lhs == rhs else 'UNEQUAL'}"


def _alexander_json_lines(splits):
    """The lines of ``json_text(rows, sort_keys=True)``, one piece per row of ``splits``.

    ``splits`` yields (names, lhs, rhs) with the names already quoted, and
    its row is ``{"subset": [...names], "lhs": lhs, "rhs": rhs, "equal":
    lhs == rhs}``.  A piece starts with the previous row's closing brace
    (the first with the list's ``[``), so the newline ``main`` ends it with
    falls where json puts one.
    """
    head = "["
    for names, lhs, rhs in splits:
        subset = "[\n      " + ",\n      ".join(names) + "\n    ]" if names else "[]"
        equal = "true" if lhs == rhs else "false"
        yield f'{head}\n  {{\n    "equal": {equal},\n    "lhs": {lhs},\n    "rhs": {rhs},\n    "subset": ' + subset
        head = "  },"
    yield "[]" if head == "[" else "  }\n]"


def cmd_alexander(args):
    graph = load_graph(args.graph)
    graph.zero_hat(), graph.one_hat()  # an unbounded graph: name its sources or sinks
    if args.all:
        # the sweep refuses more than alexander.MAX_SWEEP_INTERIOR interior vertices
        interior, lhs, rhs = alexander_mod.alexander_sweep(graph)
        # a row names its vertices by str(v): refuse names that print alike, as
        # --subset does, and names --subset or the empty row would read otherwise
        _vertices_named(graph, map(str, interior))
        named = sorted((str(v), 1 << i) for i, v in enumerate(interior))
        names, bits = [name for name, _ in named], [bit for _, bit in named]
        for name in names:
            if _parse_subset(name) != {name} or name == "(empty)":
                raise GraphError(f"vertex name {name!r} would read back as another split; rename it")
    else:
        subset = _vertices_named(graph, _parse_subset(args.subset))
        names = sorted(map(str, subset))
        lhs, rhs, _ = alexander_mod.alexander_check(graph, subset)
    # two int lists for --all, two ints for --subset
    code = EXIT_OK if lhs == rhs else EXIT_NEGATIVE
    # only the form asked for is written; the JSON rows quote each name once
    quoted = list(map(quote, names)) if args.json else names
    splits = _splits(quoted, bits, lhs, rhs) if args.all else [(quoted, lhs, rhs)]
    lines = _alexander_json_lines(splits) if args.json else itertools.starmap(_alexander_line, splits)
    return code, None, lines


def cmd_qsym(args):
    graph = load_graph(args.graph)
    rising = qsym_mod.F_rising(graph)
    falling = qsym_mod.omega(rising)
    peak = qsym_mod.peak_membership(rising)
    payload = {
        "rising": rising.to_string(args.basis),
        "falling": falling.to_string(args.basis),
        "peak_algebra": peak,
    }
    return EXIT_OK if peak else EXIT_NEGATIVE, payload, [
        f"F_rising: {payload['rising']}",
        f"F_falling: {payload['falling']}",
        f"peak algebra member: {'yes' if peak else 'no'}",
    ]


# the values `bruhat` prints, by flag, and the BruhatGraph method of each; a
# method is looked up by name on the graph, so one replaced on the class is seen
_BRUHAT_VALUES = {
    "complete_cd": "complete_cd_index",
    "poset_cd": "poset_cd_index",
    "r_poly": "r_polynomial_recursive",
    "r_poly_dyer": "r_polynomial_dyer",
}


def cmd_bruhat(args):
    wanted = [name for name in _BRUHAT_VALUES if getattr(args, name)] or ["complete_cd"]
    if args.type == "A":
        if args.n is None or not args.interval:
            raise GraphError("type A needs --n and --interval \"u:v\"")
        if args.n < 1:
            raise GraphError(f"--n must be at least 1, got {args.n}")
        u_text, v_text = _interval_names(args.interval)
        u = coxeter_mod.parse_permutation(u_text)
        v = coxeter_mod.parse_permutation(v_text)
        if len(u) != args.n or len(v) != args.n:
            raise GraphError("interval endpoints do not match --n")
        bg = coxeter_mod.bruhat_graph_sn(args.n, max_n=args.max_n)
        label = f"[{u}, {v}]"
    else:
        if args.m is None or args.k is None:
            raise GraphError("type I2 needs --m and --k")
        bg = coxeter_mod.dihedral_bruhat_graph(args.m)
        u = bg.identity
        v = coxeter_mod.dihedral_graph(args.m, args.k).one_hat()
        label = f"[identity, length-{args.k} element]"
    values = {name: str(getattr(bg, _BRUHAT_VALUES[name])(u, v)) for name in wanted}
    if len(wanted) == 1:
        lines = [values[wanted[0]]]
    else:
        lines = [f"{name}: {values[name]}" for name in wanted]
    return EXIT_OK, {"interval": label, **values}, lines


def cmd_construct(args):
    target = parse_cd(args.cd)
    construct_mod._check_construct_cost(target)
    graph = construct_mod.realize(target)
    report = graph.is_balanced()
    achieved = report.cd_index
    if not report.balanced or achieved != target:
        raise InternalError(
            f"realization failed: built a graph with balanced={report.balanced} "
            f"and cd-index {achieved}, wanted {target}"
        )
    data = to_json_dict(graph)
    payload = {
        "cd_index": str(achieved),
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "graph": data,
    }
    lines = [
        f"cd-index: {achieved}",
        f"vertices: {len(graph.vertices)}",
        f"edges: {len(graph.edges)}",
    ]
    if args.out:
        Path(args.out).write_text(json_text(data) + "\n", encoding="utf-8")
        payload["written"] = args.out
        lines.append(f"written: {args.out}")
    return EXIT_OK, payload, lines


def cmd_search(args):
    report = construct_mod.conjecture_search(
        seed=args.seed, trials=args.trials, max_vertices=args.max_vertices
    )
    lines = [
        f"trials: {report.trials}",
        f"balanced: {report.balanced_found}",
        f"counterexamples: {len(report.counterexamples)}",
    ] + [
        f"  trial {c.trial}: cd-index {c.cd_index} "
        f"(negative at {', '.join(c.negative_words)}; verified={c.verified})"
        for c in report.counterexamples
    ]
    return EXIT_OK if report.clean else EXIT_NEGATIVE, dataclasses.asdict(report), lines


def cmd_fixtures(args):
    written = [str(p) for p in fixtures_mod.write_fixture_files(args.out_dir)]
    return EXIT_OK, {"written": written}, written


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="cdindex",
        description="ab/cd-indexes, balance, duality, quasisymmetric and "
        "Bruhat-graph computations on labeled acyclic digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cdindex", help="cd-index of a graph interval")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--interval", help="interval endpoints as 'x:y' (default whole graph)")
    p.add_argument("--ab", action="store_true", help="print the ab-index instead")
    p.set_defaults(func=cmd_cdindex)

    p = sub.add_parser("balance", help="balance certificate for a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("alexander", help="duality check for restricted digraphs")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subset", help="comma separated interior vertices")
    group.add_argument("--all", action="store_true", help="sweep every interior subset")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("qsym", help="rising/falling quasisymmetric functions")
    p.add_argument("--graph", required=True)
    p.add_argument("--basis", choices=["L", "M"], default="L")
    p.set_defaults(func=cmd_qsym)

    p = sub.add_parser("bruhat", help="Bruhat graph computations")
    p.add_argument("--type", choices=["A", "I2"], default="A")
    p.add_argument("--n", type=int, help="letters for type A")
    p.add_argument("--interval", help="type A interval 'u:v' in one-line notation")
    p.add_argument("--m", type=int, help="dihedral order parameter for type I2")
    p.add_argument("--k", type=int, help="interval length for type I2")
    p.add_argument("--max-n", type=int, default=coxeter_mod.DEFAULT_MAX_N)
    p.add_argument("--complete-cd", action="store_true", dest="complete_cd")
    p.add_argument("--poset-cd", action="store_true", dest="poset_cd")
    p.add_argument("--r-poly", action="store_true", dest="r_poly")
    p.add_argument("--r-poly-dyer", action="store_true", dest="r_poly_dyer")
    p.set_defaults(func=cmd_bruhat)

    p = sub.add_parser("construct", help="realize a nonnegative cd-polynomial")
    p.add_argument("--cd", required=True, help="target polynomial, e.g. '2*c + 3'")
    p.add_argument("--out", help="write the graph JSON here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="randomized negative-coefficient search")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-vertices", type=int, default=8)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", help="regenerate the bundled example graphs")
    p.add_argument("--out-dir", default="fixtures")
    p.set_defaults(func=cmd_fixtures)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="print the result as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.json and payload is not None:
            lines = [json_text(payload, sort_keys=True)]
        write = sys.stdout.write
        lines = iter(lines)
        while batch := [*itertools.islice(lines, _BATCH)]:
            write("".join(f"{line}\n" for line in batch))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left to
        # the null device so that flush neither fails nor prints
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
