"""Command-line entry point.

One subcommand per computation, all operating on the JSON graph format or
on Coxeter group generators.  Exit status: 0 on success, 1 on a negative
mathematical outcome (an unbalanced graph, a failed identity, a search
hit), 2 on bad input, 3 on an internal error (a bug, reported in one line
instead of a traceback).  Every textual output has a machine-readable
mirror behind ``--json``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from . import alexander as alexander_mod
from . import construct as construct_mod
from . import coxeter as coxeter_mod
from . import fixtures as fixtures_mod
from . import qsym as qsym_mod
from .digraph import GraphError, InternalError, NoPath, load_graph, to_json_dict
from .ncpoly import NotInSpan, ab_to_cd, parse_cd

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


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


def cmd_cdindex(args) -> int:
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
        payload.update(cd_index=None, residual=str(exc.residual))
        if args.json:
            _emit_json(payload)
        elif args.ab:
            print(psi)
        else:
            print(f"not a cd-polynomial; residual: {exc.residual}")
        return EXIT_NEGATIVE
    payload.update(cd_index=str(cd), residual=None)
    if args.json:
        _emit_json(payload)
    else:
        print(psi if args.ab else cd)
    return EXIT_OK


def cmd_balance(args) -> int:
    graph = load_graph(args.graph)
    report = graph.is_balanced()
    payload = {
        "balanced": report.balanced,
        "witness": None,
        "cd_index": str(report.cd_index) if report.cd_index is not None else None,
    }
    if report.witness:
        w = report.witness
        payload["witness"] = {
            "interval": [str(w.x), str(w.y)],
            "length": w.length,
            "rising": w.rising,
            "falling": w.falling,
        }
    if args.json:
        _emit_json(payload)
    elif report.balanced:
        print("balanced")
        if report.cd_index is not None:
            print(f"cd-index: {report.cd_index}")
    else:
        w = report.witness
        print("unbalanced")
        print(
            f"witness: interval [{w.x}, {w.y}] length {w.length}: "
            f"{w.rising} rising vs {w.falling} falling"
        )
    return EXIT_OK if report.balanced else EXIT_NEGATIVE


def cmd_alexander(args) -> int:
    graph = load_graph(args.graph)
    interior = sorted(
        set(graph.vertices) - {graph.zero_hat(), graph.one_hat()}, key=str
    )
    if args.all:
        subsets = [
            frozenset(c)
            for k in range(len(interior) + 1)
            for c in itertools.combinations(interior, k)
        ]
    else:
        subsets = [frozenset(_vertices_named(graph, _parse_subset(args.subset)))]
    rows = [
        {
            "subset": sorted(map(str, subset)),
            "lhs": result.lhs,
            "rhs": result.rhs,
            "equal": result.equal,
        }
        for subset, result in zip(subsets, alexander_mod.alexander_sweep(graph, subsets))
    ]
    if args.json:
        _emit_json(rows)
    else:
        for row in rows:
            mark = "equal" if row["equal"] else "UNEQUAL"
            subset_text = ",".join(row["subset"]) or "(empty)"
            print(f"S={{{subset_text}}} lhs={row['lhs']} rhs={row['rhs']} {mark}")
    return EXIT_OK if all(r["equal"] for r in rows) else EXIT_NEGATIVE


def cmd_qsym(args) -> int:
    graph = load_graph(args.graph)
    rising = qsym_mod.F_rising(graph)
    falling = qsym_mod.F_falling(graph)
    peak = qsym_mod.peak_membership(rising)
    payload = {
        "rising": rising.to_string(args.basis),
        "falling": falling.to_string(args.basis),
        "peak_algebra": peak,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"F_rising: {payload['rising']}")
        print(f"F_falling: {payload['falling']}")
        print(f"peak algebra member: {'yes' if peak else 'no'}")
    return EXIT_OK if peak else EXIT_NEGATIVE


def _bruhat_values(args):
    wanted = [
        name
        for name, flag in (
            ("complete_cd", args.complete_cd),
            ("poset_cd", args.poset_cd),
            ("r_poly", args.r_poly),
            ("r_poly_dyer", args.r_poly_dyer),
        )
        if flag
    ]
    if not wanted:
        wanted = ["complete_cd"]
    if args.type == "A":
        if not args.n or not args.interval:
            raise GraphError("type A needs --n and --interval \"u:v\"")
        u_text, v_text = _interval_names(args.interval)
        u = coxeter_mod.parse_permutation(u_text)
        v = coxeter_mod.parse_permutation(v_text)
        if len(u) != args.n or len(v) != args.n:
            raise GraphError("interval endpoints do not match --n")
        bg = coxeter_mod.bruhat_graph_sn(args.n, max_n=args.max_n)
        label = f"[{u}, {v}]"
    else:
        if not args.m or args.k is None:
            raise GraphError("type I2 needs --m and --k")
        bg = coxeter_mod.dihedral_bruhat_graph(args.m)
        u = bg.identity
        v = coxeter_mod.dihedral_graph(args.m, args.k).one_hat()
        label = f"[identity, length-{args.k} element]"
    values = {}
    for name in wanted:
        if name == "complete_cd":
            values[name] = str(bg.complete_cd_index(u, v))
        elif name == "poset_cd":
            values[name] = str(bg.poset_cd_index(u, v))
        elif name == "r_poly":
            values[name] = str(bg.r_polynomial_recursive(u, v))
        else:
            values[name] = str(bg.r_polynomial_dyer(u, v))
    return label, wanted, values


def cmd_bruhat(args) -> int:
    try:
        label, wanted, values = _bruhat_values(args)
    except NoPath as exc:
        raise GraphError(str(exc)) from None
    if args.json:
        _emit_json({"interval": label, **values})
    elif len(wanted) == 1:
        print(values[wanted[0]])
    else:
        for name in wanted:
            print(f"{name}: {values[name]}")
    return EXIT_OK


def cmd_construct(args) -> int:
    target = parse_cd(args.cd)
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
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        payload["written"] = args.out
    if args.json:
        _emit_json(payload)
    else:
        print(f"cd-index: {achieved}")
        print(f"vertices: {len(graph.vertices)}")
        print(f"edges: {len(graph.edges)}")
        if args.out:
            print(f"written: {args.out}")
    return EXIT_OK


def cmd_search(args) -> int:
    report = construct_mod.conjecture_search(
        seed=args.seed, trials=args.trials, max_vertices=args.max_vertices
    )
    payload = {
        "seed": report.seed,
        "trials": report.trials,
        "max_vertices": report.max_vertices,
        "balanced_found": report.balanced_found,
        "counterexamples": [
            {
                "trial": c.trial,
                "graph": c.graph,
                "cd_index": c.cd_index,
                "negative_words": list(c.negative_words),
                "verified": c.verified,
            }
            for c in report.counterexamples
        ],
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"trials: {report.trials}")
        print(f"balanced: {report.balanced_found}")
        print(f"counterexamples: {len(report.counterexamples)}")
        for c in report.counterexamples:
            print(
                f"  trial {c.trial}: cd-index {c.cd_index} "
                f"(negative at {', '.join(c.negative_words)}; verified={c.verified})"
            )
    return EXIT_OK if report.clean else EXIT_NEGATIVE


def cmd_fixtures(args) -> int:
    paths = fixtures_mod.write_fixture_files(args.out_dir)
    if args.json:
        _emit_json({"written": [str(p) for p in paths]})
    else:
        for p in paths:
            print(p)
    return EXIT_OK


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cdindex)

    p = sub.add_parser("balance", help="balance certificate for a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("alexander", help="duality check for restricted digraphs")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subset", help="comma separated interior vertices")
    group.add_argument("--all", action="store_true", help="sweep every interior subset")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("qsym", help="rising/falling quasisymmetric functions")
    p.add_argument("--graph", required=True)
    p.add_argument("--basis", choices=["L", "M"], default="L")
    p.add_argument("--json", action="store_true")
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bruhat)

    p = sub.add_parser("construct", help="realize a nonnegative cd-polynomial")
    p.add_argument("--cd", required=True, help="target polynomial, e.g. '2*c + 3'")
    p.add_argument("--out", help="write the graph JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="randomized negative-coefficient search")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-vertices", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", help="regenerate the bundled example graphs")
    p.add_argument("--out-dir", default="fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, alexander_mod.PreconditionFailed, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
