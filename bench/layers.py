"""Which library callables the traced run wraps, and the per-layer metrics.

A metric ``<span>_s`` is the summed self time of the spans of that name;
``cli.self_s`` is what ``cli.main`` spends outside every other span
(argument parsing, JSON and rendering).  Counts come from the spans and
from the hooks below, which read call arguments and results.
"""

from __future__ import annotations

from spans import NAME, Tracer


def _ab_to_cd(counters, args, result, exc):
    counters["ab_terms_in"] += len(args[0].items())
    if exc is None:
        counters["cd_terms_out"] += len(result.items())
    elif type(exc).__name__ == "NotInSpan":
        counters["not_in_span"] += 1


def _search(counters, args, result, exc):
    if exc is None:
        counters["trials"] += result.trials
        counters["balanced_found"] += result.balanced_found


def _restrict(counters, args, result, exc):
    if exc is None:
        counters["restricted_edges"] += len(result.graph.edges)


# (span name, targets, hook); a target is "module:function" or "module:Class.method"
LAYERS = (
    ("cli", ["cdindex.cli:main"], None),
    ("coxeter.build", ["cdindex.coxeter:bruhat_graph_sn", "cdindex.coxeter:dihedral_bruhat_graph"], None),
    ("coxeter.interval", ["cdindex.coxeter:BruhatGraph.interval", "cdindex.coxeter:BruhatGraph.cover_interval"], None),
    ("coxeter.rpoly", ["cdindex.coxeter:BruhatGraph.r_polynomial_recursive",
                       "cdindex.coxeter:BruhatGraph.r_polynomial_dyer"], None),
    ("digraph.init", ["cdindex.digraph:LabeledDigraph.__init__"], None),
    ("digraph.ab_index", ["cdindex.digraph:LabeledDigraph.ab_index", "cdindex.digraph:LabeledDigraph.ab_index_from"], None),
    ("digraph.balance", ["cdindex.digraph:LabeledDigraph.is_balanced"], None),
    ("digraph.rising_falling", ["cdindex.digraph:LabeledDigraph.rising_falling",
                                "cdindex.digraph:LabeledDigraph.capital_rising_falling"], None),
    ("digraph.paths", ["cdindex.digraph:LabeledDigraph.paths"], None),
    ("digraph.load", ["cdindex.digraph:load_graph", "cdindex.digraph:from_json_dict"], None),
    ("ncpoly.ab_to_cd", ["cdindex.ncpoly:ab_to_cd"], _ab_to_cd),
    ("construct.realize", ["cdindex.construct:realize"], None),
    ("construct.glue", ["cdindex.construct:glue_sum"], None),
    ("construct.join", ["cdindex.construct:d_join"], None),
    ("construct.butterfly", ["cdindex.construct:butterfly"], None),
    ("construct.search", ["cdindex.construct:conjecture_search"], _search),
    ("qsym.F", ["cdindex.qsym:F_rising", "cdindex.qsym:F_falling"], None),
    ("qsym.gamma", ["cdindex.qsym:gamma", "cdindex.qsym:gamma_inverse"], None),
    ("qsym.peak", ["cdindex.qsym:peak_membership"], None),
    ("alexander.check", ["cdindex.alexander:alexander_check"], None),
    ("alexander.restrict", ["cdindex.alexander:restrict"], _restrict),
    ("alexander.parity", ["cdindex.alexander:parity_condition"], None),
)

# the workload on which each span must fire (checked by the self-test)
SPAN_WORKLOAD = {
    "cli": "search_small",
    "coxeter.build": "bruhat_s6",
    "coxeter.interval": "bruhat_s6",
    "coxeter.rpoly": "bruhat_s6",
    "digraph.init": "search_small",
    "digraph.ab_index": "bruhat_s6",
    "digraph.balance": "realize_glue",
    "digraph.rising_falling": "bruhat_s6",
    "digraph.paths": "qsym_duality",
    "digraph.load": "qsym_duality",
    "ncpoly.ab_to_cd": "bruhat_s6",
    "construct.realize": "realize_glue",
    "construct.glue": "realize_glue",
    "construct.join": "realize_glue",
    "construct.butterfly": "realize_glue",
    "construct.search": "search_small",
    "qsym.F": "qsym_duality",
    "qsym.gamma": "qsym_duality",
    "qsym.peak": "qsym_duality",
    "alexander.check": "qsym_duality",
    "alexander.restrict": "qsym_duality",
    "alexander.parity": "qsym_duality",
}

COUNTS = (
    "digraph.init_calls", "digraph.balance_calls", "digraph.paths_yielded",
    "ncpoly.ab_to_cd_calls", "ncpoly.ab_terms_in", "ncpoly.cd_terms_out", "ncpoly.not_in_span",
    "construct.trials", "alexander.check_calls", "alexander.restricted_edges",
)
RATIOS = (
    "ncpoly.cd_per_ab", "construct.balance_per_realize",
    "construct.balanced_hit_rate", "alexander.balance_per_check",
)


def _self_metric(span: str) -> str:
    return "cli.self_s" if span == "cli" else span + "_s"


PER_LAYER = (
    [(_self_metric(name), "s") for name, _, _ in LAYERS]
    + [(name, "count") for name in COUNTS]
    + [(name, "ratio") for name in RATIOS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.loop_s", "s")]
)


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced run, without the trace.* entries."""
    own = tracer.self_times()
    seconds: dict = {}
    calls: dict = {}
    for span, t in zip(tracer.spans, own):
        seconds[span[NAME]] = seconds.get(span[NAME], 0.0) + t
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1

    def nested(name: str, ancestor: str) -> int:
        return sum(
            1 for i, span in enumerate(tracer.spans)
            if span[NAME] == name and tracer.has_ancestor(i, ancestor)
        )

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    c = tracer.counters
    values = {_self_metric(name): seconds.get(name, 0.0) for name, _, _ in LAYERS}
    values.update({
        "digraph.init_calls": calls.get("digraph.init", 0),
        "digraph.balance_calls": calls.get("digraph.balance", 0),
        "digraph.paths_yielded": c["digraph.paths.yielded"],
        "ncpoly.ab_to_cd_calls": calls.get("ncpoly.ab_to_cd", 0),
        "ncpoly.ab_terms_in": c["ab_terms_in"],
        "ncpoly.cd_terms_out": c["cd_terms_out"],
        "ncpoly.not_in_span": c["not_in_span"],
        "construct.trials": c["trials"],
        "alexander.check_calls": calls.get("alexander.check", 0),
        "alexander.restricted_edges": c["restricted_edges"],
        "ncpoly.cd_per_ab": ratio(c["cd_terms_out"], c["ab_terms_in"]),
        "construct.balance_per_realize": ratio(
            nested("digraph.balance", "construct.realize"), calls.get("construct.realize", 0)),
        "construct.balanced_hit_rate": ratio(c["balanced_found"], c["trials"]),
        "alexander.balance_per_check": ratio(
            nested("digraph.balance", "alexander.check"), calls.get("alexander.check", 0)),
    })
    return values
