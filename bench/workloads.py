"""Seeded inputs and exact output checks for the four benchmark workloads.

Every input is generated here from the workload seed, and the program sees
only argv lists and graph files.  The code here does not import the
library; only the realized graphs of qsym_duality are written, during
set-up, by the library's own construct command.

Operation costs in these workloads are heavy-tailed (a length-11 S6
interval costs about 100 times a length-4 one), so a uniformly random
sample would make the per-run totals depend on the seed more than on the
program.  Each workload therefore has a fixed list of *slots*, one per
operation; a slot names a cost class (an interval length and size, or a
cd-polynomial shape), and the seed picks a random member of that class.
The classes come from static tables that depend on no seed.

On a shared 2-vCPU virtual machine the speed of the same code drifts by
10-40% over seconds to minutes.  A run therefore makes ROUNDS passes over the slot list, each with fresh inputs
and a freshly imported library, and reports per slot the median of its
rounds.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

# ROUNDS passes over a slot list take about this long on a 2-vCPU VM with Python 3.11
NOMINAL_SECONDS = 15
ROUNDS = 3
MIN_SLOTS = 4


class Op(NamedTuple):
    argv: tuple
    kind: str
    data: tuple = ()


# -- symmetric groups, built without the library -------------------------------


class SymGroup(NamedTuple):
    perms: tuple  # one-line notation strings, ordered by (length, perm)
    lengths: tuple
    out: tuple  # out[a] = ((b, "ij"), ...) Bruhat edges a -> b labelled by (i, j)
    desc: tuple  # bitsets of the elements above each element
    anc: tuple


@lru_cache(maxsize=None)
def sym_group(n: int) -> SymGroup:
    def inversions(p):
        return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])

    perms = sorted(itertools.permutations(range(1, n + 1)), key=lambda p: (inversions(p), p))
    index = {p: a for a, p in enumerate(perms)}
    lengths = [inversions(p) for p in perms]
    out = []
    for a, p in enumerate(perms):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                q = list(p)
                q[i], q[j] = q[j], q[i]
                b = index[tuple(q)]
                if lengths[b] > lengths[a]:
                    edges.append((b, f"{i + 1}{j + 1}"))
        out.append(tuple(edges))
    desc = [0] * len(perms)
    for a in reversed(range(len(perms))):
        mask = 1 << a
        for b, _ in out[a]:
            mask |= desc[b]
        desc[a] = mask
    anc = [1 << a for a in range(len(perms))]
    for a in range(len(perms)):
        for b, _ in out[a]:
            anc[b] |= anc[a]
    return SymGroup(
        tuple("".join(map(str, p)) for p in perms), tuple(lengths), tuple(out), tuple(desc), tuple(anc)
    )


def _members(group: SymGroup, a: int, b: int) -> list:
    mask = group.desc[a] & group.anc[b]
    return [x for x in range(len(group.perms)) if mask >> x & 1]


@lru_cache(maxsize=None)
def interval_classes(n: int, lo: int, hi: int, with_edges: bool) -> dict:
    """Intervals [a, b] of S_n with length difference in [lo, hi], by class.

    The class is (length difference, vertex count), plus the edge count
    when ``with_edges`` is set.
    """
    group = sym_group(n)
    classes: dict = {}
    for a in range(len(group.perms)):
        above = group.desc[a]
        for b in range(len(group.perms)):
            k = group.lengths[b] - group.lengths[a]
            if not (lo <= k <= hi and above >> b & 1):
                continue
            mask = above & group.anc[b]
            key = (k, mask.bit_count())
            if with_edges:
                members = _members(group, a, b)
                key += (sum(1 for x in members for y, _ in group.out[x] if mask >> y & 1),)
            classes.setdefault(key, []).append((a, b))
    return classes


def quantile_classes(classes: dict, keys, count: int, min_members: int) -> list:
    """``count`` class keys at evenly spaced quantiles of the member count."""
    keys = sorted(k for k in keys if len(classes[k]) >= min_members)
    total = sum(len(classes[k]) for k in keys)
    picks = []
    for j in range(count):
        target = (j + 0.5) / count * total
        seen = 0
        for k in keys:
            seen += len(classes[k])
            if seen >= target:
                picks.append(k)
                break
    return picks


def interval_graph_json(n: int, a: int, b: int) -> dict:
    """The Bruhat-graph interval [a, b] of S_n in the library's JSON format."""
    group = sym_group(n)
    members = _members(group, a, b)
    keep = set(members)
    return {
        "vertices": [group.perms[x] for x in members],
        "edges": [
            {"tail": group.perms[x], "head": group.perms[y], "label": label}
            for x in members
            for y, label in group.out[x]
            if y in keep
        ],
        "relation": {
            "mode": "linear",
            "order": [f"{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        },
    }


# -- cd-polynomial shapes -------------------------------------------------------

# cd-words of degree <= 5 grouped by the vertex and edge counts of the graph
# that realizes the monomial (butterflies joined by d-joins), so that the
# seed can swap words without changing the size of the realized graph.
WORD_CLASSES = (
    ("",),
    ("c", "d"),
    ("cc",),
    ("dc", "cd", "dd"),
    ("ccc",),
    ("dcc", "ccd"),
    ("cdc", "ddc", "dcd", "cdd"),
    ("cccc",),
    ("dccc", "cccd"),
    ("cdcc", "ccdc"),
    ("ccccc",),
)


# vertices of the graph realizing one monomial of each word class
CLASS_VERTICES = (2, 4, 6, 6, 8, 8, 8, 10, 10, 10, 12)
# realize time grows with the square of the realized graph's vertex count;
# shapes above this many vertices (about 0.5 s each) are drawn again
MAX_VERTICES = 160


def cd_shapes(tag: str, masses, count: int, max_terms: int) -> list:
    """Fixed polynomial shapes: (coefficient, word class index) per term."""
    rng = random.Random(f"{tag} shapes")
    shapes = []
    while len(shapes) < count:
        mass = masses[len(shapes) % len(masses)]
        terms = rng.randint(1, min(max_terms, mass))
        classes = rng.sample(range(len(WORD_CLASSES)), terms)
        cuts = sorted(rng.sample(range(1, mass), terms - 1))
        coeffs = [hi - lo for lo, hi in zip([0] + cuts, cuts + [mass])]
        if sum(c * CLASS_VERTICES[k] for c, k in zip(coeffs, classes)) <= MAX_VERTICES:
            shapes.append(tuple(zip(coeffs, classes)))
    return shapes


def cd_text(shape, rng: random.Random) -> str:
    terms = []
    for coeff, cls in shape:
        word = rng.choice(WORD_CLASSES[cls])
        terms.append(f"{coeff}*{word}" if word else str(coeff))
    return " + ".join(terms)


# -- workloads -------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    slots: object  # () -> tuple of slots, one per operation of a nominal run
    make_ops: object  # (slots, rng, workdir, cli_main) -> list[Op]
    needs_group: int  # n of the S_n Bruhat graph the library builds in set-up (0: none)


def spread(slots, seconds: float) -> list:
    """Slots of one round of a run of ``seconds``: the list thinned or repeated."""
    n = max(MIN_SLOTS, round(len(slots) * seconds / NOMINAL_SECONDS))
    return [slots[i * len(slots) // n] for i in range(n)]


# bruhat_s6 ---------------------------------------------------------------------

# Longest intervals first: they fill the group's per-process caches (the
# descendant sets behind leq, the R-polynomial memo), so the cost of the
# short intervals after them does not depend on which intervals the seed
# picked before.  Length 12 is left out: one such interval takes about 3.5 s,
# half a round.
BRUHAT_LENGTH_COUNTS = {11: 1, 10: 3, 9: 4, 8: 6, 7: 7, 6: 9, 5: 9, 4: 9}


@lru_cache(maxsize=None)
def _bruhat_slots() -> tuple:
    classes = interval_classes(6, 4, 11, False)
    slots = []
    for k, count in BRUHAT_LENGTH_COUNTS.items():
        slots += quantile_classes(classes, [c for c in classes if c[0] == k], count, 8)
    return tuple(slots)


def _bruhat_ops(slots, rng, workdir, cli_main) -> list:
    classes = interval_classes(6, 4, 11, False)
    group = sym_group(6)
    ops = []
    for key in slots:
        a, b = rng.choice(classes[key])
        u, v = group.perms[a], group.perms[b]
        argv = ("bruhat", "--n", "6", "--interval", f"{u}:{v}", "--complete-cd",
                "--poset-cd", "--r-poly", "--r-poly-dyer", "--json")
        ops.append(Op(argv, "bruhat", (key[0],)))
    return ops


# realize_glue ------------------------------------------------------------------

REALIZE_MASSES = (5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 25, 30, 40)


def _realize_ops(slots, rng, workdir, cli_main) -> list:
    return [Op(("construct", "--cd", cd_text(shape, rng), "--json"), "construct") for shape in slots]


# search_small ------------------------------------------------------------------

SEARCH_TRIALS = 100
SEARCH_OPS = 360


def _search_ops(slots, rng, workdir, cli_main) -> list:
    return [
        Op(("search", "--trials", str(SEARCH_TRIALS), "--seed", str(rng.randrange(2**31)),
            "--max-vertices", "8", "--json"), "search")
        for _ in slots
    ]


# qsym_duality ------------------------------------------------------------------

QSYM_LENGTH_COUNTS = {5: 5, 6: 5, 7: 5}
ALEXANDER_CLASS_COUNTS = {(3, 6, 9): 3, (3, 8, 12): 5, (3, 10, 16): 3, (4, 12, 24): 2}
REALIZED_COUNT = 5


@lru_cache(maxsize=None)
def _alexander_classes() -> dict:
    merged: dict = {}
    for n in (4, 5):
        for key, members in interval_classes(n, 3, 4, True).items():
            merged.setdefault(key, []).extend((n, a, b) for a, b in members)
    return merged


@lru_cache(maxsize=None)
def _qsym_slots() -> tuple:
    s5 = interval_classes(5, 5, 7, True)
    slots = []
    for k, count in QSYM_LENGTH_COUNTS.items():
        slots += [("qsym", key) for key in quantile_classes(s5, [c for c in s5 if c[0] == k], count, 4)]
    slots += [("realized", shape) for shape in cd_shapes("qsym_duality", (2, 3, 4, 5, 6), REALIZED_COUNT, 3)]
    alex = _alexander_classes()
    for key, count in ALEXANDER_CLASS_COUNTS.items():
        if len(alex[key]) < 2:
            raise ValueError(f"alexander class {key} has too few intervals")
        slots += [("alexander", key)] * count
    return tuple(slots)


def _qsym_ops(slots, rng, workdir, cli_main) -> list:
    s5 = interval_classes(5, 5, 7, True)
    alex = _alexander_classes()
    ops = []
    for i, (kind, key) in enumerate(slots):
        path = workdir / f"g{i}.json"
        if kind == "realized":
            # the realized graph comes from the library's own construct command
            if cli_main(["construct", "--cd", cd_text(key, rng), "--out", str(path)]) != 0:
                raise RuntimeError(f"set-up could not realize graph {i}")
            ops.append(Op(("qsym", "--graph", str(path), "--json"), "qsym"))
            continue
        if kind == "qsym":
            n, (a, b) = 5, rng.choice(s5[key])
        else:
            n, a, b = rng.choice(alex[key])
        path.write_text(json.dumps(interval_graph_json(n, a, b)), encoding="utf-8")
        argv = ("qsym", "--graph", str(path), "--json") if kind == "qsym" else (
            "alexander", "--graph", str(path), "--all", "--json")
        ops.append(Op(argv, kind))
    return ops


# bruhat_s6 stresses digraph.ab_index and ncpoly.ab_to_cd on dense
# ab-polynomials; realize_glue the construct glue/join layer and its repeated
# balance checks on sparse graphs; search_small per-graph overhead on
# thousands of tiny graphs; qsym_duality path enumeration and the per-subset
# balance checks of alexander --all.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bruhat_s6", _bruhat_slots, _bruhat_ops, 6),
        Workload("realize_glue", lambda: tuple(cd_shapes("realize_glue", REALIZE_MASSES, 44, 4)),
                 _realize_ops, 0),
        Workload("search_small", lambda: tuple(range(SEARCH_OPS)), _search_ops, 0),
        Workload("qsym_duality", _qsym_slots, _qsym_ops, 0),
    )
}


def slots_for(name: str) -> tuple:
    return WORKLOADS[name].slots()


def generate(name: str, seed: int, seconds: float, round_no: int, workdir, cli_main) -> list:
    """The operations of one round of a run; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}:{round_no}")
    return WORKLOADS[name].make_ops(spread(slots_for(name), seconds), rng, Path(workdir), cli_main)


# -- output checks ------------------------------------------------------------------


def check(op: Op, rc, stdout: str, cdindex) -> str | None:
    """None when the output of ``op`` is right, else what is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    parse_cd = cdindex.ncpoly.parse_cd
    if op.kind == "bruhat":
        if payload["r_poly"] != payload["r_poly_dyer"]:
            return "recursive and Dyer R-polynomials differ"
        top = parse_cd(payload["complete_cd"]).homogeneous_part(op.data[0] - 1)
        if top != parse_cd(payload["poset_cd"]):
            return "top-degree part of the complete cd-index is not the poset cd-index"
    elif op.kind == "construct":
        target = parse_cd(op.argv[2])
        if parse_cd(payload["cd_index"]) != target:
            return "reported cd-index differs from the target"
        report = cdindex.digraph.from_json_dict(payload["graph"]).is_balanced()
        if not report.balanced or report.cd_index != target:
            return "emitted graph is unbalanced or has another cd-index"
    elif op.kind == "search":
        if payload["counterexamples"] or not 0 <= payload["balanced_found"] <= payload["trials"]:
            return "search report is not clean"
    elif op.kind == "qsym":
        graph = cdindex.digraph.load_graph(op.argv[2])
        psi = graph.ab_index(graph.zero_hat(), graph.one_hat())
        if cdindex.qsym.gamma(psi).to_string("L") != payload["rising"]:
            return "gamma(psi) differs from F_rising"
        if payload["peak_algebra"] is not True:
            return "F_rising is not in the peak algebra"
    elif op.kind == "alexander":
        if not payload or not all(row["equal"] for row in payload):
            return "an alexander row is unequal"
    return None
