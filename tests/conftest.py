"""Shared fixtures and independent oracles for the test suite."""

import random

import pytest

from cdindex.digraph import LabeledDigraph, LinearRelation, NoPath
from cdindex.fixtures import (
    fig1_left,
    fig1_right,
    fig2_relation_i,
    fig2_relation_ii,
    fig3_b3,
)
from cdindex.ncpoly import FreeModule, TensorSquare

from oracles import L_in_M


def run_compositions(labels, relation) -> tuple[tuple, tuple]:
    """Oracle: rising-run and falling-run compositions of a nonempty label sequence.

    The rising runs extend while consecutive labels are related, the
    falling runs while they are not; the two are complements of each other.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("label sequence must be nonempty")

    def runs(extend) -> tuple:
        parts = []
        current = 1
        for prev, cur in zip(labels, labels[1:]):
            if extend(prev, cur):
                current += 1
            else:
                parts.append(current)
                current = 1
        parts.append(current)
        return tuple(parts)

    rel = relation.related
    return runs(rel), runs(lambda x, y: not rel(x, y))


def reach_by_fixpoint(g: LabeledDigraph) -> dict:
    """Oracle: each vertex's set of vertices reachable from it, itself included.

    The sets are closed under every edge until nothing changes, using
    nothing of the graph but its vertices and edges.
    """
    reach = {v: {v} for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            new = reach[e.head] - reach[e.tail]
            if new:
                reach[e.tail] |= new
                changed = True
    return reach


def interval_by_filter(g: LabeledDigraph, x, y) -> LabeledDigraph:
    """Oracle: the interval [x, y] by a reachability fixpoint and edge filtering.

    The interval keeps the vertices z with x <= z <= y in vertex order and
    every edge of the graph, in order, with both ends kept.
    """
    reach = reach_by_fixpoint(g)
    keep = {z for z in g.vertices if z in reach[x] and y in reach[z]}
    return LabeledDigraph(
        [v for v in g.vertices if v in keep],
        [(e.tail, e.head, e.label) for e in g.edges if e.tail in keep and e.head in keep],
        g.relation,
    )


def witness_by_pairs(g: LabeledDigraph):
    """Oracle: the first (x, y, length, rising, falling) with r != f, one pair at a time.

    Pairs come in topological order, x first, and each asks
    ``rising_falling(x, y)`` alone, so no sweep is shared between sources.
    """
    topo = g.topological_order
    for i, x in enumerate(topo):
        for y in topo[i + 1:]:
            try:
                r, f = g.rising_falling(x, y)
            except NoPath:
                continue
            if r != f:
                k = min(k for k in r.terms.keys() | f.terms.keys() if r.coefficient(k) != f.coefficient(k))
                return (x, y, k + 1, r.coefficient(k), f.coefficient(k))
    return None


def signed_path_sums_by_paths(g: LabeledDigraph):
    """Oracle: the function giving ``signed_path_sums(g, S)`` for each split S.

    The source-to-sink paths are enumerated once, and each is kept as the
    sets of its ascent and descent vertices.  For a split S, T of the
    interior, the first sum counts the paths with ascents in T and descents
    in S, the second those with ascents in S and descents in T, each path
    weighted by (-1)^(number of its interior vertices in S).
    """
    bot, top = g.zero_hat(), g.one_hat()
    rel = g.relation.related
    patterns = []
    for path in g.paths(bot, top):
        asc, des = set(), set()
        for e, f in zip(path, path[1:]):
            (asc if rel(e.label, f.label) else des).add(e.head)
        patterns.append((frozenset(asc), frozenset(des)))
    interior = frozenset(g.vertices) - {bot, top}

    def sums(subset) -> tuple[int, int]:
        subset = frozenset(subset)
        tee = interior - subset
        first = second = 0
        for asc, des in patterns:
            sign = (-1) ** len((asc | des) & subset)
            if asc <= tee and des <= subset:
                first += sign
            if asc <= subset and des <= tee:
                second += sign
        return first, second

    return sums


def assert_kept_reads_match_sweeps(g: LabeledDigraph, pairs) -> None:
    """After ``g.ab_index(x, y)``, g's rising and falling reads against a fresh graph's.

    The fresh graph is g rebuilt through the constructor, which keeps no
    ab-index, so each of its reads runs the run-count sweep.  Each (x, y)
    of ``pairs`` needs x < y.  After ``ab_index(x, y)`` the reads of (x, y)
    come off the kept ab-index; those of the pair before, read again, come
    off a sweep.  A ``NoPath`` from ``ab_index`` leaves the kept ab-index
    as it was.
    """
    fresh = LabeledDigraph(g.vertices, [e[:3] for e in g.edges], g.relation)
    before = None
    for x, y in pairs:
        psi = g.ab_index(x, y)
        kept = g._ab
        assert kept[2] is psi, (x, y)
        for pair in filter(None, ((x, y), before)):
            for read in ("rising_falling", "capital_rising_falling"):
                assert getattr(g, read)(*pair) == getattr(fresh, read)(*pair), (read, pair, (x, y))
        stray = next((z for z in g.vertices if z != x and not g.leq(x, z)), None)
        if stray is not None:
            with pytest.raises(NoPath):
                g.ab_index(x, stray)
            assert g._ab is kept, (x, stray)
        before = x, y


def chain(labels, order=None) -> LabeledDigraph:
    """A path graph v0 -> v1 -> ... with the given edge labels."""
    n = len(labels)
    vertices = [f"v{i}" for i in range(n + 1)]
    edges = [(f"v{i}", f"v{i+1}", lab) for i, lab in enumerate(labels)]
    if order is None:
        order = sorted(set(labels))
    return LabeledDigraph(vertices, edges, LinearRelation(order))


def quasi_shuffle(alpha, beta) -> dict:
    """Oracle: the monomial product M_alpha M_beta, part by part."""
    if not alpha or not beta:
        return {alpha + beta: 1}
    out = {}
    for head, rests in (
        (alpha[0], (alpha[1:], beta)),
        (beta[0], (alpha, beta[1:])),
        (alpha[0] + beta[0], (alpha[1:], beta[1:])),
    ):
        for key, c in quasi_shuffle(*rests).items():
            out[(head,) + key] = out.get((head,) + key, 0) + c
    return out


class Monomials(FreeModule):
    """Oracle: an integer combination of monomial elements M_alpha, under the quasi-shuffle."""

    __slots__ = ()
    _UNIT = ()
    _key = staticmethod(tuple)
    word_degree = staticmethod(sum)

    @staticmethod
    def _mul_keys(out, alpha, beta, coeff):
        for key, c in quasi_shuffle(alpha, beta).items():
            out[key] = out.get(key, 0) + coeff * c


class MonomialTensor(TensorSquare):
    """Oracle: the tensor square M (x) M, multiplied componentwise by quasi-shuffles."""

    __slots__ = ()
    _FACTOR = Monomials
    _UNIT = ((), ())


def deconcatenation(terms) -> MonomialTensor:
    """Oracle: the coproduct in M (x) M, each monomial index cut at every place."""
    out = {}
    for alpha, c in terms.items():
        for i in range(len(alpha) + 1):
            key = (alpha[:i], alpha[i:])
            out[key] = out.get(key, 0) + c
    return MonomialTensor(out)


def in_monomials(tensor) -> MonomialTensor:
    """An L (x) L tensor with both factors of each term expanded into M."""
    out = {}
    for (u, v), c in tensor.items():
        for a, ca in L_in_M(u).items():
            for b, cb in L_in_M(v).items():
                out[(a, b)] = out.get((a, b), 0) + c * ca * cb
    return MonomialTensor(out)


@pytest.fixture
def graph_fig1_left():
    return fig1_left()


@pytest.fixture
def graph_fig1_right():
    return fig1_right()


@pytest.fixture
def graph_fig2_i():
    return fig2_relation_i()


@pytest.fixture
def graph_fig2_ii():
    return fig2_relation_ii()


@pytest.fixture
def graph_b3():
    return fig3_b3()


@pytest.fixture
def all_fixture_graphs(
    graph_fig1_left, graph_fig1_right, graph_fig2_i, graph_fig2_ii, graph_b3
):
    return {
        "fig1_left": graph_fig1_left,
        "fig1_right": graph_fig1_right,
        "fig2_relation_i": graph_fig2_i,
        "fig2_relation_ii": graph_fig2_ii,
        "fig3_b3": graph_b3,
    }


@pytest.fixture
def rng():
    return random.Random(20240811)
