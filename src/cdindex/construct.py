"""Realize nonnegative cd-polynomials as balanced, linearly labeled digraphs.

Butterfly graphs (two vertices per interior rank, every cover edge present,
labels inherited from a dihedral reflection ordering) realize the powers of
c.  Two constructions combine them:

* the d-join hangs each graph above the last through two parallel edges
  labeled by a fresh global minimum and a fresh global maximum, which
  multiplies the cd-indexes with a d in between;
* the glue sum identifies the sources and the sinks of its graphs, which
  adds the cd-indexes.

Both are one layout, the glue sum of the d-joins of a list of rows: a
d-join is its one row, a glue sum one row per graph.  Any nonzero
cd-polynomial with nonnegative coefficients is realized by joining the
butterflies of each monomial in one d-join and gluing the monomial graphs
(with multiplicity) in one glue sum; each graph is built once, already
renamed in topological order.  All emitted graphs carry a linear label
relation and are balanced.  The edge count is known from the
polynomial, and ``realize`` refuses one above ``MAX_REALIZE_EDGES``
before building anything.  ``cdindex construct`` checks what it builds,
at a cost exponential in a monomial's length, and first refuses a
polynomial weighing more than ``MAX_CHECK_AB_WORDS`` ab-words.

The module also houses the randomized search harness looking for a
balanced, linearly labeled, bounded digraph whose cd-index has a negative
coefficient.  Each trial is drawn as ints, and the draw writes each edge
into its tail's out-list as its label is drawn, so the balance test reads
the draw as it comes: unbalanced trials (most of them) are rejected
before any vertex is named or any graph built; only balanced trials are
built.  The test first compares the rising and falling two-edge paths
from the source to each vertex, which rejects about 99% of the
unbalanced draws without a sweep; the balance witness decides the rest,
and most draws that reach it are balanced.
The search refuses a vertex cap above ``MAX_SEARCH_VERTICES``.
No counterexample is expected; any candidate is re-verified by
brute-force path enumeration before being reported, and reports are
reproducible from their seed.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

from .coxeter import dihedral_cover_interval
from .digraph import (
    InternalError,
    LabeledDigraph,
    LinearRelation,
    Unbounded,
    _checked_cd,
    _kahn,
    _witness,
    to_json_dict,
)
from .ncpoly import CdPoly, cd_sort_key

MAX_LABELS = 4
# a search trial costs time and memory linear in its vertex count: one at
# n = 19,994 takes 0.18 s and a 43 MiB peak RSS, the import included
# (Python 3.11.7, 2 vCPUs); unbounded, a cap of 10**9 ran out of memory
MAX_SEARCH_VERTICES = 20_000
# every glued part has an edge, so bounding the edges bounds the parts too;
# at low degree `construct --json` (realize, the balance check, the JSON)
# costs time and memory about linear in the edge count: 14,999*c, 14,999*d
# and the constant 60,000 (about 60,000 edges each) take 1.7-2.4 s and a
# 205-309 MiB peak RSS, the import included (Python 3.11.7, 2 vCPUs); the
# check's exponential part is bounded by MAX_CHECK_AB_WORDS
MAX_REALIZE_EDGES = 60_000
# the cd-index of a realization has 2^(letters) ab-words per distinct
# monomial, and converting them costs far more than sweeping a further
# glued copy (300*d^16 took 7.3 s and 1.8 GiB, d^16 alone 1.0 s), so a
# monomial weighs its 2^(letters) ab-words once plus an eighth of them per
# further copy; at this bound the slowest admitted cases measured, all
# with `--json` and the import included (Python 3.11.7, 2 vCPUs), were
# d^15 + 14,988*c and 2,033*d^8 (2.2-2.3 s, 205-261 MiB), d^16 and
# d^8 c^8 (0.8-1.0 s, 41-43 MiB); 200*c^10 + 150*cdcdc^4 + 120*d^4 c^2
# + 90*c^2 d c^2 d c^2 + 70*d c^8 + 300*c^4 d c^4, weighing 60,216 (15,942
# vertices), took 0.8 s and 53 MiB
MAX_CHECK_AB_WORDS = 2**16

__all__ = [
    "MAX_CHECK_AB_WORDS",
    "MAX_REALIZE_EDGES",
    "MAX_SEARCH_VERTICES",
    "Counterexample",
    "NegativeCoefficient",
    "SearchReport",
    "ZeroPolynomial",
    "butterfly",
    "conjecture_search",
    "d_join",
    "glue_sum",
    "random_labeled_dag",
    "realize",
]


class ZeroPolynomial(ValueError):
    pass


class NegativeCoefficient(ValueError):
    pass


def _normalize(edges: list, order: list) -> LabeledDigraph:
    """The graph of ``edges`` with vertices renamed v0, v1, ... in topological
    order and labels L0, L1, ... in ``order``, edges kept in order; built once.

    Every vertex lies on an edge, as in a bounded graph with source != sink.
    Such a graph has one source, so the renaming reads only the edge order.
    """
    index: dict = {}
    for tail, head, _ in edges:
        index.setdefault(tail, len(index))
        index.setdefault(head, len(index))
    out = [[] for _ in index]
    for tail, head, _ in edges:
        out[index[tail]].append((index[head], None, None))  # _kahn reads heads only
    vertices = [*index]
    vertex_names = {vertices[i]: f"v{p}" for p, i in enumerate(_kahn(out)[0])}
    label_names = {label: f"L{i}" for i, label in enumerate(order)}
    return LabeledDigraph(
        vertex_names.values(),
        [(vertex_names[t], vertex_names[h], label_names[label]) for t, h, label in edges],
        LinearRelation(label_names.values()),
    )


def _require_joinable(g: LabeledDigraph, side: str) -> None:
    if not isinstance(g.relation, LinearRelation):
        raise ValueError(f"{side} graph must carry a linear label relation")
    if not g.is_bounded() or g.zero_hat() == g.one_hat():
        raise Unbounded(f"{side} graph must be bounded with source != sink")
    if not g.is_balanced().balanced:
        raise ValueError(f"{side} graph must be balanced")


def butterfly(k: int) -> LabeledDigraph:
    """The bounded rank-(k + 1) butterfly with a balanced linear labeling.

    Two vertices per interior rank, all cover edges present; the labeling
    comes from a dihedral reflection ordering, so the cd-index is c^k.
    k = 0 gives a single edge.  Each k is built once per process and the
    same immutable graph returned after that, so repeated parts of a
    realization also share its balance report.  A k that is not an int
    raises ``TypeError``, a negative one ``ValueError``.
    """
    return _butterfly(operator.index(k))


@lru_cache(maxsize=None)
def _butterfly(k: int) -> LabeledDigraph:
    if k < 0:
        raise ValueError("k must be nonnegative")
    cover = dihedral_cover_interval(k + 2, k + 1)
    used = sorted({e.label for e in cover.edges})
    return _normalize([(e.tail, e.head, e.label) for e in cover.edges], used)


def _layout(side: str, rows: list) -> LabeledDigraph:
    """The glue sum of the d-joins of ``rows``, each a list of graphs; built once.

    Every graph is checked joinable first, as ``side`` argument 1, 2, ...
    in row order.  Each row is one d-join: graph i + 1 hangs above graph i
    through two parallel edges from the sink of i to the source of i + 1,
    labeled lo_i below everything and hi_i above everything, so exactly
    one of the two crossings descends on each side.  A row's labels run
    lo_(k-1), ..., lo_1, then each graph's own, each but the first followed
    by its hi_i, and the junction edges lo_i, hi_i follow graph i's edges.
    The rows then share one source and one sink, their edges and labels
    concatenated in row order: label sets stay disjoint, and any
    interleaving would keep the comparisons within a row.
    """
    for i, g in enumerate((g for row in rows for g in row), start=1):
        _require_joinable(g, f"{side} argument {i}")
    edges = []
    order = []
    for r, row in enumerate(rows):
        order += [("lo", r, i) for i in reversed(range(1, len(row)))]
        for i, g in enumerate(row):
            name = {v: (r, i, v) for v in g.vertices}
            if not i:
                name[g.zero_hat()] = "bot"
            if i == len(row) - 1:
                name[g.one_hat()] = "top"
            edges += [(name[e.tail], name[e.head], (r, i, e.label)) for e in g.edges]
            order += [(r, i, label) for label in g.relation.order]
            if i:
                junction = (r, i - 1, row[i - 1].one_hat()), name[g.zero_hat()]
                edges += [(*junction, ("lo", r, i)), (*junction, ("hi", r, i))]
                order.append(("hi", r, i))
    return _normalize(edges, order)


def d_join(*graphs: LabeledDigraph) -> LabeledDigraph:
    """Join two or more balanced linear graphs in a chain, each above the last.

    The sink of each graph is wired to the source of the next by two
    parallel edges, one labeled below everything and one above everything,
    so the cd-index multiplies with a d between consecutive factors.  It
    is the one-row layout of :func:`_layout`: joining all graphs at once
    gives the same graph as joining them one at a time from the left, with
    one renaming.
    """
    if len(graphs) < 2:
        raise ValueError("d_join needs at least two graphs")
    return _layout("d_join", [graphs])


def glue_sum(*graphs: LabeledDigraph) -> LabeledDigraph:
    """Identify the sources and the sinks of two or more balanced linear graphs.

    Label sets are kept disjoint and concatenated into one linear order.
    The cd-index adds.  It is the layout of :func:`_layout` with one row
    per graph: gluing all parts at once gives the same graph as gluing
    them one at a time from the left, with one renaming instead of one per
    part.
    """
    if len(graphs) < 2:
        raise ValueError("glue_sum needs at least two graphs")
    return _layout("glue", [[g] for g in graphs])


def realize(w: CdPoly) -> LabeledDigraph:
    """A bounded, balanced, linearly labeled digraph whose cd-index is w.

    Each monomial c^i0 d c^i1 d ... d c^ip becomes its butterflies joined
    by one d-join; multiplicities and distinct monomials are glued in one
    glue sum.  Requires w nonzero with nonnegative coefficients.

    A monomial's part has 4 edges per c, 1 per empty run of c's and 2 per
    d, and gluing keeps every edge, so the edge count is known from w;
    above ``MAX_REALIZE_EDGES`` a ``ValueError`` is raised before anything
    is built.
    """
    _check_realizable(w)
    parts = []
    for word in sorted(w.terms, key=cd_sort_key):
        chain = [butterfly(len(run)) for run in word.split("d")]
        parts += [d_join(*chain) if len(chain) > 1 else chain[0]] * w.coefficient(word)
    return parts[0] if len(parts) == 1 else glue_sum(*parts)


def _check_realizable(w: CdPoly) -> None:
    """The refusals of :func:`realize`, all before anything is built."""
    if w.is_zero():
        raise ZeroPolynomial("cannot realize the zero polynomial")
    negatives = {word: c for word, c in w.items() if c < 0}
    if negatives:
        raise NegativeCoefficient(f"negative coefficients: {negatives}")
    edges = sum(
        c * (2 * word.count("d") + sum(4 * len(run) or 1 for run in word.split("d")))
        for word, c in w.items()
    )
    if edges > MAX_REALIZE_EDGES:
        raise ValueError(f"a realization of {edges} edges exceeds the bound {MAX_REALIZE_EDGES}")


def _check_construct_cost(w: CdPoly) -> None:
    """Refuse w before ``cdindex construct`` realizes it and checks the result.

    The refusals of :func:`realize` come first; then w is refused when its
    monomials weigh more than ``MAX_CHECK_AB_WORDS`` ab-words, each
    2^(letters) once and an eighth of that per further copy.
    """
    _check_realizable(w)
    words = sum(2 ** len(word) + (c - 1) * 2 ** len(word) // 8 for word, c in w.items())
    if words > MAX_CHECK_AB_WORDS:
        raise ValueError(
            f"checking a realization of {words} weighted ab-words "
            f"exceeds the bound {MAX_CHECK_AB_WORDS}"
        )


def random_labeled_dag(rng: random.Random, max_vertices: int = 8) -> LabeledDigraph:
    """A random bounded layered DAG with a random linear labeling.

    Vertices sit on levels; edges point to strictly later levels, with skip
    edges and occasional parallel edges allowed, so source-to-sink path
    lengths usually mix parities.  Labels repeat freely; at most
    ``MAX_LABELS`` distinct ones are drawn.  The vertices are ``v0, v1,
    ...`` in level order and the labels ``"1", "2", ...`` in their linear
    order; the draws are those of :func:`_draw_dag`.  A ``max_vertices``
    that is not an int raises ``TypeError``.
    """
    return _named_dag(_draw_dag(rng, max_vertices))


def _draw_dag(rng: random.Random, max_vertices: int) -> tuple:
    """The draws of one random graph: (n, edges, labels, label count, out-lists), all ints.

    Vertices are 0 .. n - 1, an edge is a (tail, head) pair with tail <
    head, and ``labels`` holds one label rank per edge, in edge order, below
    the label count.  ``out[t]`` lists the (head, label rank, None) triple
    of each edge leaving t, in edge order, written as its label is drawn:
    the int form :func:`digraph._witness` reads.  The draws, in stream
    order: the number of interior vertices, then the width of each
    interior level; for each non-sink vertex a later level and a head on
    it; for each non-source vertex no such head reached, an earlier level
    and a tail on it; the number of extra edges, and for each a tail (any
    non-sink) and a head on a later level; the number of labels; one label
    per edge, in edge order.  Each draw of a value below m takes
    ``m.bit_length()`` bits from ``rng.getrandbits`` and draws again while
    the value is at least m, as ``random.Random`` does for ``randint`` and
    ``choice``, so a seed gives the graph (and leaves the generator in the
    state) that those calls gave.  Each draw is written in place, with no
    Python call per value.  A level is a contiguous range of vertices, so
    the work is linear in the vertex count, and every edge points to a
    later level, so the vertex order is a topological order.
    """
    max_vertices = operator.index(max_vertices)
    if max_vertices < 2:
        raise ValueError("need at least a source and a sink")
    getrandbits = rng.getrandbits
    m = max_vertices - 1
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    n = r + 2
    # level i holds the vertices starts[i] .. starts[i + 1] - 1
    starts = [0, 1]
    s = 1
    while s < n - 1:
        m = n - 1 - s
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        s += 1 + r
        starts.append(s)
    starts.append(n)
    top = len(starts) - 2  # the sink's level

    edges = []
    # every non-sink vertex escapes upward; every non-source vertex is entered
    entered = [False] * n
    for i in range(top):
        m = top - i
        k = m.bit_length()
        for v in range(starts[i], starts[i + 1]):
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            head = starts[i + 1 + j]
            w = starts[i + 2 + j] - head
            kw = w.bit_length()
            r = getrandbits(kw)
            while r >= w:
                r = getrandbits(kw)
            head += r
            edges.append((v, head))
            entered[head] = True
    for i in range(1, top + 1):
        k = i.bit_length()
        for v in range(starts[i], starts[i + 1]):
            if entered[v]:
                continue
            j = getrandbits(k)
            while j >= i:
                j = getrandbits(k)
            tail = starts[j]
            w = starts[j + 1] - tail
            kw = w.bit_length()
            r = getrandbits(kw)
            while r >= w:
                r = getrandbits(kw)
            edges.append((tail + r, v))
    m = max(2, n) + 1
    k = m.bit_length()
    extra = getrandbits(k)
    while extra >= m:
        extra = getrandbits(k)
    m = n - 1
    k = m.bit_length()
    for _ in range(extra):
        tail = getrandbits(k)
        while tail >= m:
            tail = getrandbits(k)
        later = starts[bisect_right(starts, tail)]  # the first vertex above tail's level
        w = n - later
        kw = w.bit_length()
        r = getrandbits(kw)
        while r >= w:
            r = getrandbits(kw)
        edges.append((tail, later + r))

    m = MAX_LABELS
    k = m.bit_length()
    r = getrandbits(k)
    while r >= m:
        r = getrandbits(k)
    label_count = r + 1
    k = label_count.bit_length()
    labels = []
    out = [[] for _ in range(n)]
    for t, h in edges:
        r = getrandbits(k)
        while r >= label_count:
            r = getrandbits(k)
        labels.append(r)
        out[t].append((h, r, None))  # the kernels read heads and label ids only
    return n, edges, labels, label_count, out


@lru_cache(maxsize=None)
def _linear(label_count: int) -> tuple:
    """The linear relation on "1" .. ``str(label_count)`` and its ascent masks by label rank.

    Built once per label count, at most ``MAX_LABELS`` of them, and shared
    by every drawn graph.
    """
    relation = LinearRelation(str(i) for i in range(1, label_count + 1))
    return relation, relation.ascent_masks(relation.order)

# v0, v1, ...: replaced by a longer list when a larger graph is named, never
# changed in place, so a list once read stays right
_vertex_names: list = []


def _named_dag(draw: tuple) -> LabeledDigraph:
    """The graph of a draw, built through the public constructor."""
    global _vertex_names
    n, edges, labels, label_count, _ = draw
    names = _vertex_names
    if len(names) < n:
        names = _vertex_names = [f"v{i}" for i in range(n)]
    relation = _linear(label_count)[0]
    order = relation.order
    return LabeledDigraph(
        names[:n],
        [(names[t], names[h], order[label]) for (t, h), label in zip(edges, labels)],
        relation,
    )


def _draw_is_balanced(draw: tuple) -> bool:
    """The balance verdict of a draw, from its int form; no graph is built.

    The vertex ints are a topological order and the label ranks are label
    ids, so the draw's out-lists and the masks of its label count are the
    int form :func:`digraph._witness` reads.  A one-edge path both rises
    and falls, so two edges are the shortest paths that can tell balance
    apart.  The source's two-edge paths come first: each adds 1 to its end
    p at an ascent and -1 at a descent, and a nonzero total means [0, p]
    has more rising than falling paths of length 2, or fewer, so the draw
    is unbalanced.  That decides about 99% of the unbalanced draws; the
    witness sweep decides the rest.
    """
    _, _, _, label_count, out = draw
    masks = _linear(label_count)[1]
    diff: dict = {}
    for a, first, _ in out[0]:
        for p, second, _ in out[a]:
            diff[p] = diff.get(p, 0) + (1 if masks[second] >> first & 1 else -1)
    if any(diff.values()):
        return False
    return _witness(out, masks) is None


@dataclass(frozen=True)
class Counterexample:
    trial: int
    graph: dict
    cd_index: str
    negative_words: tuple
    verified: bool


@dataclass(frozen=True)
class SearchReport:
    seed: int
    trials: int
    max_vertices: int
    balanced_found: int
    counterexamples: tuple = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def conjecture_search(seed: int, trials: int, max_vertices: int = 8) -> SearchReport:
    """Search random balanced linear labelings for a negative cd-coefficient.

    Each trial draws the graph of :func:`random_labeled_dag` as ints and
    tests balance on that int form (see :func:`_draw_is_balanced`); an
    unbalanced trial (most of them) ends there, and only a balanced one is
    named and built through the public constructor, then checked again by
    ``is_balanced``, which also gives its cd-index.  Every candidate is re-verified by
    recomputing the ab-index through explicit path enumeration before it
    is reported; the report never asserts the nonnegativity statement, it
    only records what was found.  Identical seeds give identical reports.
    A negative trial count, or a vertex bound below 2 or above
    ``MAX_SEARCH_VERTICES``, raises ``ValueError``, and a trial count or
    vertex bound that is not an int ``TypeError``, before the first trial;
    a bool counts as its int.
    """
    trials = operator.index(trials)
    max_vertices = operator.index(max_vertices)
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if max_vertices < 2:
        raise ValueError(
            f"max_vertices must be at least 2 (a source and a sink), got {max_vertices}"
        )
    if max_vertices > MAX_SEARCH_VERTICES:
        raise ValueError(
            f"max_vertices must be at most {MAX_SEARCH_VERTICES}, got {max_vertices}"
        )
    rng = random.Random(seed)
    balanced_found = 0
    counterexamples = []
    for trial in range(trials):
        draw = _draw_dag(rng, max_vertices)
        if not _draw_is_balanced(draw):
            continue
        g = _named_dag(draw)
        report = g.is_balanced()
        if not report.balanced:
            raise InternalError(f"trial {trial}: the drawn graph's two balance verdicts disagree")
        balanced_found += 1
        negative = tuple(
            word for word, coeff in sorted(report.cd_index.items()) if coeff < 0
        )
        if not negative:
            continue
        verified_cd = _checked_cd(
            g.ab_index_by_paths(g.zero_hat(), g.one_hat()),
            f"trial {trial}: the path re-check of a balanced graph has no cd-index",
        )
        still_negative = tuple(
            word for word, coeff in sorted(verified_cd.items()) if coeff < 0
        )
        counterexamples.append(
            Counterexample(
                trial=trial,
                graph=to_json_dict(g),
                cd_index=str(verified_cd),
                negative_words=still_negative,
                verified=verified_cd == report.cd_index and bool(still_negative),
            )
        )
    return SearchReport(
        seed=seed,
        trials=trials,
        max_vertices=max_vertices,
        balanced_found=balanced_found,
        counterexamples=tuple(counterexamples),
    )
