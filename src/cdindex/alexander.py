"""Restricted digraphs and Alexander duality for balanced digraphs.

Given a bounded labeled digraph and a subset S of its interior vertices,
the restricted digraph G_S keeps the vertices S together with the source
and sink, and has one edge for every rising path of the base graph that
starts and ends inside that vertex set without touching S in between.
Such an edge is labeled by the whole sequence of base labels it traverses,
and two sequence labels are related exactly when the last label of the
first relates to the first label of the second.

For a balanced graph in which every source-to-sink path length has the
same parity, the falling paths of G_S and of the complementary restriction
G_T satisfy a duality: evaluating each falling-path generating polynomial
at -1 gives values that agree up to the sign (-1)^(longest length - 1).
The module checks this identity.

A falling path of G_S is the same thing as a base source-to-sink path that
descends at every vertex of S and ascends at every other interior vertex,
and its length in G_S is one more than the number of S vertices on it.
Written with s_v = [v in S], a path's weight at -1 is the product over its
interior vertices v of [ascent at v] - s_v, since exactly one of ascent
and descent holds.  So the falling value of G_S at -1 is a multilinear
integer polynomial in the s_v, the same for every S, and one sweep over
the base graph's (position, last label) states computes it
(:func:`_falling_polynomial`).  The sweep leaves each s_v at 0, at 1, or
free as a variable:

- one split is one point of the polynomial, every s_v fixed, so
  :meth:`RestrictedDigraph.falling_at_minus_one` is a sweep linear in the
  graph that never builds G_S;
- :func:`alexander_sweep`, behind ``cdindex alexander --all``, leaves
  every s_v free, gets the coefficient c_T of every monomial, and turns
  them into every split's value, the sum over T within S of c_T, by one
  subset-sum pass over the 2^k splits of k interior vertices.  It checks
  the empty split against :func:`alexander_check`, returns the interior
  in topological order and the two sides as int lists ``lhs`` and ``rhs``
  indexed by bitmask, bit i for the i-th interior vertex, so the verdict
  for every split is ``lhs == rhs``; and it alone bounds k
  (``MAX_SWEEP_INTERIOR``).
  ``--subset`` calls :func:`alexander_check`, two point sweeps, so one
  split of a graph of any size stays cheap.

:func:`restrict` stays the paper's construction: it validates at once,
and builds G_S on the first read of :attr:`RestrictedDigraph.graph`, which
the tests use as the sweep's oracle beside an enumeration of the base
graph's paths.

Everything a check needs to know of the graph itself, the source and sink
positions, the interior vertices and the parity condition, is the graph's
frame: one pass over the int form computes it on first use, and it is kept
on the graph, so each check reads it instead of working it out again.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Hashable, Iterable, NamedTuple

from .digraph import GraphError, InternalError, LabeledDigraph

__all__ = [
    "MAX_SWEEP_INTERIOR",
    "AlexanderResult",
    "ParityResult",
    "PreconditionFailed",
    "RestrictedDigraph",
    "alexander_check",
    "alexander_sweep",
    "parity_condition",
    "restrict",
]

# alexander_sweep tabulates 2**k values for k interior vertices, and
# alexander --all prints a row for each, one at a time: 18 take about 0.5
# to 0.9 s and 21 to 25 MiB, as text or with --json, most of the time for
# the rows and most of the memory for the two tables of 2**k ints, and
# each further vertex doubles both
MAX_SWEEP_INTERIOR = 18


class PreconditionFailed(ValueError):
    """A hypothesis of the duality statement does not hold; names which one."""


class ParityResult(NamedTuple):
    uniform: bool
    longest: int


class AlexanderResult(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


class _SequenceRelation:
    """The relation of G_S's sequence labels: l ~ m iff the base relates l[-1] to m[0].

    ``base`` is the base graph's relation; no pair of sequence labels is
    listed.
    """

    def __init__(self, base):
        self._base = base

    def related(self, l, m) -> bool:
        return self._base.related(l[-1], m[0])

    def ascent_masks(self, labels) -> list[int]:
        """Bit i of entry j is set iff labels[i] ~ labels[j].

        The labels are grouped by the base labels that end and that start
        them, so the base relation is asked once per pair of base labels.
        """
        related = self._base.related
        ending, starting = {}, {}
        for i, label in enumerate(labels):
            ending[label[-1]] = ending.get(label[-1], 0) | 1 << i
            starting.setdefault(label[0], []).append(i)
        masks = [0] * len(labels)
        for b, js in starting.items():
            mask = 0
            for a, below in ending.items():
                if related(a, b):
                    mask |= below
            for j in js:
                masks[j] = mask
        return masks

    def __repr__(self):
        return f"_SequenceRelation({self._base!r})"


class RestrictedDigraph:
    """The digraph G_S: kept vertices joined by maximal rising segments.

    ``kept`` is S.  G_S itself is built on the first read of :attr:`graph`;
    :meth:`falling_at_minus_one` reads only the base graph.
    """

    def __init__(self, base: LabeledDigraph, kept: frozenset):
        self.base = base
        self.kept = kept

    @cached_property
    def graph(self) -> LabeledDigraph:
        """G_S, with one edge per rising base segment between kept vertices.

        One edge is created per rising base path that starts and ends in
        S + {source, sink} and whose interior vertices all avoid S; its label
        is the tuple of base labels along the path.  Rising-path counts
        between kept vertices are preserved by construction.  Two sequence
        labels are related when the base relation relates the last label
        of the first to the first label of the second
        (:class:`_SequenceRelation`).
        """
        g = self.base
        members = self.kept | {g.zero_hat(), g.one_hat()}
        rel = g.relation.related

        edges = []
        order = [v for v in g.topological_order if v in members]
        for start in order:
            # depth-first over rising segments; pending[i] walks the out-edges
            # at the end of the first i labels of the trail
            trail: list = []
            pending = [iter(g.out_edges(start))]
            while pending:
                for e in pending[-1]:
                    if trail and not rel(trail[-1], e.label):
                        continue
                    if e.head in members:
                        edges.append((start, e.head, (*trail, e.label)))
                    else:
                        trail.append(e.label)
                        pending.append(iter(g.out_edges(e.head)))
                        break
                else:
                    pending.pop()
                    if trail:
                        trail.pop()
        return LabeledDigraph(order, edges, _SequenceRelation(g.relation))

    def falling_at_minus_one(self) -> int:
        """Falling-path generating polynomial of [source, sink] in G_S, at -1.

        Source and sink are the base graph's.  The value is the falling
        polynomial (:func:`_falling_polynomial`) at the point s_v = [v in S]:
        a base source-to-sink path counts when it descends at every vertex
        of S and ascends at every other interior vertex, negated once per S
        vertex it passes.  The restriction may disconnect the source from
        the sink; the empty sum is then zero.
        """
        pos = self.base._pos
        return _falling_polynomial(self.base, {pos[v]: 0 for v in self.kept}).get(0, 0)

    def __repr__(self):
        return f"RestrictedDigraph(kept={sorted(map(str, self.kept))}, base={self.base!r})"


class _Frame(NamedTuple):
    start: int  # the source's position
    end: int  # the sink's position
    interior: frozenset
    parity: ParityResult


def _frame(g: LabeledDigraph) -> _Frame:
    """The source and sink positions, interior and parity of a bounded graph.

    Raises ``Unbounded`` otherwise.  A bounded graph's source comes first
    in the topological order and its sink last, so the interior is every
    position between them.  One pass over the int form finds, for each
    position, the lengths of the paths from the source mod 2 (bit k set
    for k) and the longest one.  The graph is immutable, so the frame is
    computed once and kept on it; the frame holds no reference to the
    graph, so the two form no cycle.
    """
    frame = g._frame
    if frame is None:
        g.zero_hat(), g.one_hat()  # raise Unbounded, naming the sources or sinks
        out = g._out
        end = len(out) - 1
        seen, longest = [1] + [0] * end, [0] * len(out)
        for p in range(end):
            bits, n = seen[p], longest[p] + 1
            bits = (bits << 1 | bits >> 1) & 3  # one edge longer: the parities swap
            for h, _, _ in out[p]:
                seen[h] |= bits
                longest[h] = max(longest[h], n)
        parity = ParityResult(uniform=seen[end] != 3, longest=longest[end])
        frame = g._frame = _Frame(0, end, frozenset(g.topological_order[1:end]), parity)
    return frame


def _falling_polynomial(g: LabeledDigraph, split: dict[int, int], ascent: int = 1) -> dict:
    """The falling polynomial of a bounded graph, with some variables fixed.

    The sum over source-to-sink paths of the product over their interior
    positions p of ([ascent at p] - s_p), as {T bitmask: coefficient} for
    the monomial of the variables in T.  s_p is 0 for p not in ``split``,
    1 where ``split[p]`` is 0, and otherwise the variable of the single
    bit ``split[p]``; no two positions may share a bit.  ``ascent=0``
    exchanges ascent and descent.  Both a path's weight and whether it
    counts are decided position by position, so one pass over the int
    form's (position, last label) states sums every path: each state holds
    the polynomial of the paths reaching it.  A state is kept T outermost,
    so where every s_p is fixed it holds one T and one int per last label.
    """
    out, masks = g._out, g._masks
    start, end, _, _ = _frame(g)
    state = [{} for _ in out]  # {T: {last label id: coefficient}} per position
    for h, last, _ in out[start]:
        row = state[h].setdefault(0, {})
        row[last] = row.get(last, 0) + 1
    for p in range(start + 1, end):
        bit = split.get(p)
        # a path through p gains [ascent], or -[descent] where s_p is 1
        want, sign = (1 - ascent, -1) if bit == 0 else (ascent, 1)
        for t, row in state[p].items():
            items = row.items()
            # and -s_p where s_p is a variable, whatever its next step
            free = -sum(row.values()) if bit else 0
            for h, last, _ in out[p]:
                # bit ``label`` of ``masks[last]`` is set iff label -> last ascends
                mask = masks[last]
                n = 0
                for label, c in items:
                    if mask >> label & 1 == want:
                        n += c
                polys = state[h]
                if n:
                    row_h = polys.get(t) or polys.setdefault(t, {})
                    row_h[last] = row_h.get(last, 0) + sign * n
                if free:
                    row_h = polys.get(t | bit) or polys.setdefault(t | bit, {})
                    row_h[last] = row_h.get(last, 0) + free
        state[p] = None
    return {t: sum(row.values()) for t, row in state[end].items()}


def _listed(subset: Iterable[Hashable]) -> list:
    """The subset's members as a list; TypeError for a str or a non-iterable.

    A str is refused rather than read as the set of its characters.
    """
    if isinstance(subset, str):
        raise TypeError(f"subset must be a collection of vertices, not the str {subset!r}")
    return list(subset)


def _checked_subset(g: LabeledDigraph, subset: Iterable[Hashable]) -> frozenset:
    """The subset as a frozenset of interior vertices; ValueError otherwise.

    A str or a subset that is not iterable raises TypeError.
    """
    members = _listed(subset)
    interior = _frame(g).interior
    try:
        subset = frozenset(members)
    except TypeError:  # an unhashable member is no vertex either
        subset = None
    if subset is None or not subset <= interior:
        unknown = {str(v) for v in members if v not in g.vertices}
        if unknown:
            raise ValueError(f"subset contains unknown vertices: {sorted(unknown)}")
        raise ValueError("subset must avoid the source and the sink")
    return subset


def restrict(g: LabeledDigraph, subset: Iterable[Hashable]) -> RestrictedDigraph:
    """G_S for S a set of interior vertices of a bounded graph.

    Checks the graph and the subset now (``Unbounded``, or ``ValueError``
    for an unknown vertex, the source or the sink) and builds nothing:
    :attr:`RestrictedDigraph.graph` is built on its first read.
    """
    return RestrictedDigraph(g, _checked_subset(g, subset))


def parity_condition(g: LabeledDigraph) -> ParityResult:
    """Whether all source-to-sink path lengths agree mod 2, plus the longest one.

    Read from the graph's frame, computed once and kept on the graph.
    """
    return _frame(g).parity


def alexander_check(g: LabeledDigraph, subset: Iterable[Hashable]) -> AlexanderResult:
    """Evaluate both sides of the duality identity for the split S, T.

    Requires g bounded, balanced, and satisfying the parity condition;
    raises PreconditionFailed naming the first violated hypothesis.  The
    left side is the falling count of G_S at -1; the right side is the
    falling count of G_T at -1 times (-1)^(longest length - 1) where T is
    the complementary interior subset.
    """
    if not g.is_bounded():
        raise PreconditionFailed("bounded: the graph must have a unique source and sink")
    subset = _listed(subset)  # a str or a non-iterable subset raises TypeError here
    if not g.is_balanced().balanced:
        raise PreconditionFailed("balanced: some interval has unequal rising/falling counts")
    parity = parity_condition(g)
    if not parity.uniform:
        raise PreconditionFailed("parity: source-to-sink path lengths have mixed parity")
    subset = _checked_subset(g, subset)
    complement = _frame(g).interior - subset
    lhs = restrict(g, subset).falling_at_minus_one()
    rhs = _sign(parity) * restrict(g, complement).falling_at_minus_one()
    return AlexanderResult(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def _sign(parity: ParityResult) -> int:
    """(-1) ** (longest length - 1), as an int."""
    return 1 if parity.longest % 2 else -1


def alexander_sweep(g: LabeledDigraph) -> tuple[tuple, list[int], list[int]]:
    """Both sides of :func:`alexander_check` for all 2^k splits of the interior.

    Returns ``(interior, lhs, rhs)``: the k interior vertices in
    topological order and the two sides as lists of 2^k ints indexed by
    bitmask, bit i of m standing for ``interior[i]`` in S, so the duality
    holds for every split exactly when ``lhs == rhs``.  An unbounded graph
    raises PreconditionFailed, and more than ``MAX_SWEEP_INTERIOR``
    interior vertices raise ``GraphError`` before any balance check or
    sweep; the other hypotheses are checked as :func:`alexander_check`
    would.  ``lhs`` is one table of the falling values of all splits
    (:func:`_falling_table`), and entry m of ``rhs`` is sign * value(T),
    T the complement of S and sign = (-1) ** (longest length - 1).  No use
    is made of the duality itself.  The two sides of the empty split are
    also computed by :func:`alexander_check`, from two point sweeps, and a
    disagreement raises ``InternalError``.
    """
    if not g.is_bounded():
        raise PreconditionFailed("bounded: the graph must have a unique source and sink")
    _, end, _, parity = _frame(g)
    interior = g.topological_order[1:end]  # bit i is the vertex at position i + 1
    if len(interior) > MAX_SWEEP_INTERIOR:
        raise GraphError(
            f"sweeping the splits of {len(interior)} interior vertices exceeds the bound "
            f"{MAX_SWEEP_INTERIOR}; check single subsets instead"
        )
    guard = alexander_check(g, ())
    lhs = _falling_table(g)
    sign = _sign(parity)
    # the complement of split m is split 2^k - 1 - m: entry m of the reversed table
    rhs = [sign * v for v in reversed(lhs)]
    if (lhs[0], rhs[0]) != guard[:2]:
        raise InternalError(
            f"the falling table gives lhs={lhs[0]}, rhs={rhs[0]} for the empty split, "
            f"alexander_check {guard}"
        )
    return interior, lhs, rhs


def _falling_table(g: LabeledDigraph) -> list[int]:
    """The falling count of G_S at -1 for every interior subset S, by bitmask.

    Entry m is ``restrict(g, S).falling_at_minus_one()`` for the S holding
    the vertex at topological position p exactly when bit p - 1 of m is set;
    g need only be bounded.  That value is the falling polynomial at the
    point s_v = [v in S], so one sweep with every s_v free, the vertex at
    position p as bit p - 1, gives the coefficients c_T of every monomial,
    and a subset-sum pass turns them into the sums over T within S, one
    per S.
    """
    _, end, interior, _ = _frame(g)
    table = [0] * (1 << len(interior))
    for t, c in _falling_polynomial(g, {p: 1 << p - 1 for p in range(1, end)}).items():
        table[t] = c
    _subset_sums(table)
    return table


def _subset_sums(table: list[int]) -> None:
    """Replace each entry m by the sum of the entries at the submasks of m.

    In place, one bit at a time: entry m | b gains entry m for each m
    without bit b.  The slices of one step are either the 2b-wide blocks
    (their upper halves gain their lower) or the b residues mod 2b,
    whichever are fewer.
    """
    n = len(table)
    b = 1
    while b < n:
        step = 2 * b
        if b <= n // step:
            for r in range(b):
                table[b + r::step] = map(add, table[b + r::step], table[r::step])
        else:
            for lo in range(0, n, step):
                table[lo + b:lo + step] = map(add, table[lo + b:lo + step], table[lo:lo + b])
        b = step

