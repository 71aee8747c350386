"""Bruhat graphs of symmetric and dihedral groups, and their R-polynomials.

The Bruhat graph of a finite Coxeter group has the group elements as
vertices and an edge from u to u*t, labeled by the reflection t, whenever
right multiplication by t increases length.  Labels are compared through a
reflection ordering, a total order on the reflections; for the symmetric
group the transpositions ordered lexicographically by (i, j) satisfy the
defining betweenness property (for i < j < k the transposition (i, k)
sits strictly between (i, j) and (j, k)), which is validated rather than
trusted.  With such an ordering every interval is balanced, so complete
cd-indexes exist; restricting to the covers (length difference one) gives
the cd-index of the underlying graded order, which is the top-degree part
of the complete one (see ``BruhatGraph.poset_cd_index``).

Each group's graph is built once per process: ``bruhat_graph_sn`` checks its
size cap and then reads a cache keyed on n alone, so every caller shares one
graph whatever cap it passed, and ``dihedral_bruhat_graph`` checks m and then
reads a cache keyed on the plain int.  Each edge of S_n is read off the
permutation: u*(i, j) is longer than u exactly when u(i) < u(j), so no
product is formed to test a transposition.  In I2(m) the reflections are the
elements of odd length, so u -> v is an edge exactly when v is longer by an
odd length; one builder writes the group's graph, ``dihedral_graph``'s
intervals and ``dihedral_cover_interval``'s covers by that rule, and the
intervals read no group graph.  A :class:`BruhatGraph` is
group data over ``graph``, made with the public constructor, with every
edge.  The Bruhat order is reachability in ``graph``, so ``leq`` and
``interval`` are the graph's own queries (see :mod:`cdindex.digraph` for
their index).  Both cd-indexes come from one ab-index sweep and one
ab-to-cd conversion per interval: the poset cd-index is the top-degree
part of the complete one, kept with the interval.  So no library route
builds a cover graph: ``cover_interval(u, v)`` keeps the interval's edges
that raise the length by one, as the oracle the poset cd-index is tested
against.

R-polynomials are computed two independent ways: by the classical
three-case recursion over a right descent, and from rising paths of the
interval via q^((L - len)/2) * (q - 1)^len summed over rising paths of
length len, where L is the length difference.  A rising path whose length
exceeds L or differs from it in parity would leave a half power of q; it
signals a broken reflection ordering and raises.  The rising paths are
counted by the ab-index sweep that the cd-indexes of the same interval
made, when they were asked first, and by a run-count sweep otherwise.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .digraph import InternalError, LabeledDigraph, LinearRelation, NoPath, _checked_cd
from .ncpoly import CdPoly, IntPoly

__all__ = [
    "BruhatGraph",
    "HalfPowerResidue",
    "Permutation",
    "bruhat_graph_sn",
    "bruhat_leq",
    "dihedral_bruhat_graph",
    "dihedral_cover_interval",
    "dihedral_graph",
    "parse_permutation",
    "reflection_order_validate",
    "transpositions",
    "DEFAULT_MAX_N",
    "MAX_M",
]

DEFAULT_MAX_N = 6
# the dihedral group graph has m^2 edges, written from closed forms, and stays
# cached for the process: m = 512 builds in 0.23-0.27 s, and a process that
# imports the module and builds it takes 0.37-0.54 s and an 82 MiB peak RSS
# (Python 3.11.7, 2 vCPUs)
MAX_M = 512


class Permutation(tuple):
    """One-line notation on {1, ..., n}; the length is the inversion count."""

    def __new__(cls, values: Iterable[int]):
        values = tuple(values)
        if sorted(values) != list(range(1, len(values) + 1)):
            raise ValueError(f"{values} is not a permutation of 1..{len(values)}")
        return super().__new__(cls, values)

    @property
    def length(self) -> int:
        n = len(self)
        return sum(
            1 for i in range(n) for j in range(i + 1, n) if self[i] > self[j]
        )

    def swap(self, i: int, j: int) -> "Permutation":
        """Right multiplication by the transposition (i, j): swap positions i, j.

        Raises ValueError unless i != j and both lie in 1..n.
        """
        n = len(self)
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"({i}, {j}) is not a transposition of 1..{n}")
        values = list(self)
        values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
        # a rearrangement of a permutation needs no second validation
        return tuple.__new__(Permutation, values)

    def __str__(self):
        if len(self) <= 9:
            return "".join(map(str, self))
        return ",".join(map(str, self))

    def __repr__(self):
        return f"Permutation({str(self)})"


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, either ``312`` or comma separated ``3,1,2``."""
    text = text.strip()
    if "," in text:
        return Permutation(int(x) for x in text.split(","))
    return Permutation(int(ch) for ch in text)


def transpositions(n: int) -> tuple:
    """All transpositions (i, j) with i < j, in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def reflection_order_validate(order: Sequence[tuple], n: int) -> bool:
    """Check the betweenness property of a total order on the transpositions.

    For every i < j < k the transposition (i, k) must lie strictly between
    (i, j) and (j, k).  The order must list every transposition of
    {1, ..., n} exactly once.
    """
    order = tuple(tuple(t) for t in order)
    if sorted(order) != list(transpositions(n)):
        return False
    pos = {t: i for i, t in enumerate(order)}
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        lo, hi = sorted((pos[(i, j)], pos[(j, k)]))
        if not lo < pos[(i, k)] < hi:
            return False
    return True


class HalfPowerResidue(ArithmeticError):
    """A Dyer evaluation would leave a genuine half power of q behind."""


class BruhatGraph:
    """The full Bruhat graph of one finite group, with group metadata.

    ``graph`` is the labeled digraph on all group elements; ``lengths`` maps
    each element to its Coxeter length; ``gen_action`` lists, per generator,
    the right-multiplication table used by the R-polynomial recursion.
    Reachability in the graph is the Bruhat order.
    """

    def __init__(
        self,
        graph: LabeledDigraph,
        lengths: dict,
        identity,
        gen_action: list[dict],
        reflection_order: tuple,
        name: str,
    ):
        self.graph = graph
        self.lengths = lengths
        self.identity = identity
        self.gen_action = gen_action
        self.reflection_order = reflection_order
        self.name = name
        self._rpoly_memo: dict = {}
        self._last_interval: tuple | None = None

    def leq(self, u, v) -> bool:
        """Bruhat order: u <= v iff the graph has a directed path.

        Raises GraphError when u or v is not an element of the group.
        """
        return self.graph.leq(u, v)

    def interval(self, u, v) -> LabeledDigraph:
        """The interval [u, v] of the Bruhat graph, its members in vertex order.

        The most recent interval is kept in a single slot, with its complete
        cd-index once one is asked for, so the complete and poset cd-indexes
        and the rising paths asked of one (u, v) share one build, one
        ab-index sweep (see ``rtilde``) and one ab-to-cd conversion.  The
        slot is one tuple (u, v, interval, complete cd-index or None),
        replaced whole, so no reader pairs an interval with another
        interval's cd-index.
        """
        last = self._last_interval
        if last is not None and last[0] == u and last[1] == v:
            return last[2]
        if not self.graph.leq(u, v):
            raise NoPath(f"{u} is not below {v} in the Bruhat order")
        sub = self.graph.interval(u, v)
        self._last_interval = (u, v, sub, None)
        return sub

    def cover_interval(self, u, v) -> LabeledDigraph:
        """The interval keeping only cover edges (length difference one).

        It has the interval's vertices and relation object and the
        interval's cover edges in the same order, built through the public
        constructor; no cover graph of the whole group is built.  No
        cd-index is computed from it: ``poset_cd_index`` reads the cover
        chains off the complete cd-index, and this graph is its oracle.
        """
        sub, lengths = self.interval(u, v), self.lengths
        covers = [e[:3] for e in sub.edges if lengths[e.head] - lengths[e.tail] == 1]
        return LabeledDigraph(sub.vertices, covers, sub.relation)

    def complete_cd_index(self, u, v) -> CdPoly:
        """cd-index of the full interval in the Bruhat graph, converted once and kept in its slot.

        Conversion failure is impossible for a genuine reflection ordering,
        so it aborts loudly instead of returning a residual.
        """
        last = self._last_interval
        if last is not None and last[0] == u and last[1] == v and last[3] is not None:
            return last[3]
        sub = self.interval(u, v)  # raises for a non-element, or u not below v
        phi = _checked_cd(
            sub.ab_index(u, v),
            f"interval [{u}, {v}] has no cd-index; the reflection ordering is broken",
        )
        self._last_interval = (u, v, sub, phi)
        return phi

    def poset_cd_index(self, u, v) -> CdPoly:
        """cd-index of the graded order underneath (cover edges only).

        Every Bruhat edge raises the length by at least one, so a path of
        L = l(v) - l(u) edges from u to v is a chain of covers, and every
        chain of covers from u to v has L edges.  The degree L - 1 part of
        the complete ab-index is therefore, word for word, the ab-index of
        ``cover_interval(u, v)``.  ``ab_to_cd`` splits its input by degree
        and converts each degree on its own, so the degree L - 1 part of the
        complete cd-index is its cd-index: both come from one conversion.
        """
        phi = self.complete_cd_index(u, v)
        return phi.homogeneous_part(self.lengths[v] - self.lengths[u] - 1)

    def rtilde(self, u, v) -> IntPoly:
        """Sum of q^len over rising paths from u to v (1 when u == v).

        Read by ``capital_rising_falling`` on the kept interval: off the
        ab-index a cd-index of the same (u, v) has swept, as the
        coefficients of a^(len - 1), or else by a run-count sweep.
        """
        if not self.leq(u, v):
            return IntPoly.zero()
        if u == v:
            return IntPoly.one()
        return self.interval(u, v).capital_rising_falling(u, v)[0]

    def r_polynomial_recursive(self, u, v) -> IntPoly:
        """The unique R-polynomial family, by the right-descent recursion."""
        below = self.leq(u, v)  # raises GraphError for a non-element before the memo hashes it
        key = (u, v)
        memo = self._rpoly_memo
        if key in memo:
            return memo[key]
        if not below:
            result = IntPoly.zero()
        elif u == v:
            result = IntPoly.one()
        else:
            s = next(
                action
                for action in self.gen_action
                if self.lengths[action[v]] < self.lengths[v]
            )
            us, vs = s[u], s[v]
            if self.lengths[us] < self.lengths[u]:
                result = self.r_polynomial_recursive(us, vs)
            else:
                # q*R(us, vs) + (q - 1)*R(u, vs), formed in one table
                terms = {k + 1: c for k, c in self.r_polynomial_recursive(us, vs).items()}
                for k, c in self.r_polynomial_recursive(u, vs).items():
                    terms[k + 1] = terms.get(k + 1, 0) + c
                    terms[k] = terms.get(k, 0) - c
                result = IntPoly._trusted({k: c for k, c in terms.items() if c})
        memo[key] = result
        return result

    def r_polynomial_dyer(self, u, v) -> IntPoly:
        """R-polynomial from rising paths: q^(L/2) * rtilde(q^(1/2) - q^(-1/2)).

        That is the sum of count_k * q^((L-k)/2) * (q-1)^k over the rising
        paths, count_k of them of length k.  It is an integer polynomial
        exactly when every such k has the parity of the length difference L
        and k <= L: otherwise the top term of the wrong parity class, or the
        lowest term, cannot cancel, and HalfPowerResidue is raised.  Each
        (q-1)^k is expanded by the binomial theorem, the coefficient of q^j
        being (-1)^(k-j) * C(k, j), into one table of coefficients.
        After a cd-index of the same (u, v), the counts come from the
        ab-index that sweep kept, so the query sweeps the interval once
        (see ``rtilde``).
        """
        if not self.leq(u, v):
            return IntPoly.zero()
        ell = self.lengths[v] - self.lengths[u]
        terms: dict = {}
        for k, count in self.rtilde(u, v).items():
            if k > ell or (ell - k) % 2:
                raise HalfPowerResidue(
                    f"a rising path of length {k} in [{u}, {v}] of length {ell} "
                    "leaves a half power of q"
                )
            shift = (ell - k) // 2
            for j in range(k + 1):
                c = count * comb(k, j)
                terms[shift + j] = terms.get(shift + j, 0) + (-c if (k - j) % 2 else c)
        return IntPoly._trusted({e: c for e, c in terms.items() if c})

    def __repr__(self):
        return f"BruhatGraph({self.name}, {len(self.graph.vertices)} elements)"


def bruhat_graph_sn(n: int, max_n: int = DEFAULT_MAX_N) -> BruhatGraph:
    """Bruhat graph of the symmetric group on n letters.

    Labels are transpositions (i, j) ordered lexicographically; the order
    is checked to be a reflection ordering before use.  n is capped (raise
    the cap explicitly for larger groups; the graph has n! vertices).  The
    graph is built once per n and process, whatever cap admitted it.  An n
    that is not an int raises ``TypeError``.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the configured bound {max_n}; "
            "pass max_n (--max-n on the command line) to override"
        )
    return _bruhat_graph_sn(n)


@lru_cache(maxsize=None)
def _bruhat_graph_sn(n: int) -> BruhatGraph:
    """The graph of S_n, read off the permutations with no product formed.

    The length is the inversion count, so right multiplication by (i, j),
    which swaps places i and j, raises it exactly when u(i) < u(j)
    (Björner–Brenti, *Combinatorics of Coxeter Groups*, §1.5).  Vertices
    are sorted by (length, element): the permutations come in
    lexicographic order and the sort by length is stable.  Each u gets an
    edge to u*(i, j), labeled (i, j), for each rising transposition in
    lexicographic order, which is the label order.  A rearrangement of a
    permutation is one, so no product is validated.
    """
    refl = transpositions(n)
    if n >= 3 and not reflection_order_validate(refl, n):
        raise InternalError("lexicographic transposition order failed validation")
    new = tuple.__new__

    def swapper(a, b):  # u -> u*(a + 1, b + 1), read as the values in their new order
        order = list(range(n))
        order[a], order[b] = b, a
        return operator.itemgetter(*order)

    places = [(i - 1, j - 1) for i, j in refl]
    swaps = [swapper(a, b) for a, b in places]
    lengths = {
        new(Permutation, u): sum(u[a] > u[b] for a, b in places)
        for u in itertools.permutations(range(1, n + 1))
    }
    vertices = sorted(lengths, key=lengths.__getitem__)
    edges = [
        (u, new(Permutation, times(u)), t)
        for u in vertices
        for t, (a, b), times in zip(refl, places, swaps)
        if u[a] < u[b]
    ]
    graph = LabeledDigraph(vertices, edges, LinearRelation(refl))
    generators = map(swapper, range(n - 1), range(1, n))
    gen_action = [{u: new(Permutation, times(u)) for u in vertices} for times in generators]
    return BruhatGraph(graph, lengths, Permutation(range(1, n + 1)), gen_action, refl, f"S{n}")


def _coerce_perm(u) -> Permutation:
    return u if isinstance(u, Permutation) else Permutation(u)


def bruhat_leq(u, v) -> bool:
    """Bruhat comparison by the prefix-dominance criterion (no graph needed).

    u <= v iff for every i the increasing sort of the first i entries of u
    is entrywise at most that of v.
    """
    u, v = _coerce_perm(u), _coerce_perm(v)
    if len(u) != len(v):
        raise ValueError("permutations of different sizes")
    for i in range(1, len(u)):
        for a, b in zip(sorted(u[:i]), sorted(v[:i])):
            if a > b:
                return False
    return True


# -- the dihedral groups -----------------------------------------------------

# An element of I2(m) is the map x -> eps*x + j on Z/m, written (eps, j);
# products compose right to left.  With s = (-1, 0) and t = (-1, 1), (ts)^i
# is (1, i), so the reflection s(ts)^i is (-1, -i), and the alternating words
# of length k starting with s and with t are ((-1)^k, -floor(k/2)) and
# ((-1)^k, ceil(k/2)).


def _dihedral_reflections(m: int) -> list:
    """The m reflections in the order s, sts, ststs, ..., t."""
    return [(-1, -i % m) for i in range(m)]


def _dihedral_top(m: int, k: int):
    """The alternating word s t s ... of length k."""
    return ((-1) ** k, -(k // 2) % m)


def _dihedral_levels(m: int) -> list:
    """The 2m elements by length, each level sorted: 1, 2, ..., 2, 1 of them.

    Level k holds the two alternating words of length k, which are one
    element at k = 0 and at k = m.
    """
    return [sorted({_dihedral_top(m, k), ((-1) ** k, -(-k // 2) % m)}) for k in range(m + 1)]


def _checked_m(m) -> int:
    """m as a plain int, refused unless 2 <= m <= ``MAX_M``."""
    m = operator.index(m)
    if m < 2:
        raise ValueError("the dihedral group needs m >= 2")
    if m > MAX_M:
        raise ValueError(f"m={m} exceeds the bound {MAX_M}")
    return m


def _dihedral_interval(m: int, k: int, covers: bool) -> LabeledDigraph:
    """[e, w] in I2(m), w the alternating word s t s ... of length k, by one edge rule.

    Every element shorter than w is below it, so the members are the levels
    below k and w, in that order; at k = m they are the whole group.  The
    reflections are the elements of odd length, so u -> v is an edge exactly
    when v is longer than u by an odd length, and u^-1 v = (-1, eps_u *
    (j_v - j_u)) is the reflection labeled eps_u * (j_u - j_v) + 1 (mod m).
    With ``covers`` only the level right above u is read.  Each u's edges
    come in label order, as the group's graph lists them.
    """
    levels = _dihedral_levels(m)[:k] + [[_dihedral_top(m, k)]]
    edges = []
    for length, level in enumerate(levels):
        above = [v for up in levels[length + 1 : length + 2 if covers else None : 2] for v in up]
        for u in level:
            eps, j = u
            edges += sorted(((u, v, eps * (j - v[1]) % m + 1) for v in above), key=operator.itemgetter(2))
    vertices = [u for level in levels for u in level]
    return LabeledDigraph(vertices, edges, LinearRelation(range(1, m + 1)))


def dihedral_bruhat_graph(m: int) -> BruhatGraph:
    """Bruhat graph of the dihedral group with 2m elements (m >= 2).

    The m reflections are ordered s, sts, ststs, ..., t, giving a
    reflection ordering; edge labels are the 1-based positions in that
    order, compared as integers.  An m that is not an int raises
    ``TypeError``, and one below 2 or above ``MAX_M`` raises ``ValueError``,
    before anything is built; nothing is cached for any of them.  The graph
    is built once per m and process, an int subclass such as an ``IntEnum``
    member sharing the int's graph.
    """
    return _dihedral_bruhat_graph(_checked_m(m))


@lru_cache(maxsize=None)
def _dihedral_bruhat_graph(m: int) -> BruhatGraph:
    """The graph of I2(m) from its closed forms, its vertices sorted by (length, element).

    A generator g in {s, t} = {(-1, 0), (-1, 1)} acts on the right as
    (eps, j) -> (-eps, (eps * j_g + j) mod m).
    """
    graph = _dihedral_interval(m, m, covers=False)
    lengths = {u: k for k, level in enumerate(_dihedral_levels(m)) for u in level}
    gen_action = [{(eps, j): (-eps, (eps * g + j) % m) for eps, j in graph.vertices} for g in (0, 1)]
    return BruhatGraph(graph, lengths, (1, 0), gen_action, tuple(_dihedral_reflections(m)), f"I2({m})")


def dihedral_graph(m: int, k: int) -> LabeledDigraph:
    """Bruhat-graph interval from the identity to a length-k dihedral element.

    All reflection edges are included, not just covers.  For k < m the top
    is the alternating word starting with the first generator; for k = m it
    is the unique longest element.  Every element shorter than the top is
    below it, so only the interval's 2k elements are built: the group's
    graph is neither built nor cached.  It equals ``interval`` of the
    identity and that top in ``dihedral_bruhat_graph(m)``, and after the
    check of k it refuses m as that does.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    return _dihedral_interval(_checked_m(m), k, covers=False)


def dihedral_cover_interval(m: int, k: int) -> LabeledDigraph:
    """The cover edges of ``dihedral_graph(m, k)``, built from its 2k elements.

    Equal to ``cover_interval`` of that interval in ``dihedral_bruhat_graph(m)``
    (same vertex order, edge order and labels).  The group's graph is
    never built, and m is not bounded by ``MAX_M``.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    return _dihedral_interval(m, k, covers=True)
