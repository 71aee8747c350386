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
the cd-index of the underlying graded order.

R-polynomials are computed two independent ways: by the classical
three-case recursion over a right descent, and from rising paths of the
interval via q^((L - len)/2) * (q - 1)^len summed over rising paths of
length len, where L is the length difference.  The latter is evaluated in
exact half-integer powers of q and must collapse to integer powers; a
leftover half power signals a broken reflection ordering and raises.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .digraph import InternalError, LabeledDigraph, LinearRelation, NoPath
from .ncpoly import CdPoly, FreeModule, IntPoly, NotInSpan, ab_to_cd

__all__ = [
    "BruhatGraph",
    "HalfPowerLaurent",
    "HalfPowerResidue",
    "Permutation",
    "bruhat_graph_sn",
    "bruhat_leq",
    "dihedral_bruhat_graph",
    "dihedral_graph",
    "parse_permutation",
    "reflection_order_validate",
    "transpositions",
    "DEFAULT_MAX_N",
]

DEFAULT_MAX_N = 6


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
        """Right multiplication by the transposition (i, j): swap positions i, j."""
        values = list(self)
        values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
        return Permutation(values)

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
    """A Dyer evaluation left a genuine half power of q behind."""


class HalfPowerLaurent(FreeModule):
    """Laurent polynomial in q^(1/2); exponents stored doubled as ints.

    Keys are the doubled exponents, multiplied by addition.
    """

    __slots__ = ()
    _UNIT = 0

    @staticmethod
    def _key(k):
        if not isinstance(k, int):
            raise ValueError(f"exponent {k!r} is not an int")
        return k

    @staticmethod
    def _sort_key(k: int) -> int:
        return k

    @staticmethod
    def _render(k: int) -> str:
        return f"q^({k}/2)" if k else ""

    def to_int_poly(self) -> IntPoly:
        """Collapse to an ordinary polynomial; any half power raises."""
        if any(k % 2 or k < 0 for k in self._terms):
            raise HalfPowerResidue(f"not an integer polynomial: {self}")
        return IntPoly._trusted({k // 2: c for k, c in self._terms.items()})


# q^(1/2) - q^(-1/2)
_HALF_DIFF = HalfPowerLaurent({1: 1, -1: -1})


class BruhatGraph:
    """The full Bruhat graph of one finite group, with group metadata.

    ``graph`` is the labeled digraph on all group elements; ``lengths``
    maps each element to its Coxeter length; ``gen_action`` lists, per
    generator, the right-multiplication table used by the R-polynomial
    recursion.  Reachability in the graph is the Bruhat order.
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
        self._descendants: dict = {}
        self._rpoly_memo: dict = {}
        self._last_interval: tuple | None = None

    def top(self):
        return max(self.graph.vertices, key=lambda v: self.lengths[v])

    def leq(self, u, v) -> bool:
        """Bruhat order: u <= v iff the graph has a directed path."""
        if self.lengths[u] > self.lengths[v]:
            return False
        if u not in self._descendants:
            self._descendants[u] = self.graph.descendants(u)
        return v in self._descendants[u]

    def interval(self, u, v) -> LabeledDigraph:
        """The interval [u, v] of the Bruhat graph.

        The most recent interval is kept in a single slot, so the complete
        cd-index, the cover interval and the rising paths asked of one
        (u, v) share one build.
        """
        last = self._last_interval
        if last is not None and last[0] == u and last[1] == v:
            return last[2]
        if not self.leq(u, v):
            raise NoPath(f"{u} is not below {v} in the Bruhat order")
        sub = self.graph.interval(u, v)
        self._last_interval = (u, v, sub)
        return sub

    def cover_interval(self, u, v) -> LabeledDigraph:
        """The interval keeping only cover edges (length difference one)."""
        sub = self.interval(u, v)
        edges = [
            (e.tail, e.head, e.label)
            for e in sub.edges
            if self.lengths[e.head] - self.lengths[e.tail] == 1
        ]
        return LabeledDigraph(sub.vertices, edges, sub.relation)

    def complete_cd_index(self, u, v) -> CdPoly:
        """cd-index of the full interval in the Bruhat graph.

        Conversion failure is impossible for a genuine reflection ordering,
        so it aborts loudly instead of returning a residual.
        """
        sub = self.interval(u, v)
        try:
            return ab_to_cd(sub.ab_index(u, v))
        except NotInSpan as exc:
            raise InternalError(
                f"interval [{u}, {v}] has no cd-index; "
                f"the reflection ordering is broken (residual {exc.residual})"
            ) from None

    def poset_cd_index(self, u, v) -> CdPoly:
        """cd-index of the graded order underneath (cover edges only)."""
        sub = self.cover_interval(u, v)
        try:
            return ab_to_cd(sub.ab_index(u, v))
        except NotInSpan as exc:
            raise InternalError(
                f"cover interval [{u}, {v}] has no cd-index (residual {exc.residual})"
            ) from None

    def rtilde(self, u, v) -> IntPoly:
        """Sum of q^len over rising paths from u to v (1 when u == v)."""
        if not self.leq(u, v):
            return IntPoly.zero()
        if u == v:
            return IntPoly.one()
        return self.interval(u, v).capital_rising_falling(u, v)[0]

    def r_polynomial_recursive(self, u, v) -> IntPoly:
        """The unique R-polynomial family, by the right-descent recursion."""
        key = (u, v)
        memo = self._rpoly_memo
        if key in memo:
            return memo[key]
        if not self.leq(u, v):
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
                q = IntPoly.q()
                result = q * self.r_polynomial_recursive(us, vs) + (
                    q - 1
                ) * self.r_polynomial_recursive(u, vs)
        memo[key] = result
        return result

    def r_polynomial_dyer(self, u, v) -> IntPoly:
        """R-polynomial from rising paths: q^(L/2) * rtilde(q^(1/2) - q^(-1/2)).

        Evaluated in exact half powers; every half power must cancel
        because path lengths share the parity of the length difference L.
        """
        if not self.leq(u, v):
            return IntPoly.zero()
        ell = self.lengths[v] - self.lengths[u]
        total = HalfPowerLaurent.zero()
        for k, count in self.rtilde(u, v).items():
            total = total + count * _HALF_DIFF ** k
        total = total * HalfPowerLaurent({ell: 1})
        return total.to_int_poly()

    def __repr__(self):
        return f"BruhatGraph({self.name}, {len(self.graph.vertices)} elements)"


@lru_cache(maxsize=None)
def bruhat_graph_sn(n: int, max_n: int = DEFAULT_MAX_N) -> BruhatGraph:
    """Bruhat graph of the symmetric group on n letters.

    Labels are transpositions (i, j) ordered lexicographically; the order
    is checked to be a reflection ordering before use.  n is capped (raise
    the cap explicitly for larger groups; the graph has n! vertices).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the configured bound {max_n}; pass max_n to override"
        )
    refl = transpositions(n)
    if n >= 3 and not reflection_order_validate(refl, n):
        raise InternalError("lexicographic transposition order failed validation")
    perms = sorted(
        (Permutation(p) for p in itertools.permutations(range(1, n + 1))),
        key=lambda u: (u.length, u),
    )
    edges = []
    for u in perms:
        lu = u.length
        for (i, j) in refl:
            v = u.swap(i, j)
            if v.length > lu:
                edges.append((u, v, (i, j)))
    graph = LabeledDigraph(perms, edges, LinearRelation(refl))
    lengths = {u: u.length for u in perms}
    gen_action = [
        {u: u.swap(i, i + 1) for u in perms} for i in range(1, n)
    ]
    return BruhatGraph(
        graph,
        lengths,
        Permutation(range(1, n + 1)),
        gen_action,
        refl,
        name=f"S{n}",
    )


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


def _dihedral_mult(m: int):
    # elements are maps x -> eps*x + shift on Z/m, composed right-to-left
    def mult(u, v):
        eu, ju = u
        ev, jv = v
        return (eu * ev, (eu * jv + ju) % m)

    return mult


@lru_cache(maxsize=None)
def dihedral_bruhat_graph(m: int) -> BruhatGraph:
    """Bruhat graph of the dihedral group with 2m elements (m >= 2).

    The m reflections are ordered s, sts, ststs, ..., t, giving a
    reflection ordering; edge labels are the 1-based positions in that
    order, compared as integers.
    """
    if m < 2:
        raise ValueError("the dihedral group needs m >= 2")
    mult = _dihedral_mult(m)
    s = (-1, 0)
    t = (-1, 1 % m)
    identity = (1, 0)
    elements = [(eps, j) for eps in (1, -1) for j in range(m)]
    lengths = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for u in frontier:
            for g in (s, t):
                v = mult(u, g)
                if v not in lengths:
                    lengths[v] = lengths[u] + 1
                    new.append(v)
        frontier = new
    assert len(lengths) == 2 * m

    reflections = []
    ts = mult(t, s)
    power = identity
    for _ in range(m):
        reflections.append(mult(s, power))
        power = mult(ts, power)
    assert len(set(reflections)) == m

    vertices = sorted(elements, key=lambda u: (lengths[u], u))
    edges = []
    for u in vertices:
        for rank, refl in enumerate(reflections, start=1):
            v = mult(u, refl)
            if lengths[v] > lengths[u]:
                edges.append((u, v, rank))
    graph = LabeledDigraph(vertices, edges, LinearRelation(range(1, m + 1)))
    gen_action = [
        {u: mult(u, g) for u in vertices} for g in (s, t)
    ]
    return BruhatGraph(graph, lengths, identity, gen_action, tuple(reflections), name=f"I2({m})")


def dihedral_graph(m: int, k: int) -> LabeledDigraph:
    """Bruhat-graph interval from the identity to a length-k dihedral element.

    All reflection edges are included, not just covers.  For k < m the top
    is the alternating word starting with the first generator; for k = m it
    is the unique longest element.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    bg = dihedral_bruhat_graph(m)
    mult = _dihedral_mult(m)
    s = (-1, 0)
    t = (-1, 1 % m)
    w = bg.identity
    for i in range(k):
        w = mult(w, s if i % 2 == 0 else t)
    assert bg.lengths[w] == k
    return bg.interval(bg.identity, w)
