"""Second routes to library values, for the tests only.

No command of the package reaches these; the tests compare them with what
the library computes.  They read the library's private helpers, so each
stays the code it was when it lived beside them:

* ab-polynomial helpers: ``parse_ab``, and the involutions ``bar``
  (swap a and b) and ``star`` (reverse words);
* ``cd_expand``, which substitutes c -> a+b and d -> ab+ba, through
  ``_algebra_map``, and ``residual``, the expanded residual of a
  ``NotInSpan``;
* composition helpers: ``descent_set``, ``sigma_leq``, ``L_in_M``,
  ``M_in_L``, ``composition_from_descents``, ``complement`` and
  ``compositions``, and ``M``, the monomial quasisymmetric element;
* the Hopf structure of QSym: ``QSymTensor``, the combinations in
  L (x) L, ``qsym_coproduct``, which cuts each L_alpha of degree n at each
  of its n + 1 places, and ``antipode``, which sends L_alpha to (-1)^n L
  of the complement of the reversed alpha;
* ``odd_part``, the odd-degree terms of an ``IntPoly``, and ``evaluate``,
  its value at an int or a polynomial;
* ``cd_word_cmp``, the fixed-degree order on cd-words as a comparison,
  with its key ``_cd_order_key``;
* ``signed_path_sums``, the two signed path sums of an interior split;
* ``capital_rising_falling_from``, the (R, F) pairs of every interval
  [x, v] by one run-count sweep from x;
* ``multichain_specialization``, both sides of the rising and falling
  multichain identities in m variables;
* ``dual``, the graph with every edge reversed, whose relation lists the
  reversed related pairs of the graph's labels, and ``in_edges``, a
  vertex's in-edges read off the edge list;
* ``descent_word``, a path's word with an a at each ascent;
* ``paths_by_zip_walk``, the path walk that tests every out-edge's head
  against the set of positions reaching y, and
  ``ab_index_by_descent_words``, the ab-index summed one
  ``descent_word`` call per path over that walk.

pytest collects no test from this module; test modules import it by name,
as they import ``conftest``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from cdindex.alexander import _checked_subset, _falling_polynomial
from cdindex.digraph import Edge, LabeledDigraph, PairsRelation, Unbounded, _sums, _sweep
from cdindex.ncpoly import (
    AbPoly,
    CdPoly,
    FreeModule,
    IntPoly,
    NotInSpan,
    TensorSquare,
    _merge,
    _parse,
    cd_word_degree,
)
from cdindex.qsym import (
    F_rising,
    QSymElement,
    _complement,
    _composition,
    _mask,
    _masks,
    _refine,
    _validate,
    omega,
)


def bar(p: AbPoly) -> AbPoly:
    """Exchange a and b uniformly in every word."""
    swap = str.maketrans("ab", "ba")
    return AbPoly._trusted({w.translate(swap): c for w, c in p.items()})


def star(p: AbPoly) -> AbPoly:
    """Reverse every word."""
    return AbPoly._trusted({w[::-1]: c for w, c in p.items()})


def parse_ab(text: str) -> AbPoly:
    """Parse text like ``2*ab + 3`` or ``aa - ab`` into an AbPoly."""
    return _parse(text, AbPoly)


_CD_EXPANSION = {"c": AbPoly({"a": 1, "b": 1}), "d": AbPoly({"ab": 1, "ba": 1})}


def _algebra_map(p: FreeModule, images: dict) -> AbPoly:
    """Substitute ``images[letter]`` for every letter of every word of p and expand."""
    result = AbPoly.zero()
    for word, coeff in p.items():
        factor = AbPoly.one()
        for letter in word:
            factor = factor * images[letter]
            if factor.is_zero():
                break
        result = result + coeff * factor
    return result


def cd_expand(p: CdPoly) -> AbPoly:
    """Substitute c -> a+b and d -> ab+ba and expand."""
    return _algebra_map(p, _CD_EXPANSION)


def residual(exc: NotInSpan) -> AbPoly:
    residual = AbPoly.zero()
    for prefix, leftover in exc.leftovers:
        residual = residual + cd_expand(CdPoly.monomial(prefix)) * AbPoly._trusted(leftover)
    return residual


def odd_part(p: IntPoly) -> IntPoly:
    return IntPoly._trusted({k: c for k, c in p.items() if k % 2})


def evaluate(p: IntPoly, x):
    """Evaluate term by term; x may be an int or any polynomial here."""
    zero = 0 if isinstance(x, int) else type(x).zero()
    return sum((c * x**k for k, c in p._terms.items()), zero)


def descent_set(alpha: Sequence[int]) -> frozenset:
    """Partial sums of alpha except the last; a subset of {1, ..., n-1}."""
    mask = _mask(_validate(alpha))
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def sigma_leq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """alpha <= beta iff beta refines alpha (beta splits parts of alpha)."""
    alpha, beta = _validate(alpha), _validate(beta)
    if sum(alpha) != sum(beta):
        raise ValueError(f"{alpha} and {beta} compose different integers")
    return not _mask(alpha) & ~_mask(beta)


def L_in_M(alpha: Sequence[int]) -> dict:
    """Monomial-basis coefficients of the fundamental element L_alpha."""
    return _refine(_masks([(_validate(alpha), 1)]), 1)


def M_in_L(alpha: Sequence[int]) -> dict:
    """Fundamental-basis coefficients of M_alpha, by inclusion-exclusion."""
    return _refine(_masks([(_validate(alpha), 1)]), -1)


def M(alpha: Sequence[int], coeff: int = 1) -> QSymElement:
    if not coeff:
        return QSymElement.zero()
    return QSymElement._trusted({beta: c * coeff for beta, c in M_in_L(alpha).items()})


def composition_from_descents(descents, n: int) -> tuple:
    """The composition of n whose descent set is the given subset of {1..n-1}."""
    cuts = list(descents)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n={n!r} is not a nonnegative int")
    if not all(isinstance(c, int) and 0 < c < n for c in cuts) or len(set(cuts)) < len(cuts):
        raise ValueError(f"descents {cuts} are not distinct ints in 1..{n - 1}")
    return _composition(sum(1 << c for c in cuts), n)


def complement(alpha: Sequence[int]) -> tuple:
    """The complementary composition: swap commas and plus signs.

    Equivalently, complement the descent set inside {1, ..., n-1}.
    """
    alpha = _validate(alpha)
    if not alpha:
        raise ValueError("the empty composition has no complement")
    return _complement(alpha)


def compositions(n: int) -> Iterator[tuple]:
    """All compositions of n (the empty composition for n = 0)."""
    if n == 0:
        yield ()
        return
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            yield composition_from_descents(cuts, n)


class QSymTensor(TensorSquare):
    """Integer combination of ordered pairs of compositions, in the basis L (x) L.

    It adds and is scaled by ints, and a product of two raises TypeError:
    the key product it inherits from QSymElement would concatenate
    compositions, and a componentwise shuffle product in L (x) L grows far
    faster than the quasi-shuffle product in M (x) M.
    """

    __slots__ = ()
    _FACTOR = QSymElement
    _UNIT = ((), ())

    def __mul__(self, other):
        if isinstance(other, int):
            return super().__mul__(other)
        raise TypeError("QSymTensor has no product; it is only added and scaled by ints")

    __rmul__ = __mul__


def qsym_coproduct(f: QSymElement) -> QSymTensor:
    """Cut each L_alpha, alpha a composition of n, at each of its n + 1 places.

    The cut at i gives L of alpha's descents below i, a composition of i,
    tensor L of its descents above i shifted down by i, a composition of
    n - i; a descent at i itself is the cut.
    """
    data: dict[tuple, int] = {}
    for alpha, coeff in f.items():
        n, mask = sum(alpha), _mask(alpha)
        for i in range(n + 1):
            cut = (_composition(mask & (1 << i) - 1, i), _composition(mask >> i & ~1, n - i))
            _merge(data, cut, coeff)
    return QSymTensor._trusted(data)


def antipode(f: QSymElement) -> QSymElement:
    """S(L_alpha) = (-1)^n L of the complement of the reversed alpha, extended linearly.

    In the monomial basis this is S(M_alpha) = (-1)^n omega(M of the
    reversed alpha): reversal commutes with refinement, so it reverses
    fundamental indices too.
    """
    return QSymElement._trusted(
        {
            _complement(alpha[::-1]) if alpha else alpha: -coeff if sum(alpha) % 2 else coeff
            for alpha, coeff in f.items()
        }
    )


def _cd_order_key(word: str) -> tuple:
    """Sort key for the linear order on cd-words of a fixed degree.

    Words with fewer d's come first; ties are broken lexicographically on
    the vector of c-run lengths (i0, i1, ..., ip) where the word is
    c^i0 d c^i1 d ... d c^ip.
    """
    runs = tuple(len(run) for run in word.split("d"))
    return (word.count("d"), runs)


def cd_word_cmp(u: str, v: str) -> int:
    """Compare two cd-words of equal degree; returns -1, 0 or 1.

    Raises ValueError on a degree mismatch (the order is defined within a
    fixed degree; cross-degree ordering is handled separately by sorting
    on degree first).
    """
    if cd_word_degree(u) != cd_word_degree(v):
        raise ValueError(f"cd-words {u!r} and {v!r} have different degrees")
    ku, kv = _cd_order_key(u), _cd_order_key(v)
    return (ku > kv) - (ku < kv)


def signed_path_sums(g: LabeledDigraph, subset: Iterable[Hashable]) -> tuple[int, int]:
    """The two signed path sums attached to an interior split S, T.

    The first sum runs over source-to-sink paths whose ascent vertices lie
    in T and descent vertices in S, the second over paths with the roles of
    S and T exchanged; both weight a path by (-1)^(number of interior
    vertices in S).  The two agree whenever every interval of g has equally
    many rising and falling paths (no per-length matching is needed).

    Every interior vertex of a path is an ascent or a descent, so the first
    sum is the falling polynomial at the point s_v = [v in S], the value
    of :meth:`RestrictedDigraph.falling_at_minus_one`, and the second is
    the same point with ascent and descent exchanged: two sweeps over the
    base graph, each linear in its size.
    """
    pos = g._pos
    split = {pos[v]: 0 for v in _checked_subset(g, subset)}
    first = _falling_polynomial(g, split).get(0, 0)
    return first, _falling_polynomial(g, split, ascent=0).get(0, 0)


def dual(g: LabeledDigraph) -> LabeledDigraph:
    """Reverse every edge, keep labels, reverse the relation, as pairs over the labels."""
    labels, rel = g._labels, g.relation.related
    return LabeledDigraph(
        g.vertices[::-1],
        [(e.head, e.tail, e.label) for e in g.edges],
        PairsRelation((m, l) for l in labels for m in labels if rel(l, m)),
    )


def in_edges(g: LabeledDigraph, v) -> tuple:
    head = g._topo[g._place(v)]  # the object every edge into v holds
    return tuple([e for e in g.edges if e.head is head])


def descent_word(g: LabeledDigraph, path: tuple) -> str:
    """Word over {a, b} with an a at each ascent of the path's labels."""
    rel = g.relation.related
    return "".join(
        "a" if rel(e.label, f.label) else "b"
        for e, f in zip(path, path[1:])
    )


def paths_by_zip_walk(g: LabeledDigraph, x, y) -> Iterator[tuple]:
    """All directed paths from x to y, by a walk that tests each out-edge's head.

    The positions reaching y come from one backward scan down to x; the
    walk then zips each position's int out-list with its Edge tuples and
    skips every edge whose head is not among them.
    """
    start, end = g._place(x), g._place(y)
    if end <= start:
        return
    out, outs = g._out, g._view[1]
    useful = {end}
    for q in range(end - 1, start - 1, -1):
        for h, _, _ in out[q]:
            if h in useful:
                useful.add(q)
                break
    trail: list[Edge] = []
    pending = [zip(out[start], outs[start])]
    while pending:
        for (h, _, _), e in pending[-1]:
            if h == end:
                yield (*trail, e)
            elif h in useful:
                trail.append(e)
                pending.append(zip(out[h], outs[h]))
                break
        else:
            pending.pop()
            if trail:
                trail.pop()


def ab_index_by_descent_words(g: LabeledDigraph, x, y) -> AbPoly:
    """The ab-index of [x, y] as one ``descent_word`` per path of the zip walk."""
    return AbPoly._trusted(Counter(descent_word(g, path) for path in paths_by_zip_walk(g, x, y)))


def capital_rising_falling_from(g: LabeledDigraph, x) -> dict:
    """(R, F) of [x, v] for x and every v reachable from it, by one sweep from x."""
    topo = g._topo
    capitals = {x: (IntPoly.one(), IntPoly.one())}
    for p, table in _sweep(g._out, g._masks, g._place(x)):
        r, f = _sums(table)
        capitals[topo[p]] = g._poly(r, 0), g._poly(f, 0)
    return capitals


@dataclass(frozen=True)
class MultichainComparison:
    """Both sides of the multichain identities in m variables.

    Each polynomial is a dict from an exponent tuple of length m to an
    integer coefficient.  The left sides truncate F_rising / F_falling to
    the first m variables; the right sides sum, over all multichains
    source = x0 <= x1 <= ... <= xm = sink, the products of one-variable
    rising (falling) polynomials R(x_{i-1}, x_i) in the i-th variable.
    """

    rising_lhs: dict
    rising_rhs: dict
    falling_lhs: dict
    falling_rhs: dict

    @property
    def agree(self) -> bool:
        return self.rising_lhs == self.rising_rhs and self.falling_lhs == self.falling_rhs


def _truncate(f: QSymElement, m: int) -> dict:
    """f in the first m variables, as a dict from exponent tuple to coefficient.

    L_alpha there is the sum of M_beta over the refinements beta of alpha
    with at most m parts, and M_beta the sum of x^beta over the ways to
    place beta's parts, in order, on m variables.  The refinements are
    generated from alpha's descent set by adding at most m - len(alpha) of
    its other positions, so none with more parts is ever built.
    """
    out: dict[tuple, int] = {}
    for alpha, coeff in f.items():
        spare = m - len(alpha)
        if spare < 0:
            continue
        n, descents = sum(alpha), _mask(alpha)
        free = [i for i in range(1, n) if not descents >> i & 1]
        for r in range(min(spare, len(free)) + 1):
            for cuts in itertools.combinations(free, r):
                beta = _composition(descents | sum(1 << c for c in cuts), n)
                for positions in itertools.combinations(range(m), len(beta)):
                    exps = [0] * m
                    for pos, part in zip(positions, beta):
                        exps[pos] = part
                    _merge(out, tuple(exps), coeff)
    return out


def multichain_specialization(g: LabeledDigraph, m: int) -> MultichainComparison:
    """Evaluate both sides of the rising and falling multichain identities."""
    if m < 1:
        raise ValueError("need at least one variable")
    if not g.is_bounded():
        raise Unbounded("multichain specialization needs a bounded graph")
    bot, top = g.zero_hat(), g.one_hat()

    # capitals[x][y] = (R, F) of [x, y] for every y >= x, one sweep per x
    capitals = {x: capital_rising_falling_from(g, x) for x in g.vertices}

    def chain_sum(index: int) -> dict:
        # (v, nonzero exponents of the first d variables as (variable,
        # exponent) pairs) -> summed coefficient of the multichains
        # source = x0 <= ... <= xd = v; one step per variable, and a step
        # that stays at v (exponent 0) leaves the key's tuple as it is
        states: dict[tuple, int] = {(bot, ()): 1}
        for depth in range(m):
            step: dict[tuple, int] = {}
            for (v, sparse), coeff in states.items():
                for w in (top,) if depth == m - 1 else capitals[v]:
                    for k, c in capitals[v][w][index].items():
                        key = (w, sparse + ((depth, k),) if k else sparse)
                        _merge(step, key, coeff * c)
            states = step
        out: dict[tuple, int] = {}
        for (_, sparse), coeff in states.items():
            exps = [0] * m
            for i, k in sparse:
                exps[i] = k
            out[tuple(exps)] = coeff
        return out

    rising = F_rising(g)
    return MultichainComparison(
        rising_lhs=_truncate(rising, m),
        rising_rhs=chain_sum(0),
        falling_lhs=_truncate(omega(rising), m),
        falling_rhs=chain_sum(1),
    )
