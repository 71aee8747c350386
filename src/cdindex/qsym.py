"""Compositions, quasisymmetric functions, and digraph path invariants.

Compositions of n are tuples of positive parts; refining a composition by
splitting parts gives a partial order isomorphic to the subsets of
{1, ..., n-1} via descent sets, and the complement operation swaps a
descent set with its complement.

A quasisymmetric element is stored as a finite integer combination of
monomial basis elements M_alpha.  The product is the quasi-shuffle of
monomial indices and the coproduct splits an index in two.  The
fundamental basis L_alpha = sum of M over refinements is reached by one
transform over descent-set bitmasks, one descent position at a time, in
either direction; omega complements descent sets in that basis.

The linear map gamma identifies ab-polynomials with zero-constant
quasisymmetric functions by sending the degree n-1 word with descents D to
L of the composition of n with descent set D.  Under gamma the cd-span
corresponds to the peak algebra, which is how membership is tested.

A path's rising-run composition has its descent set at the path's
descents, and its falling-run composition is the complement.  So for a
bounded labeled digraph, F_rising (the sum of L over the rising-run
compositions of the source-to-sink paths) is gamma of the ab-index, and
F_falling, equal to omega(F_rising), is gamma of the ab-index with a and b
swapped, for any relation on the labels.  Both still enumerate the paths,
through ``LabeledDigraph.ab_index_by_paths``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .digraph import LabeledDigraph, Unbounded
from .ncpoly import (
    AbPoly,
    FreeModule,
    NotInSpan,
    TensorSquare,
    _format_terms,
    _merge,
    ab_to_cd,
    bar,
)

__all__ = [
    "Composition",
    "F_falling",
    "F_rising",
    "L_in_M",
    "M_in_L",
    "MultichainComparison",
    "QSymElement",
    "QSymTensor",
    "antipode",
    "complement",
    "composition_from_descents",
    "compositions",
    "descent_set",
    "gamma",
    "gamma_inverse",
    "multichain_specialization",
    "omega",
    "peak_membership",
    "qsym_coproduct",
    "reverse_composition",
    "sigma_involution",
    "sigma_leq",
]

Composition = tuple

_AB_TO_BITS = str.maketrans("ab", "01")


def _validate(alpha: Sequence[int]) -> tuple:
    alpha = tuple(alpha)
    if any(part < 1 for part in alpha):
        raise ValueError(f"composition parts must be positive: {alpha}")
    return alpha


def _mask(alpha: tuple) -> int:
    """The descent set of alpha as a bitmask: bit i is set when i is a descent."""
    mask = total = 0
    for part in alpha[:-1]:
        total += part
        mask |= 1 << total
    return mask


def _composition(mask: int, n: int) -> tuple:
    """The composition of n whose descent set is the bitmask's (bits 1..n-1)."""
    parts = []
    prev = 0
    while mask:
        low = mask & -mask
        cut = low.bit_length() - 1
        parts.append(cut - prev)
        prev, mask = cut, mask ^ low
    return (*parts, n - prev) if n else ()


def descent_set(alpha: Sequence[int]) -> frozenset:
    """Partial sums of alpha except the last; a subset of {1, ..., n-1}."""
    mask = _mask(_validate(alpha))
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


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
    n = sum(alpha)
    if n == 0:
        raise ValueError("the empty composition has no complement")
    return _composition(_mask(alpha) ^ (1 << n) - 2, n)


def reverse_composition(alpha: Sequence[int]) -> tuple:
    return tuple(reversed(_validate(alpha)))


def sigma_leq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """alpha <= beta iff beta refines alpha (beta splits parts of alpha)."""
    alpha, beta = _validate(alpha), _validate(beta)
    if sum(alpha) != sum(beta):
        raise ValueError(f"{alpha} and {beta} compose different integers")
    return not _mask(alpha) & ~_mask(beta)


def compositions(n: int) -> Iterator[tuple]:
    """All compositions of n (the empty composition for n = 0)."""
    if n == 0:
        yield ()
        return
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            yield composition_from_descents(cuts, n)


def _masks(terms) -> dict:
    """Group (composition, coeff) pairs by degree n, keyed by descent-set bitmask.

    Bit i of a mask is set when i is a descent, for i in 1..n-1.
    """
    tables: dict[int, dict[int, int]] = {}
    for alpha, coeff in terms:
        tables.setdefault(sum(alpha), {})[_mask(alpha)] = coeff
    return tables


def _refine(tables: dict, sign: int) -> dict:
    """Spread every coefficient over the refinements of its composition.

    With sign 1 this sends fundamental coefficients to monomial ones
    (L_alpha is the sum of M_beta over the refinements beta of alpha);
    with sign -1 it is the inverse, Moebius inversion.  The tables of
    ``_masks`` are transformed in place one descent position at a time, so
    each position costs one pass over the masks of its degree rather than
    one term per (term, refinement) pair.  Returns the nonzero results
    keyed by composition.
    """
    out: dict[tuple, int] = {}
    for n, table in tables.items():
        for i in range(1, n):
            bit = 1 << i
            for mask, coeff in list(table.items()):
                if coeff and not mask & bit:
                    finer = mask | bit
                    table[finer] = table.get(finer, 0) + sign * coeff
        for mask, coeff in table.items():
            if coeff:
                out[_composition(mask, n)] = coeff
    return out


def L_in_M(alpha: Sequence[int]) -> dict:
    """Monomial-basis coefficients of the fundamental element L_alpha."""
    return _refine(_masks([(_validate(alpha), 1)]), 1)


def M_in_L(alpha: Sequence[int]) -> dict:
    """Fundamental-basis coefficients of M_alpha, by inclusion-exclusion."""
    return _refine(_masks([(_validate(alpha), 1)]), -1)


def _quasi_shuffle(out: dict, alpha: tuple, beta: tuple, coeff: int) -> None:
    """Add coeff times each quasi-shuffle of alpha and beta into ``out``.

    An explicit stack takes alpha's next part, beta's, or their sum, depth
    first in that order, so no composition is too long for the recursion limit.
    """
    m, n = len(alpha), len(beta)
    stack = [(0, 0, ())]
    while stack:
        i, j, prefix = stack.pop()
        if i == m:
            _merge(out, prefix + beta[j:], coeff)
        elif j == n:
            _merge(out, prefix + alpha[i:], coeff)
        else:
            a, b = alpha[i], beta[j]
            stack += (
                (i + 1, j + 1, prefix + (a + b,)),
                (i, j + 1, prefix + (b,)),
                (i + 1, j, prefix + (a,)),
            )


def _render_composition(alpha: tuple, basis: str = "M") -> str:
    return f"{basis}[{','.join(map(str, alpha))}]"


class QSymElement(FreeModule):
    """Finite integer combination of monomial quasisymmetric elements M_alpha.

    Keys are compositions, multiplied by the quasi-shuffle and graded by
    their sum.
    """

    __slots__ = ()
    _UNIT = ()
    _key = staticmethod(_validate)
    _mul_keys = staticmethod(_quasi_shuffle)
    word_degree = staticmethod(sum)
    _render = staticmethod(_render_composition)

    @staticmethod
    def _sort_key(alpha: tuple):
        return (sum(alpha), len(alpha), alpha)

    @classmethod
    def M(cls, alpha: Sequence[int], coeff: int = 1) -> "QSymElement":
        return cls.monomial(tuple(alpha), coeff)

    @classmethod
    def L(cls, alpha: Sequence[int], coeff: int = 1) -> "QSymElement":
        if not coeff:
            return cls.zero()
        return cls._trusted(dict.fromkeys(L_in_M(alpha), coeff))

    def constant_term(self) -> int:
        return self.coefficient(())

    def l_coefficients(self) -> dict:
        """Coefficients in the fundamental basis."""
        return _refine(_masks(self._terms.items()), -1)

    def to_string(self, basis: str = "L") -> str:
        """Render as e.g. ``3*L[1] + 2*L[2] + 2*L[1,1]`` (basis L or M)."""
        if basis == "L":
            coeffs = self.l_coefficients()
        elif basis == "M":
            coeffs = self._terms
        else:
            raise ValueError(f"unknown basis {basis!r}")
        return _format_terms(
            coeffs, self._sort_key, lambda alpha: _render_composition(alpha, basis)
        )


class QSymTensor(TensorSquare):
    """Integer combination of ordered pairs of compositions."""

    __slots__ = ()
    _FACTOR = QSymElement
    _UNIT = ((), ())


def qsym_coproduct(f: QSymElement) -> QSymTensor:
    """Deconcatenation of monomial indices."""
    data: dict[tuple, int] = {}
    for alpha, coeff in f.items():
        for i in range(len(alpha) + 1):
            _merge(data, (alpha[:i], alpha[i:]), coeff)
    return QSymTensor._trusted(data)


def omega(f: QSymElement) -> QSymElement:
    """The involution sending each fundamental element to its complement.

    Computed in the fundamental basis, where it complements each descent
    set; it fixes the constant term.
    """
    tables = _masks(f.l_coefficients().items())
    for n, table in tables.items():
        full = (1 << n) - 2 if n else 0  # the bits 1..n-1
        tables[n] = {mask ^ full: coeff for mask, coeff in table.items()}
    return QSymElement._trusted(_refine(tables, 1))


def antipode(f: QSymElement) -> QSymElement:
    """S(M_alpha) = (-1)^n omega(M of the reversed composition), extended linearly."""
    # reversal permutes compositions, so the reversed keys stay distinct
    reversed_terms = {
        alpha[::-1]: -coeff if sum(alpha) % 2 else coeff for alpha, coeff in f.items()
    }
    return omega(QSymElement._trusted(reversed_terms))


def _source_to_sink_by_paths(g: LabeledDigraph) -> AbPoly | None:
    """The ab-index of [source, sink] summed over the enumerated paths; None if source == sink."""
    if not g.is_bounded():
        raise Unbounded("rising/falling quasisymmetric functions need a bounded graph")
    bot, top = g.zero_hat(), g.one_hat()
    return None if bot == top else g.ab_index_by_paths(bot, top)


def F_rising(g: LabeledDigraph) -> QSymElement:
    """Sum over all source-to-sink paths of L of the path's rising-run composition.

    The rising runs of a path break exactly at its descents, which is how
    gamma reads the path's descent word, so this is gamma of the ab-index,
    here summed over the enumerated paths.
    """
    psi = _source_to_sink_by_paths(g)
    return QSymElement.one() if psi is None else gamma(psi)


def F_falling(g: LabeledDigraph) -> QSymElement:
    """Sum over all source-to-sink paths of L of the path's falling-run composition.

    A path's falling-run composition is the complement of its rising-run
    composition: its descent set is the path's ascents.  So this is gamma
    of bar of the ab-index.  It equals omega(F_rising(g)) but never builds
    F_rising, whose monomial terms can be exponentially many: L of (n)
    alone has 2**(n-1).
    """
    psi = _source_to_sink_by_paths(g)
    return QSymElement.one() if psi is None else gamma(bar(psi))


def gamma(p: AbPoly) -> QSymElement:
    """Identify an ab-polynomial with a zero-constant quasisymmetric element.

    A word of degree n-1 maps to the fundamental element of the composition
    of n whose descent set marks the word's b-positions; this is the linear
    extension of sending (a-b)^(a1-1) b (a-b)^(a2-1) b ... to M of the
    composition (a1, a2, ...).
    """
    tables: dict[int, dict[int, int]] = {}
    for word, coeff in p.items():
        # bit i + 1 for a b at position i
        mask = int(word[::-1].translate(_AB_TO_BITS) or "0", 2) << 1
        tables.setdefault(len(word) + 1, {})[mask] = coeff
    return QSymElement._trusted(_refine(tables, 1))


def gamma_inverse(f: QSymElement) -> AbPoly:
    """The inverse identification; requires zero constant term."""
    if f.constant_term():
        raise ValueError("gamma images have no constant term")
    words: dict[str, int] = {}
    for alpha, coeff in f.l_coefficients().items():
        mask = _mask(alpha)
        words["".join("ab"[mask >> i & 1] for i in range(1, sum(alpha)))] = coeff
    return AbPoly._trusted(words)


def peak_membership(f: QSymElement) -> bool:
    """Whether f lies in the span of 1 and the gamma-image of the cd-polynomials."""
    reduced = f - f.constant_term()
    if reduced.is_zero():
        return True
    try:
        ab_to_cd(gamma_inverse(reduced))
    except NotInSpan:
        return False
    return True


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
    out: dict[tuple, int] = {}
    for alpha, coeff in f.items():
        k = len(alpha)
        if k > m:
            continue
        for positions in itertools.combinations(range(m), k):
            exps = [0] * m
            for pos, part in zip(positions, alpha):
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
    capitals = {x: g.capital_rising_falling_from(x) for x in g.vertices}

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


def sigma_involution(g: LabeledDigraph, p1: tuple, p2: tuple) -> tuple:
    """Pair a rising path followed by a falling path with its partner.

    The pairing preserves the total length, changes the parity of the
    falling part's length, and is a fixed-point-free involution on all
    composable pairs (rising, falling) that are not both empty; it is the
    bijective reason the rising/falling convolution telescopes to zero.
    """
    if not p1 and not p2:
        raise ValueError("the pair of empty paths is excluded")
    if not p1:
        return (p2[0],), p2[1:]
    if not p2:
        return p1[:-1], (p1[-1],)
    if g.relation.related(p1[-1].label, p2[0].label):
        return p1 + (p2[0],), p2[1:]
    return p1[:-1], (p1[-1],) + p2
