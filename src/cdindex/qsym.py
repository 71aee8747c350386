"""Compositions, quasisymmetric functions, and digraph path invariants.

Compositions of n are tuples of positive parts; refining a composition by
splitting parts gives a partial order isomorphic to the subsets of
{1, ..., n-1} via descent sets, and the complement of a composition
complements its descent set.

A quasisymmetric element is stored as a finite integer combination of
fundamental elements L_alpha, the basis in which the path invariants
below are sums.  There omega complements each index, gamma is a change
of key, and the product sums L over the descent sets of shuffles.  The
monomial basis M, with L_alpha the sum of M over the refinements of
alpha, is only read and printed; an element reaches it by one transform
over descent-set bitmasks, one descent position at a time.  No command
builds an element from M, prints the coproduct or takes the antipode, so
these live with the tests that check F_rising against them, in
``tests/oracles.py``.

The linear map gamma identifies ab-polynomials with zero-constant
quasisymmetric functions by sending the degree n-1 word with descents D to
L of the composition of n with descent set D.  Under gamma the cd-span
corresponds to the peak algebra, which is how membership is tested.

A path's rising-run composition has its descent set at the path's
descents, and its falling-run composition is the complement.  So for a
bounded labeled digraph, F_rising (the sum of L over the rising-run
compositions of the source-to-sink paths) is gamma of the ab-index, and
F_falling, the same sum over the falling-run compositions, is
omega(F_rising), for any relation on the labels.  F_rising still
enumerates the paths, through ``LabeledDigraph.ab_index_by_paths``, which
reads the descent letters of a batch of paths one column at a time and
asks the relation once per distinct pair of adjacent labels.
"""

from __future__ import annotations

from typing import Sequence

from .digraph import LabeledDigraph, Unbounded
from .ncpoly import AbPoly, FreeModule, NotInSpan, _format_terms, ab_to_cd

__all__ = [
    "MAX_M_TERMS",
    "F_falling",
    "F_rising",
    "QSymElement",
    "gamma",
    "gamma_inverse",
    "omega",
    "peak_membership",
    "sigma_involution",
]

# QSymElement.to_string("M") refuses an element whose L terms expand into
# more monomial terms than this: the 17-edge rising chain's F_rising =
# L[17], 2**16 terms, prints in 0.6 s with a 36 MiB peak and 1.5 MB of
# text (cdindex qsym --basis M, Python 3.11 on a 2-vCPU VM), and each
# further edge doubles all three
MAX_M_TERMS = 2 ** 16


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


def _complement(alpha: tuple) -> tuple:
    """The complement of a nonempty composition, unchecked."""
    n = sum(alpha)
    return _composition(_mask(alpha) ^ (1 << n) - 2, n)


def _word(alpha: tuple) -> str:
    """The ab-word of degree n-1 with a b at each descent of alpha (gamma's key map, inverted)."""
    return "b".join(["a" * (part - 1) for part in alpha])


def _from_word(word: str) -> tuple:
    """The composition of len(word) + 1 with a descent after each b of the word."""
    return tuple([len(run) + 1 for run in word.split("b")])


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


def _shuffle_masks(acc: dict, du: int, n: int, dv: int, m: int, coeff: int) -> None:
    """Add coeff times L_alpha L_beta into ``acc``, keyed by descent-set bitmask.

    alpha composes n with descent mask du, beta composes m with mask dv.
    Take a word u with descent composition alpha and a word v with descent
    composition beta whose letters all exceed u's; L_alpha L_beta is the sum
    of L over the descent compositions of the shuffles of u and v.  A
    shuffle places u's or v's next letter at each step, making a descent
    within u or v at their own descents, always from v to u, and never from
    u to v.  Shuffles are merged by (letters of u placed, side of the last
    letter, descent mask so far), one step at a time.
    """
    # (letters of u placed, last side: 0 for u, 1 for v, None at the start) -> {mask: coeff}
    layer: dict = {(0, None): {0: coeff}}
    for t in range(n + m):
        bit = 1 << t  # a descent between letters t and t + 1
        step: dict = {}
        for (i, last), masks in layer.items():
            if i < n:
                down = last == 1 or last == 0 and du >> i & 1
                _spread(step, (i + 1, 0), masks, bit if down else 0)
            if t - i < m:
                down = last == 1 and dv >> t - i & 1
                _spread(step, (i, 1), masks, bit if down else 0)
        layer = step
    for masks in layer.values():
        for mask, c in masks.items():
            acc[mask] = acc.get(mask, 0) + c


def _spread(step: dict, state: tuple, masks: dict, bit: int) -> None:
    """Add each mask of ``masks``, with ``bit`` set, into step[state].

    No mask has the bit yet, so setting it keeps them apart.
    """
    target = step.get(state)
    if target is None:
        step[state] = {mask | bit: c for mask, c in masks.items()}
    else:
        for mask, c in masks.items():
            target[mask | bit] = target.get(mask | bit, 0) + c


def _product(left: dict, right: dict) -> dict:
    """The product of two fundamental expansions, summed over shuffles.

    Each pair of terms is shuffled by ``_shuffle_masks`` into one table
    per total degree, keyed by descent mask, so a composition is built
    once per result term rather than once per (pair, result) pair.
    """
    tables: dict[int, dict[int, int]] = {}
    right_tables = _masks(right.items())
    for n, left_table in _masks(left.items()).items():
        for m, right_table in right_tables.items():
            acc = tables.setdefault(n + m, {})
            for du, a in left_table.items():
                for dv, b in right_table.items():
                    _shuffle_masks(acc, du, n, dv, m, a * b)
    return {
        _composition(mask, n): c for n, acc in tables.items() for mask, c in acc.items() if c
    }


def _render_composition(alpha: tuple, basis: str = "M") -> str:
    """``M[2,1]`` or ``L[2,1]``; the unit () renders as "" and prints as its bare coefficient."""
    return f"{basis}[{','.join(map(str, alpha))}]" if alpha else ""


def _composition_order(alpha: tuple):
    return (sum(alpha), len(alpha), alpha)


class QSymElement(FreeModule):
    """Finite integer combination of fundamental quasisymmetric elements L_alpha.

    Keys are compositions, graded by their sum; the raw constructor,
    ``monomial``, ``items()`` and ``coefficient()`` read fundamental
    coefficients, and ``m_coefficients()`` and ``to_string("M")`` the
    monomial ones.  A product is taken in the fundamental basis, by
    shuffles.
    """

    __slots__ = ()
    _UNIT = ()
    _key = staticmethod(_validate)
    word_degree = staticmethod(sum)
    _sort_key = staticmethod(_composition_order)

    @staticmethod
    def _render(alpha: tuple) -> str:
        return _render_composition(alpha, "L")

    def __mul__(self, other):
        if not isinstance(other, QSymElement):
            return super().__mul__(other)
        return QSymElement._trusted(_product(self._terms, other._terms))

    def constant_term(self) -> int:
        return self.coefficient(())

    def m_coefficients(self) -> dict:
        """Coefficients in the monomial basis."""
        return _refine(_masks(self._terms.items()), 1)

    def to_string(self, basis: str = "L") -> str:
        """Render as e.g. ``3*L[1] + 2*L[2] + 2*L[1,1]`` (basis L or M).

        The basis M is refused with ``ValueError`` when the expansion would
        take more than ``MAX_M_TERMS`` terms, counted before it is made.
        """
        if basis == "L":
            return str(self)
        if basis == "M":
            # L_alpha of a composition of n is the sum of M over its 2^(n - len(alpha)) refinements
            count = sum(1 << sum(alpha) - len(alpha) for alpha in self._terms)
            if count > MAX_M_TERMS:
                raise ValueError(
                    f"printing in the basis M expands into {count} terms, more than the "
                    f"bound {MAX_M_TERMS}; print in the basis L instead"
                )
            return _format_terms(self.m_coefficients(), _composition_order, _render_composition)
        raise ValueError(f"unknown basis {basis!r}")


def omega(f: QSymElement) -> QSymElement:
    """The involution sending each fundamental element to its complement.

    It complements each descent set and fixes the constant term.
    """
    return QSymElement._trusted(
        {_complement(alpha) if alpha else alpha: coeff for alpha, coeff in f.items()}
    )


def F_rising(g: LabeledDigraph) -> QSymElement:
    """Sum over all source-to-sink paths of L of the path's rising-run composition.

    The rising runs of a path break exactly at its descents, which is how
    gamma reads the path's descent word, so this is gamma of the ab-index,
    here summed over the enumerated paths by ``ab_index_by_paths``: a
    route that reads the relation itself, not the sweep's ascent masks.
    """
    if not g.is_bounded():
        raise Unbounded("rising/falling quasisymmetric functions need a bounded graph")
    bot, top = g.zero_hat(), g.one_hat()
    return QSymElement.one() if bot == top else gamma(g.ab_index_by_paths(bot, top))


def F_falling(g: LabeledDigraph) -> QSymElement:
    """Sum over all source-to-sink paths of L of the path's falling-run composition.

    A path's falling-run composition is the complement of its rising-run
    composition: its descent set is the path's ascents.  So this is
    omega(F_rising(g)).
    """
    return omega(F_rising(g))


def gamma(p: AbPoly) -> QSymElement:
    """Identify an ab-polynomial with a zero-constant quasisymmetric element.

    A word of degree n-1 maps to the fundamental element of the composition
    of n whose descent set marks the word's b-positions; this is the linear
    extension of sending (a-b)^(a1-1) b (a-b)^(a2-1) b ... to M of the
    composition (a1, a2, ...).
    """
    return QSymElement._trusted({_from_word(word): coeff for word, coeff in p.items()})


def gamma_inverse(f: QSymElement) -> AbPoly:
    """The inverse identification; requires zero constant term."""
    if f.constant_term():
        raise ValueError("gamma images have no constant term")
    return AbPoly._trusted({_word(alpha): coeff for alpha, coeff in f.items()})


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
