"""Compositions, quasisymmetric functions, and digraph path invariants.

Compositions of n are tuples of positive parts; refining a composition by
splitting parts gives a partial order isomorphic to the subsets of
{1, ..., n-1} via descent sets, and the complement operation swaps a
descent set with its complement.

A quasisymmetric element is stored as a finite integer combination of
monomial basis elements M_alpha.  The product is the quasi-shuffle of
monomial indices and the coproduct splits an index in two; the fundamental
basis L_alpha = sum of M over refinements connects to digraphs: every
source-to-sink path of a bounded labeled digraph contributes the
fundamental element indexed by its rising-run composition to F_rising
(and the falling-run composition to F_falling).

The linear map gamma identifies ab-polynomials with zero-constant
quasisymmetric functions by sending the degree n-1 word with descents D to
L of the composition of n with descent set D.  Under gamma the cd-span
corresponds to the peak algebra, which is how membership is tested.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence

from .digraph import LabeledDigraph, Unbounded
from .ncpoly import (
    AbPoly,
    FreeModule,
    NotInSpan,
    TensorSquare,
    _format_terms,
    _merge,
    ab_to_cd,
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
    "reverse_composition",
    "run_compositions",
    "sigma_involution",
    "sigma_leq",
]

Composition = tuple


def _validate(alpha: Sequence[int]) -> tuple:
    alpha = tuple(alpha)
    if any(part < 1 for part in alpha):
        raise ValueError(f"composition parts must be positive: {alpha}")
    return alpha


def descent_set(alpha: Sequence[int]) -> frozenset:
    """Partial sums of alpha except the last; a subset of {1, ..., n-1}."""
    alpha = _validate(alpha)
    total = 0
    out = []
    for part in alpha[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def composition_from_descents(descents, n: int) -> tuple:
    """The composition of n whose descent set is the given subset of {1..n-1}."""
    if n == 0:
        return ()
    cuts = sorted(descents)
    if cuts and (cuts[0] < 1 or cuts[-1] > n - 1):
        raise ValueError(f"descents {cuts} out of range for n={n}")
    prev = 0
    parts = []
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(n - prev)
    return tuple(parts)


def complement(alpha: Sequence[int]) -> tuple:
    """The complementary composition: swap commas and plus signs.

    Equivalently, complement the descent set inside {1, ..., n-1}.
    """
    alpha = _validate(alpha)
    n = sum(alpha)
    if n == 0:
        raise ValueError("the empty composition has no complement")
    full = set(range(1, n))
    return composition_from_descents(full - descent_set(alpha), n)


def reverse_composition(alpha: Sequence[int]) -> tuple:
    return tuple(reversed(_validate(alpha)))


def sigma_leq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """alpha <= beta iff beta refines alpha (beta splits parts of alpha)."""
    alpha, beta = _validate(alpha), _validate(beta)
    if sum(alpha) != sum(beta):
        raise ValueError(f"{alpha} and {beta} compose different integers")
    return descent_set(alpha) <= descent_set(beta)


def compositions(n: int) -> Iterator[tuple]:
    """All compositions of n (the empty composition for n = 0)."""
    if n == 0:
        yield ()
        return
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            yield composition_from_descents(cuts, n)


def L_in_M(alpha: Sequence[int]) -> dict:
    """Monomial-basis coefficients of the fundamental element L_alpha."""
    alpha = _validate(alpha)
    n = sum(alpha)
    base = descent_set(alpha)
    rest = sorted(set(range(1, n)) - base)
    out = {}
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            out[composition_from_descents(base | set(extra), n)] = 1
    return out


def M_in_L(alpha: Sequence[int]) -> dict:
    """Fundamental-basis coefficients of M_alpha, by inclusion-exclusion."""
    alpha = _validate(alpha)
    n = sum(alpha)
    base = descent_set(alpha)
    rest = sorted(set(range(1, n)) - base)
    out = {}
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            out[composition_from_descents(base | set(extra), n)] = (-1) ** r
    return out


def _quasi_shuffle(out: dict, alpha: tuple, beta: tuple, coeff: int, prefix: tuple = ()):
    if not alpha:
        _merge(out, prefix + beta, coeff)
        return
    if not beta:
        _merge(out, prefix + alpha, coeff)
        return
    _quasi_shuffle(out, alpha[1:], beta, coeff, prefix + (alpha[0],))
    _quasi_shuffle(out, alpha, beta[1:], coeff, prefix + (beta[0],))
    _quasi_shuffle(out, alpha[1:], beta[1:], coeff, prefix + (alpha[0] + beta[0],))


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
        out: dict[tuple, int] = {}
        for alpha, coeff in self._terms.items():
            for beta, c in M_in_L(alpha).items():
                _merge(out, beta, coeff * c)
        return out

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

    Computed in the monomial basis: omega(M_alpha) is (-1)^(n - k) times
    the sum of M_beta over every beta coarser than alpha (one per subset of
    alpha's descent set), where alpha has k parts summing to n.
    """
    data: dict[tuple, int] = {}
    for alpha, coeff in f.items():
        n = sum(alpha)
        sign = -coeff if (n - len(alpha)) % 2 else coeff
        cuts = sorted(descent_set(alpha))
        for r in range(len(cuts) + 1):
            for kept in itertools.combinations(cuts, r):
                _merge(data, composition_from_descents(kept, n), sign)
    return QSymElement._trusted(data)


def antipode(f: QSymElement) -> QSymElement:
    """S(M_alpha) = (-1)^n omega(M of the reversed composition), extended linearly."""
    # reversal permutes compositions, so the reversed keys stay distinct
    reversed_terms = {
        alpha[::-1]: -coeff if sum(alpha) % 2 else coeff for alpha, coeff in f.items()
    }
    return omega(QSymElement._trusted(reversed_terms))


def run_compositions(labels: Sequence[Hashable], relation) -> tuple[tuple, tuple]:
    """Rising-run and falling-run compositions of a nonempty label sequence.

    The two results are complements of each other in the refinement order.
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


def F_rising(g: LabeledDigraph) -> QSymElement:
    """Sum of fundamental elements over all source-to-sink paths (rising runs)."""
    return _path_sum(g, falling=False)


def F_falling(g: LabeledDigraph) -> QSymElement:
    """Sum of fundamental elements over all source-to-sink paths (falling runs)."""
    return _path_sum(g, falling=True)


def _path_sum(g: LabeledDigraph, falling: bool) -> QSymElement:
    if not g.is_bounded():
        raise Unbounded("rising/falling quasisymmetric functions need a bounded graph")
    bot, top = g.zero_hat(), g.one_hat()
    if bot == top:
        return QSymElement.one()
    counts: Counter = Counter()
    for path in g.paths(bot, top):
        rho_r, rho_f = run_compositions([e.label for e in path], g.relation)
        counts[rho_f if falling else rho_r] += 1
    return _sum_of_L(counts)


def _sum_of_L(coefficients) -> QSymElement:
    """The sum of coeff * L_alpha over the (alpha, coeff) pairs, in one dict."""
    data: dict[tuple, int] = {}
    for alpha, coeff in coefficients.items():
        for beta in L_in_M(alpha):
            _merge(data, beta, coeff)
    return QSymElement._trusted(data)


def gamma(p: AbPoly) -> QSymElement:
    """Identify an ab-polynomial with a zero-constant quasisymmetric element.

    A word of degree n-1 maps to the fundamental element of the composition
    of n whose descent set marks the word's b-positions; this is the linear
    extension of sending (a-b)^(a1-1) b (a-b)^(a2-1) b ... to M of the
    composition (a1, a2, ...).
    """
    fundamental: dict[tuple, int] = {}
    for word, coeff in p.items():
        n = len(word) + 1
        descents = {i + 1 for i, ch in enumerate(word) if ch == "b"}
        fundamental[composition_from_descents(descents, n)] = coeff
    return _sum_of_L(fundamental)


def gamma_inverse(f: QSymElement) -> AbPoly:
    """The inverse identification; requires zero constant term."""
    if f.constant_term():
        raise ValueError("gamma images have no constant term")
    words: dict[str, int] = {}
    for alpha, coeff in f.l_coefficients().items():
        n = sum(alpha)
        descents = descent_set(alpha)
        words["".join("b" if i in descents else "a" for i in range(1, n))] = coeff
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

    capitals: dict[tuple, tuple] = {}
    for x in g.vertices:
        for y in g.descendants(x):
            capitals[(x, y)] = g.capital_rising_falling(x, y)

    def chain_sum(index: int) -> dict:
        out: dict[tuple, int] = {}

        def rec(v, depth, exps, coeff):
            if depth == m:
                _merge(out, exps, coeff)
                return
            for w in g.descendants(v):
                if depth == m - 1 and w != top:
                    continue
                poly = capitals[(v, w)][index]
                for k, c in poly.items():
                    rec(w, depth + 1, exps + (k,), coeff * c)

        rec(bot, 0, (), 1)
        return out

    return MultichainComparison(
        rising_lhs=_truncate(F_rising(g), m),
        rising_rhs=chain_sum(0),
        falling_lhs=_truncate(F_falling(g), m),
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
