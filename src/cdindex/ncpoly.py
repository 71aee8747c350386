"""Exact noncommutative polynomials over the alphabets {a, b} and {c, d}.

Words are plain Python strings over the fixed two-letter alphabets; a
polynomial is a finite integer combination of words, stored as a dict
from word to nonzero coefficient.  The letters a and b have degree 1,
while c has degree 1 and d has degree 2 (under the substitution
c = a + b, d = ab + ba a cd-word of degree n expands into ab-words of
length n).

Besides ring arithmetic the module provides the structural maps used
throughout the package:

* the deletion coproduct on ab-polynomials and its Newtonian identity,
* the algebra maps kappa (a -> a-b, b -> 0) and lambda (a -> 0,
  b -> b-a) that extract rising and falling chain counts,
* the involutions bar (swap a and b) and star (reverse words),
* the expansion of cd-polynomials into ab-polynomials and the exact
  triangular elimination going the other way (``ab_to_cd``).

All coefficients are Python ints, so arithmetic never overflows.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

__all__ = [
    "AbPoly",
    "CdPoly",
    "IntPoly",
    "NotInSpan",
    "TensorPoly",
    "ab_to_cd",
    "apply_kappa",
    "apply_lambda",
    "bar",
    "cd_expand",
    "cd_sort_key",
    "cd_word_cmp",
    "cd_word_degree",
    "cd_words_of_degree",
    "coproduct",
    "kappa_counit_check",
    "lambda_counit_check",
    "parse_ab",
    "parse_cd",
    "star",
]


class NotInSpan(ValueError):
    """Raised when an ab-polynomial is not a cd-polynomial.

    Carries the nonzero residual left after eliminating every cd-monomial,
    so callers can report a witness.
    """

    def __init__(self, residual: "AbPoly"):
        super().__init__(f"not in the span of cd-words; residual {residual}")
        self.residual = residual


def _merge(target: dict, key, coeff: int) -> None:
    c = target.get(key, 0) + coeff
    if c:
        target[key] = c
    else:
        target.pop(key, None)


class _WordPoly:
    """Shared mechanics of AbPoly and CdPoly: a dict from word to int."""

    _LETTERS: str = ""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, int] | None = None):
        data: dict[str, int] = {}
        if terms:
            for word, coeff in terms.items():
                if any(ch not in self._LETTERS for ch in word):
                    raise ValueError(f"invalid word {word!r} over {{{self._LETTERS}}}")
                if coeff:
                    _merge(data, word, coeff)
        self._terms = data

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap terms already known to be valid words with nonzero coefficients.

        Skips the per-letter validation of ``__init__`` and takes ownership
        of the dict; for results built inside the package only.
        """
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({"": 1})

    @classmethod
    def monomial(cls, word: str, coeff: int = 1):
        return cls({word: coeff})

    @property
    def terms(self) -> dict[str, int]:
        return dict(self._terms)

    def coefficient(self, word: str) -> int:
        return self._terms.get(word, 0)

    def items(self):
        return self._terms.items()

    def word_degree(self, word: str) -> int:
        return len(word)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self) -> bool:
        degrees = {self.word_degree(w) for w in self._terms}
        return len(degrees) <= 1

    def degree(self) -> int:
        """Largest term degree; the zero polynomial has degree -1."""
        if not self._terms:
            return -1
        return max(self.word_degree(w) for w in self._terms)

    def homogeneous_part(self, n: int):
        return type(self)(
            {w: c for w, c in self._terms.items() if self.word_degree(w) == n}
        )

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self)({"": other})
        if isinstance(other, type(self)):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for w, c in other._terms.items():
            _merge(data, w, c)
        return self._trusted(data)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return self._trusted({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return type(self)()
            return self._trusted({w: c * other for w, c in self._terms.items()})
        if isinstance(other, type(self)):
            data: dict[str, int] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    _merge(data, w1 + w2, c1 * c2)
            return self._trusted(data)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = type(self).one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def _sort_key(self, word: str):
        return (self.word_degree(word), word)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for word in sorted(self._terms, key=self._sort_key):
            coeff = self._terms[word]
            if word == "":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = word
            else:
                body = f"{abs(coeff)}*{word}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class AbPoly(_WordPoly):
    """Integer polynomial in the noncommuting degree-1 variables a and b."""

    _LETTERS = "ab"


class CdPoly(_WordPoly):
    """Integer polynomial in the noncommuting variables c (degree 1) and d (degree 2)."""

    _LETTERS = "cd"

    def word_degree(self, word: str) -> int:
        return cd_word_degree(word)

    def _sort_key(self, word: str):
        return cd_sort_key(word)


def cd_word_degree(word: str) -> int:
    """Degree of a cd-word: each c counts 1 and each d counts 2."""
    return len(word) + word.count("d")


def _cd_order_key(word: str) -> tuple:
    """Sort key for the linear order on cd-words of a fixed degree.

    Words with fewer d's come first; ties are broken lexicographically on
    the vector of c-run lengths (i0, i1, ..., ip) where the word is
    c^i0 d c^i1 d ... d c^ip.
    """
    runs = tuple(len(run) for run in word.split("d"))
    return (word.count("d"), runs)


def cd_sort_key(word: str) -> tuple:
    """Canonical sort key for cd-words: degree, then the fixed-degree order."""
    return (cd_word_degree(word),) + _cd_order_key(word)


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


def cd_words_of_degree(n: int) -> Iterator[str]:
    """All cd-words of degree n, in increasing linear order."""
    if n < 0:
        return
    for dcount in range(n // 2 + 1):
        rest = n - 2 * dcount
        for runs in _compositions_with_zeros(rest, dcount + 1):
            yield "d".join("c" * i for i in runs)


def _compositions_with_zeros(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # lexicographically increasing tuples of `parts` nonnegative ints summing to total
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_with_zeros(total - first, parts - 1):
            yield (first,) + rest


class TensorPoly:
    """Integer combination of ordered pairs of ab-words (u, v)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[str, str], int] | None = None):
        data: dict[tuple[str, str], int] = {}
        if terms:
            for pair, coeff in terms.items():
                if coeff:
                    _merge(data, pair, coeff)
        self._terms = data

    @classmethod
    def zero(cls) -> "TensorPoly":
        return cls()

    @classmethod
    def tensor(cls, p: AbPoly, q: AbPoly) -> "TensorPoly":
        """The tensor p (x) q, expanded bilinearly."""
        data: dict[tuple[str, str], int] = {}
        for w1, c1 in p.items():
            for w2, c2 in q.items():
                _merge(data, (w1, w2), c1 * c2)
        return cls(data)

    @property
    def terms(self) -> dict[tuple[str, str], int]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        data = dict(self._terms)
        for pair, c in other._terms.items():
            _merge(data, pair, c)
        return TensorPoly(data)

    def __sub__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TensorPoly({pair: -c for pair, c in self._terms.items()})

    def __rmul__(self, scale: int):
        if not isinstance(scale, int):
            return NotImplemented
        return TensorPoly({pair: scale * c for pair, c in self._terms.items()})

    def lmul_first(self, p: AbPoly) -> "TensorPoly":
        """Multiply the first tensor factor by p on the left: p*u (x) v."""
        data: dict[tuple[str, str], int] = {}
        for (u, v), c in self._terms.items():
            for w, cw in p.items():
                _merge(data, (w + u, v), c * cw)
        return TensorPoly(data)

    def rmul_second(self, p: AbPoly) -> "TensorPoly":
        """Multiply the second tensor factor by p on the right: u (x) v*p."""
        data: dict[tuple[str, str], int] = {}
        for (u, v), c in self._terms.items():
            for w, cw in p.items():
                _merge(data, (u, v + w), c * cw)
        return TensorPoly(data)

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        if not self._terms:
            return "TensorPoly(0)"
        parts = []
        for (u, v) in sorted(self._terms, key=lambda p: (len(p[0]) + len(p[1]), p)):
            c = self._terms[(u, v)]
            parts.append(f"{c}*({u or '1'}(x){v or '1'})")
        return "TensorPoly(" + " + ".join(parts) + ")"


def coproduct(p: AbPoly) -> TensorPoly:
    """Deletion coproduct: each word u1...un maps to sum of u1..u(i-1) (x) u(i+1)..un."""
    data: dict[tuple[str, str], int] = {}
    for word, coeff in p.items():
        for i in range(len(word)):
            _merge(data, (word[:i], word[i + 1:]), coeff)
    return TensorPoly(data)


def bar(p: AbPoly) -> AbPoly:
    """Exchange a and b uniformly in every word."""
    swap = str.maketrans("ab", "ba")
    return AbPoly({w.translate(swap): c for w, c in p.items()})


def star(p: AbPoly) -> AbPoly:
    """Reverse every word."""
    return AbPoly({w[::-1]: c for w, c in p.items()})


_A = AbPoly.monomial("a")
_B = AbPoly.monomial("b")
_A_MINUS_B = _A - _B
_B_MINUS_A = _B - _A


def _algebra_map(p: AbPoly, image_a: AbPoly, image_b: AbPoly) -> AbPoly:
    result = AbPoly.zero()
    for word, coeff in p.items():
        factor = AbPoly.one()
        for letter in word:
            factor = factor * (image_a if letter == "a" else image_b)
            if factor.is_zero():
                break
        result = result + coeff * factor
    return result


def apply_kappa(p: AbPoly) -> AbPoly:
    """Algebra map sending a to a-b and b to 0; kills words containing b."""
    return _algebra_map(p, _A_MINUS_B, AbPoly.zero())


def apply_lambda(p: AbPoly) -> AbPoly:
    """Algebra map sending a to 0 and b to b-a; kills words containing a."""
    return _algebra_map(p, AbPoly.zero(), _B_MINUS_A)


def kappa_counit_check(p: AbPoly) -> AbPoly:
    """Residual of the counit-style identity for kappa; zero for every input.

    Computes p - kappa(p) - sum over the coproduct of kappa(p_(1)) * b * p_(2).
    """
    total = apply_kappa(p)
    for (u, v), coeff in coproduct(p).items():
        piece = apply_kappa(AbPoly.monomial(u)) * _B * AbPoly.monomial(v)
        total = total + coeff * piece
    return p - total


def lambda_counit_check(p: AbPoly) -> AbPoly:
    """Twin of kappa_counit_check with lambda and the letter a."""
    total = apply_lambda(p)
    for (u, v), coeff in coproduct(p).items():
        piece = apply_lambda(AbPoly.monomial(u)) * _A * AbPoly.monomial(v)
        total = total + coeff * piece
    return p - total


_C_EXPANDED = _A + _B
_D_EXPANDED = AbPoly({"ab": 1, "ba": 1})


def cd_expand(p: CdPoly) -> AbPoly:
    """Substitute c -> a+b and d -> ab+ba and expand."""
    result = AbPoly.zero()
    for word, coeff in p.items():
        factor = AbPoly.one()
        for letter in word:
            factor = factor * (_C_EXPANDED if letter == "c" else _D_EXPANDED)
        result = result + coeff * factor
    return result


def _pivot_word(cd_word: str) -> str:
    # the ab-word a^i0 ba a^i1 ba ... ba a^ip occurs in the expansion of
    # c^i0 d c^i1 d ... d c^ip and of no later cd-word in the linear order
    return cd_word.replace("c", "a").replace("d", "ba")


def ab_to_cd(p: AbPoly) -> CdPoly:
    """Write an ab-polynomial in terms of c and d, if possible.

    Works degree by degree.  Within a degree the cd-monomials are
    eliminated in increasing linear order (fewer d's first, then
    lexicographic on the c-run vector); the coefficient of each pivot
    ab-word is read off and the expanded monomial subtracted.  Raises
    NotInSpan with the nonzero residual if p is not a cd-polynomial.
    """
    result = CdPoly.zero()
    residual_total = AbPoly.zero()
    degrees = sorted({len(w) for w in p.terms})
    for n in degrees:
        residual = p.homogeneous_part(n)
        for cd_word in cd_words_of_degree(n):
            coeff = residual.coefficient(_pivot_word(cd_word))
            if coeff:
                result = result + CdPoly.monomial(cd_word, coeff)
                residual = residual - coeff * cd_expand(CdPoly.monomial(cd_word))
        residual_total = residual_total + residual
    if residual_total:
        raise NotInSpan(residual_total)
    return result


class IntPoly:
    """Univariate integer polynomial, stored as a coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def q(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "IntPoly":
        return cls((0,) * exponent + (coeff,))

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if isinstance(other, int):
            return IntPoly((other,))
        if isinstance(other, IntPoly):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if isinstance(other, IntPoly):
            out = [0] * (len(self.coeffs) + len(other.coeffs))
            for i, ci in enumerate(self.coeffs):
                if ci:
                    for j, cj in enumerate(other.coeffs):
                        out[i + j] += ci * cj
            return IntPoly(out)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be an int or any polynomial here."""
        result = 0 if isinstance(x, int) else type(x).zero()
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def odd_part(self) -> "IntPoly":
        return IntPoly(c if i % 2 else 0 for i, c in enumerate(self.coeffs))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({self})"


_TERM_RE = re.compile(r"^(?P<coeff>\d+)?(?P<star>\*)?(?P<word>[a-d1]+)?$")


def _parse(text: str, cls):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"[+-][^+-]+", s)
    if "".join(pieces) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    result = cls.zero()
    for piece in pieces:
        sign = 1 if piece[0] == "+" else -1
        m = _TERM_RE.match(piece[1:])
        if not m or (m.group("coeff") is None and m.group("word") is None):
            raise ValueError(f"cannot parse term {piece!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        word = m.group("word") or "1"
        if m.group("star") and (m.group("coeff") is None or m.group("word") is None):
            raise ValueError(f"misplaced '*' in term {piece!r}")
        if word == "1":
            word = ""
        elif any(ch not in cls._LETTERS for ch in word):
            raise ValueError(
                f"term {piece!r} is not a word over {{{cls._LETTERS}}}"
            )
        result = result + cls.monomial(word, sign * coeff)
    return result


def parse_ab(text: str) -> AbPoly:
    """Parse text like ``2*ab + 3`` or ``aa - ab`` into an AbPoly."""
    return _parse(text, AbPoly)


def parse_cd(text: str) -> CdPoly:
    """Parse text like ``2*c + 3`` or ``cc - d`` into a CdPoly."""
    return _parse(text, CdPoly)
