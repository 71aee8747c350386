"""Exact noncommutative polynomials over the alphabets {a, b} and {c, d}.

Words are plain Python strings over the fixed two-letter alphabets; a
polynomial is a finite integer combination of words.  Every sparse
integer combination in the package (these polynomials, their tensor
squares, quasisymmetric elements, Laurent and ordinary polynomials in q)
is a ``FreeModule``: a dict from basis key to nonzero coefficient whose
arithmetic, comparison and printing are written once.

The letters a and b have degree 1, while c has degree 1 and d has
degree 2 (under the substitution c = a + b, d = ab + ba a cd-word of
degree n expands into ab-words of length n).

Besides ring arithmetic the module provides the structural maps used
throughout the package:

* the deletion coproduct on ab-polynomials and its Newtonian identity,
* the algebra maps kappa (a -> a-b, b -> 0) and lambda (a -> 0,
  b -> b-a) that extract rising and falling chain counts,
* the involutions bar (swap a and b) and star (reverse words),
* the expansion of cd-polynomials into ab-polynomials and the exact
  first-letter recursion going the other way (``ab_to_cd``).

All coefficients are Python ints, so arithmetic never overflows.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

__all__ = [
    "AbPoly",
    "CdPoly",
    "FreeModule",
    "IntPoly",
    "NotInSpan",
    "TensorPoly",
    "TensorSquare",
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

    Carries a nonzero residual r such that the polynomial minus r is a
    cd-polynomial, so callers can report a witness.
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


def _format_terms(terms: Mapping, sort_key, render) -> str:
    """Print an integer combination as e.g. ``2*ab - b + 3``.

    Keys appear in ``sort_key`` order; a key that ``render`` turns into the
    empty string (the unit) prints as its bare coefficient.
    """
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, key=sort_key):
        coeff = terms[key]
        name = render(key)
        if not name:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = name
        else:
            body = f"{abs(coeff)}*{name}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


class FreeModule:
    """A finite integer combination of basis keys: a dict from key to nonzero int.

    Arithmetic, comparison, hashing and printing live here once.  A
    subclass describes its basis through these hooks:

    * ``_UNIT``: the key of the multiplicative identity; ints coerce to it.
    * ``_key(key)``: validate and normalize a key given from outside
      (raising ValueError).  Results built inside the package skip it
      through ``_trusted``.
    * ``_mul_keys(out, k1, k2, coeff)``: add coeff times the product of two
      keys into the dict ``out``; ``out`` may be left holding zeros, which
      the caller drops.
    * ``word_degree(key)``: the grading behind ``degree`` and
      ``homogeneous_part``.
    * ``_sort_key(key)`` and ``_render(key)``: the printing order and the
      printed form of a key, the empty string standing for the unit.

    The defaults describe words over the letters ``_LETTERS`` under
    concatenation, graded by length and printed as themselves.
    """

    __slots__ = ("_terms",)

    _LETTERS: str = ""
    _UNIT = ""

    def __init__(self, terms: Mapping | None = None):
        data: dict = {}
        if terms:
            key = self._key
            for k, coeff in terms.items():
                if coeff:
                    _merge(data, key(k), coeff)
        self._terms = data

    @classmethod
    def _key(cls, word):
        if not isinstance(word, str) or word.strip(cls._LETTERS):
            raise ValueError(f"invalid word {word!r} over {{{cls._LETTERS}}}")
        return word

    @staticmethod
    def _mul_keys(out: dict, k1, k2, coeff: int) -> None:
        key = k1 + k2
        out[key] = out.get(key, 0) + coeff

    word_degree = staticmethod(len)

    @classmethod
    def _sort_key(cls, key):
        return (cls.word_degree(key), key)

    _render = staticmethod(str)

    @classmethod
    def _trusted(cls, terms: dict):
        """Wrap terms already known to be valid keys with nonzero coefficients.

        Skips the validation of ``__init__`` and takes ownership of the
        dict; for results built inside the package only.
        """
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls):
        return cls._trusted({})

    @classmethod
    def one(cls):
        return cls._trusted({cls._UNIT: 1})

    @classmethod
    def monomial(cls, key, coeff: int = 1):
        return cls({key: coeff})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest term degree; zero has degree -1."""
        return max(map(self.word_degree, self._terms), default=-1)

    def homogeneous_part(self, n: int):
        degree = self.word_degree
        return self._trusted({k: c for k, c in self._terms.items() if degree(k) == n})

    def _coerce(self, other):
        if isinstance(other, int):
            return self._trusted({self._UNIT: other} if other else {})
        if isinstance(other, type(self)):
            return other
        return None

    def _plus(self, other, sign: int):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for k, c in other._terms.items():
            _merge(data, k, sign * c)
        return self._trusted(data)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self.zero()
            return self._trusted({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        data: dict = {}
        mul = self._mul_keys
        right = other._terms.items()
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                mul(data, k1, k2, c1 * c2)
        if 0 in data.values():  # terms that cancelled
            data = {k: c for k, c in data.items() if c}
        return self._trusted(data)

    # the reflected product is only defined for an int, which scales
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return _format_terms(self._terms, self._sort_key, self._render)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class AbPoly(FreeModule):
    """Integer polynomial in the noncommuting degree-1 variables a and b."""

    __slots__ = ()
    _LETTERS = "ab"


class CdPoly(FreeModule):
    """Integer polynomial in the noncommuting variables c (degree 1) and d (degree 2)."""

    __slots__ = ()
    _LETTERS = "cd"

    @staticmethod
    def word_degree(word: str) -> int:
        return cd_word_degree(word)

    @staticmethod
    def _sort_key(word: str):
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


class TensorSquare(FreeModule):
    """Integer combination of ordered pairs (u, v) of keys of ``_FACTOR``.

    The product is componentwise, (u (x) v)(u' (x) v') = uu' (x) vv', with
    each component multiplied in the factor class.
    """

    __slots__ = ()
    _FACTOR: type = FreeModule
    _UNIT = ("", "")

    @classmethod
    def tensor(cls, p, q):
        """The tensor p (x) q of two factor elements, expanded bilinearly."""
        return cls._trusted(
            {(u, v): cu * cv for u, cu in p.items() for v, cv in q.items()}
        )

    @classmethod
    def _key(cls, pair):
        u, v = pair
        return (cls._FACTOR._key(u), cls._FACTOR._key(v))

    @classmethod
    def _mul_keys(cls, out: dict, k1, k2, coeff: int) -> None:
        mul = cls._FACTOR._mul_keys
        left: dict = {}
        mul(left, k1[0], k2[0], coeff)
        right: dict = {}
        mul(right, k1[1], k2[1], 1)
        for u, cu in left.items():
            for v, cv in right.items():
                key = (u, v)
                out[key] = out.get(key, 0) + cu * cv

    @classmethod
    def word_degree(cls, pair) -> int:
        return cls._FACTOR.word_degree(pair[0]) + cls._FACTOR.word_degree(pair[1])

    @classmethod
    def _sort_key(cls, pair):
        return (cls._FACTOR._sort_key(pair[0]), cls._FACTOR._sort_key(pair[1]))

    @classmethod
    def _render(cls, pair) -> str:
        u, v = (cls._FACTOR._render(k) or "1" for k in pair)
        return f"{u}(x){v}"


class TensorPoly(TensorSquare):
    """Integer combination of ordered pairs of ab-words (u, v)."""

    __slots__ = ()
    _FACTOR = AbPoly


def coproduct(p: AbPoly) -> TensorPoly:
    """Deletion coproduct: each word u1...un maps to sum of u1..u(i-1) (x) u(i+1)..un."""
    data: dict[tuple[str, str], int] = {}
    for word, coeff in p.items():
        for i in range(len(word)):
            _merge(data, (word[:i], word[i + 1:]), coeff)
    return TensorPoly._trusted(data)


def bar(p: AbPoly) -> AbPoly:
    """Exchange a and b uniformly in every word."""
    swap = str.maketrans("ab", "ba")
    return AbPoly._trusted({w.translate(swap): c for w, c in p.items()})


def star(p: AbPoly) -> AbPoly:
    """Reverse every word."""
    return AbPoly._trusted({w[::-1]: c for w, c in p.items()})


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


def ab_to_cd(p: AbPoly) -> CdPoly:
    """Write an ab-polynomial in terms of c and d, if possible.

    Uses the first-letter recursion.  A homogeneous p of degree n >= 1
    splits as p = a*P_a + b*P_b; it is c*U + d*V exactly when
    P_a - P_b = (b - a)*V, that is when the words of P_a - P_b starting
    with a carry minus the coefficients of the words starting with b, and
    then U = P_a - b*V.  U and V are rewritten the same way, prefixed by c
    and d; in degree 1, P_a - P_b must vanish.  Each homogeneous part is
    worked through with an explicit stack of (cd-prefix, degree, terms),
    so long words cannot exhaust the recursion limit.

    Where a check fails the node takes V = 0 and U = P_a, which leaves
    -b*(P_a - P_b) behind.  If any check fails, p is not a cd-polynomial
    and NotInSpan carries the nonzero residual p - cd_expand(q), where q
    is the cd-polynomial so built; it is the sum of the leftovers, each
    multiplied by the expansion of its cd-prefix.
    """
    parts: dict[int, dict] = {}
    for word, coeff in p.items():
        parts.setdefault(len(word), {})[word] = coeff
    result: dict[str, int] = {}
    leftovers: list[tuple[str, dict]] = []
    for n, terms in parts.items():
        stack = [("", n, terms)]
        while stack:
            prefix, m, poly = stack.pop()
            if m == 0:
                result[prefix] = poly[""]
                continue
            u: dict[str, int] = {}  # P_a, then P_a - b*V
            diff: dict[str, int] = {}  # P_a - P_b
            for word, coeff in poly.items():
                rest = word[1:]
                if word[0] == "a":
                    u[rest] = coeff
                    diff[rest] = diff.get(rest, 0) + coeff
                else:
                    diff[rest] = diff.get(rest, 0) - coeff
            if m == 1:
                v: dict[str, int] = {}
                exact = not diff[""]
            else:
                v = {w[1:]: c for w, c in diff.items() if c and w[0] == "b"}
                exact = v == {w[1:]: -c for w, c in diff.items() if c and w[0] == "a"}
            if exact:
                for word, coeff in v.items():
                    _merge(u, "b" + word, -coeff)
                if v:
                    stack.append((prefix + "d", m - 2, v))
            else:
                leftovers.append((prefix, {"b" + w: -c for w, c in diff.items() if c}))
            if u:
                stack.append((prefix + "c", m - 1, u))
    if leftovers:
        residual = AbPoly.zero()
        for prefix, leftover in leftovers:
            residual = residual + cd_expand(CdPoly.monomial(prefix)) * AbPoly._trusted(leftover)
        raise NotInSpan(residual)
    return CdPoly._trusted(result)


class IntPoly(FreeModule):
    """Univariate integer polynomial in q, keyed by exponent.

    Built from an (exponent -> coefficient) mapping like every
    ``FreeModule``, or from the dense coefficient sequence c0, c1, ...
    """

    __slots__ = ()
    _UNIT = 0

    def __init__(self, coeffs: Mapping | Iterable[int] = ()):
        if not isinstance(coeffs, Mapping):
            coeffs = dict(enumerate(coeffs))
        super().__init__(coeffs)

    @staticmethod
    def _key(k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent {k!r} is not a nonnegative int")
        return k

    word_degree = staticmethod(int)  # q^k has degree k

    @staticmethod
    def _sort_key(k: int) -> int:
        return -k

    @staticmethod
    def _render(k: int) -> str:
        return "" if k == 0 else "q" if k == 1 else f"q^{k}"

    @classmethod
    def q(cls) -> "IntPoly":
        return cls._trusted({1: 1})

    @property
    def coeffs(self) -> tuple:
        """The dense coefficients c0, c1, ..., up to the degree."""
        return tuple(self._terms.get(k, 0) for k in range(self.degree() + 1))

    def __call__(self, x):
        """Evaluate by Horner's rule; x may be an int or any polynomial here."""
        result = 0 if isinstance(x, int) else type(x).zero()
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def odd_part(self) -> "IntPoly":
        return self._trusted({k: c for k, c in self._terms.items() if k % 2})


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
