"""The laws every sparse integer combination (FreeModule subclass) obeys."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.coxeter import HalfPowerLaurent
from cdindex.ncpoly import AbPoly, CdPoly, IntPoly, TensorPoly
from cdindex.qsym import QSymElement, QSymTensor

_ab_words = st.text(alphabet="ab", max_size=3)
_compositions = st.lists(st.integers(1, 2), max_size=2).map(tuple)

MODULES = [
    (AbPoly, _ab_words),
    (CdPoly, st.text(alphabet="cd", max_size=3)),
    (QSymElement, _compositions),
    (HalfPowerLaurent, st.integers(-4, 4)),
    (TensorPoly, st.tuples(_ab_words, _ab_words)),
    (QSymTensor, st.tuples(_compositions, _compositions)),
    (IntPoly, st.integers(0, 4)),
]


@pytest.mark.parametrize("cls,keys", MODULES, ids=[cls.__name__ for cls, _ in MODULES])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_container_laws(cls, keys, data):
    raw = st.dictionaries(keys, st.integers(-3, 3), max_size=3)
    terms = data.draw(raw)
    p = cls(terms)
    q, r = cls(data.draw(raw)), cls(data.draw(raw))
    k = data.draw(st.integers(-3, 3))

    # zero coefficients are dropped, and p - p is the zero element
    assert p.terms == {key: c for key, c in terms.items() if c}
    for result in (p + q, p - q, k * p, p * q, (p + q) * (q - r)):
        assert 0 not in result.terms.values()
    assert (p - p).is_zero() and not (p - p) and p - p == cls.zero()

    # ints act through the unit key
    scalar = cls.monomial(cls._UNIT, k)
    assert k * p == p * k == scalar * p == p * scalar
    assert p + k == p + scalar and k - p == scalar - p
    assert cls.one() * p == p == p * cls.one()

    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)

    # equal elements built along different routes hash alike
    same = (r + p) - r
    assert same == p and hash(same) == hash(p)
    rebuilt = cls(dict(reversed(list(p.items()))))
    assert rebuilt == p and hash(rebuilt) == hash(p)
