"""Exact arithmetic and the structural maps on ab/cd-polynomials."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.ncpoly import (
    AbPoly,
    CdPoly,
    IntPoly,
    NotInSpan,
    TensorPoly,
    ab_to_cd,
    apply_kappa,
    apply_lambda,
    bar,
    cd_expand,
    cd_word_cmp,
    cd_word_degree,
    cd_words_of_degree,
    coproduct,
    kappa_counit_check,
    lambda_counit_check,
    parse_ab,
    parse_cd,
    star,
)

A = AbPoly.monomial("a")
B = AbPoly.monomial("b")
C = CdPoly.monomial("c")
D = CdPoly.monomial("d")

ab_words = st.text(alphabet="ab", max_size=6)
ab_polys = st.dictionaries(ab_words, st.integers(-5, 5), max_size=5).map(AbPoly)
cd_words = st.text(alphabet="cd", max_size=4)
cd_polys = st.dictionaries(cd_words, st.integers(-5, 5), max_size=5).map(CdPoly)


class TestArithmetic:
    def test_single_letter_concatenation(self):
        assert A * B == AbPoly.monomial("ab")

    def test_c_squared_expansion(self):
        assert (A + B) * (A + B) == AbPoly(
            {"aa": 1, "ab": 1, "ba": 1, "bb": 1}
        )

    @given(ab_polys)
    def test_empty_word_is_identity(self, p):
        assert AbPoly.one() * p == p
        assert p * AbPoly.one() == p

    @given(ab_polys, ab_polys, ab_polys)
    def test_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(ab_polys, ab_polys, ab_polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    def test_degree_additive_on_terms(self):
        p = AbPoly.monomial("ab", 2)
        q = AbPoly.monomial("bba", 3)
        assert (p * q).terms == {"abbba": 6}

    def test_zero_normalization(self):
        assert (A - A).is_zero()
        assert AbPoly({"ab": 0}).is_zero()
        assert not (A - A)


class TestCoproduct:
    def test_two_letter_word(self):
        assert coproduct(AbPoly.monomial("ab")) == TensorPoly(
            {("", "b"): 1, ("a", ""): 1}
        )

    def test_empty_word(self):
        assert coproduct(AbPoly.one()).is_zero()

    def test_term_count(self):
        # a word of length n yields n tensor terms, one per deleted letter
        word = "abba"
        total = sum(coproduct(AbPoly.monomial(word)).terms.values())
        assert total == len(word)

    @given(ab_polys, ab_polys)
    @settings(max_examples=60)
    def test_newtonian_condition(self, v, w):
        left = TensorPoly.tensor(v, AbPoly.one()) * coproduct(w)
        right = coproduct(v) * TensorPoly.tensor(AbPoly.one(), w)
        assert coproduct(v * w) == left + right


class TestKappaLambda:
    def test_kappa_on_aa(self):
        assert apply_kappa(AbPoly.monomial("aa")) == AbPoly(
            {"aa": 1, "ab": -1, "ba": -1, "bb": 1}
        )

    def test_kappa_kills_b_words(self):
        assert apply_kappa(AbPoly.monomial("ab")).is_zero()
        assert apply_lambda(AbPoly.monomial("ab")).is_zero()

    @given(ab_polys)
    def test_bar_kappa_relation(self, p):
        assert bar(apply_kappa(p)) == apply_lambda(bar(p))

    def test_counit_base_cases(self):
        for p in (A, B, AbPoly.one(), AbPoly.zero()):
            assert kappa_counit_check(p).is_zero()
            assert lambda_counit_check(p).is_zero()

    @given(st.text(alphabet="ab", min_size=5, max_size=5))
    def test_counit_identities_degree_5(self, word):
        p = AbPoly.monomial(word)
        assert kappa_counit_check(p).is_zero()
        assert lambda_counit_check(p).is_zero()

    @given(ab_polys)
    @settings(max_examples=60)
    def test_counit_identities_random(self, p):
        assert kappa_counit_check(p).is_zero()
        assert lambda_counit_check(p).is_zero()


class TestInvolutions:
    def test_bar(self):
        assert bar(AbPoly.monomial("aab")) == AbPoly.monomial("bba")

    def test_star(self):
        assert star(AbPoly.monomial("aab")) == AbPoly.monomial("baa")

    @given(ab_polys)
    def test_involutive(self, p):
        assert bar(bar(p)) == p
        assert star(star(p)) == p

    @given(ab_polys, ab_polys)
    def test_bar_is_algebra_map(self, p, q):
        assert bar(p * q) == bar(p) * bar(q)

    @given(ab_polys, ab_polys)
    def test_star_is_antihomomorphism(self, p, q):
        assert star(p * q) == star(q) * star(p)

    @given(cd_polys)
    def test_bar_fixes_cd_polynomials(self, w):
        assert bar(cd_expand(w)) == cd_expand(w)


class TestCdExpansion:
    def test_c(self):
        assert cd_expand(C) == A + B

    def test_d(self):
        assert cd_expand(D) == AbPoly({"ab": 1, "ba": 1})

    def test_c2_minus_2d(self):
        assert cd_expand(C * C - 2 * D) == AbPoly(
            {"aa": 1, "ab": -1, "ba": -1, "bb": 1}
        )

    @pytest.mark.parametrize("k", range(5))
    def test_a_minus_b_powers(self, k):
        even = (A - B) ** (2 * k)
        assert even == (B - A) ** (2 * k)
        assert even == cd_expand((C * C - 2 * D) ** k)
        odd = (A - B) ** (2 * k + 1) + (B - A) ** (2 * k + 1)
        assert odd.is_zero()


class TestCdWordOrder:
    def test_fewer_ds_first(self):
        assert cd_word_cmp("cc", "d") == -1

    def test_lex_on_run_vectors(self):
        assert cd_word_cmp("dc", "cd") == -1

    def test_equal(self):
        assert cd_word_cmp("cdc", "cdc") == 0

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            cd_word_cmp("c", "d")

    def test_enumeration_degree_3(self):
        assert list(cd_words_of_degree(3)) == ["ccc", "dc", "cd"]

    def test_enumeration_matches_cmp(self):
        words = list(cd_words_of_degree(5))
        assert all(cd_word_cmp(u, v) == -1 for u, v in zip(words, words[1:]))
        assert all(cd_word_degree(w) == 5 for w in words)


def _pivot_word(cd_word: str) -> str:
    # the ab-word a^i0 ba a^i1 ba ... ba a^ip occurs in the expansion of
    # c^i0 d c^i1 d ... d c^ip and of no later cd-word in the linear order
    return cd_word.replace("c", "a").replace("d", "ba")


def _eliminate(p: AbPoly) -> CdPoly:
    """Oracle for ab_to_cd: triangular elimination in the linear cd-word order.

    Within each degree the cd-monomials are eliminated in increasing order;
    the coefficient of each pivot ab-word is read off and the expanded
    monomial subtracted.  Raises NotInSpan with what is left.
    """
    result = CdPoly.zero()
    residual_total = AbPoly.zero()
    for n in sorted({len(w) for w in p.terms}):
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


deep_cd_polys = st.dictionaries(
    st.text(alphabet="cd", max_size=6), st.integers(-5, 5), max_size=6
).map(CdPoly)


class TestAbToCd:
    def test_d(self):
        assert ab_to_cd(AbPoly({"ab": 1, "ba": 1})) == D

    def test_c2_minus_d(self):
        assert ab_to_cd(AbPoly({"aa": 1, "bb": 1})) == C * C - D

    def test_not_in_span(self):
        with pytest.raises(NotInSpan) as exc:
            ab_to_cd(A)
        assert not exc.value.residual.is_zero()

    def test_residual_witness(self):
        # the degree-1 cd-span is spanned by a+b, so 2a+b leaves a residual
        with pytest.raises(NotInSpan) as exc:
            ab_to_cd(2 * A + B)
        assert exc.value.residual == -B
        # the witness plus some cd-expansion recovers the input
        assert (2 * A + B - exc.value.residual) == cd_expand(2 * C)

    @given(cd_polys)
    @settings(max_examples=60)
    def test_roundtrip_from_cd(self, w):
        assert ab_to_cd(cd_expand(w)) == w

    @given(cd_polys)
    @settings(max_examples=60)
    def test_roundtrip_from_ab(self, w):
        p = cd_expand(w)
        assert cd_expand(ab_to_cd(p)) == p

    def test_mixed_degrees(self):
        w = 2 * C + CdPoly.one() * 3 + D * C
        assert ab_to_cd(cd_expand(w)) == w

    @given(deep_cd_polys)
    @settings(max_examples=80, deadline=None)
    def test_in_span_matches_elimination(self, w):
        p = cd_expand(w)
        assert ab_to_cd(p) == _eliminate(p) == w

    @given(cd_polys, ab_polys)
    @settings(max_examples=150, deadline=None)
    def test_verdict_and_residual_against_elimination(self, w, noise):
        p = cd_expand(w) + noise
        try:
            expected = _eliminate(p)
        except NotInSpan:
            expected = None
        try:
            got = ab_to_cd(p)
        except NotInSpan as exc:
            # the two residuals may differ; each is a valid witness
            assert expected is None
            assert not exc.residual.is_zero()
            ab_to_cd(p - exc.residual)
        else:
            assert got == expected

    def test_long_word_is_not_in_span(self):
        # the elimination walks all Fib(n) cd-words of the degree (about 1 s
        # at degree 26); the recursion must turn this 3,000-letter word
        # down at once, without running into the recursion limit
        p = AbPoly.monomial("ab" * 1500)
        start = time.perf_counter()
        with pytest.raises(NotInSpan) as exc:
            ab_to_cd(p)
        assert time.perf_counter() - start < 1.0
        assert not exc.value.residual.is_zero()


int_polys = st.lists(st.integers(-4, 4), max_size=4).map(IntPoly)


class TestStanleySpan:
    @given(int_polys, int_polys)
    @settings(max_examples=40)
    def test_matching_odd_parts_land_in_span(self, p, base):
        # force matching odd parts: q = base with p's odd part grafted in
        q = base - base.odd_part() + p.odd_part()
        combo = p(A - B) + q(B - A)
        roundtrip = cd_expand(ab_to_cd(combo))
        assert roundtrip == combo

    @given(int_polys)
    @settings(max_examples=40)
    def test_one_sided_combination(self, p):
        combo = p(A - B) * B + p(B - A) * A
        roundtrip = cd_expand(ab_to_cd(combo))
        assert roundtrip == combo


class TestIntPoly:
    def test_eval(self):
        p = IntPoly((-1, 2, -2, 1))
        assert p(1) == 0
        assert p(-1) == -6
        assert p(0) == -1

    def test_eval_at_ab_poly(self):
        p = IntPoly((0, 0, 1))  # q^2
        assert p(A - B) == (A - B) * (A - B)

    def test_normalization(self):
        assert IntPoly((1, 0, 0)) == IntPoly((1,))
        assert IntPoly((0, 0)).is_zero()
        assert IntPoly((0, 0)).degree() == -1

    def test_str(self):
        assert str(IntPoly((-1, 2, -2, 1))) == "q^3 - 2*q^2 + 2*q - 1"
        assert str(IntPoly.zero()) == "0"

    def test_dense_and_sparse_forms_agree(self):
        p = IntPoly((0, 3, 0, -2))
        assert p == IntPoly({1: 3, 3: -2}) and p.coeffs == (0, 3, 0, -2)
        assert str(p) == "-2*q^3 + 3*q" and p.degree() == 3
        assert p.odd_part() == p and IntPoly((5, 1)).odd_part() == IntPoly.q()
        assert IntPoly.monomial(2, 4) == IntPoly((0, 0, 4))
        assert IntPoly.monomial(2, 0).is_zero() and IntPoly.zero().coeffs == ()
        assert IntPoly((7,)) == 7 and hash(IntPoly((7,))) == hash(IntPoly({0: 7}))

    @pytest.mark.parametrize("bad", [{-1: 1}, {"q": 1}, {1.0: 1}])
    def test_exponents_are_nonnegative_ints(self, bad):
        with pytest.raises(ValueError):
            IntPoly(bad)


class TestTextForms:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (2 * C + 3, "3 + 2*c"),
            (5 * D, "5*d"),
            (CdPoly.one() + C * C, "1 + cc"),
            (CdPoly.zero(), "0"),
            (C * C - D, "cc - d"),
        ],
    )
    def test_render_cd(self, poly, text):
        assert str(poly) == text

    def test_render_ab(self):
        assert str(2 * A + 2 * B + 3) == "3 + 2*a + 2*b"
        assert str(A - B) == "a - b"
        assert str(-A) == "-a"

    @pytest.mark.parametrize(
        "text,poly",
        [
            ("2*c + 3", 2 * C + 3),
            ("3 + 2*c", 2 * C + 3),
            ("5*d", 5 * D),
            ("1 + cc", CdPoly.one() + C * C),
            ("cc - d", C * C - D),
            ("-d + cc", C * C - D),
            ("0", CdPoly.zero()),
            ("d", D),
        ],
    )
    def test_parse_cd(self, text, poly):
        assert parse_cd(text) == poly

    def test_parse_ab(self):
        assert parse_ab("2*ab + ba - 1") == AbPoly({"ab": 2, "ba": 1, "": -1})

    @given(cd_polys)
    @settings(max_examples=60)
    def test_parse_render_roundtrip(self, w):
        assert parse_cd(str(w)) == w

    @given(ab_polys)
    @settings(max_examples=60)
    def test_parse_render_roundtrip_ab(self, p):
        assert parse_ab(str(p)) == p

    @pytest.mark.parametrize("bad", ["", "e + c", "2**c", "c+", "1.5*c"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cd(bad)
