"""Exact arithmetic and the structural maps on ab/cd-polynomials."""

import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex import ncpoly
from cdindex.ncpoly import (
    AbPoly,
    CdPoly,
    IntPoly,
    NotInSpan,
    TensorPoly,
    _dense_to_cd,
    _sparse_to_cd,
    ab_to_cd,
    cd_word_degree,
    cd_words_of_degree,
    coproduct,
    parse_cd,
)

from oracles import (
    _algebra_map,
    bar,
    cd_expand,
    cd_word_cmp,
    evaluate,
    odd_part,
    parse_ab,
    residual,
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

    def test_invalid_word_is_rejected(self):
        with pytest.raises(ValueError, match="^invalid word 'ac' over"):
            AbPoly({"ac": 1})

    def test_negative_power_is_rejected(self):
        assert (A + B) ** 0 == AbPoly.one()
        with pytest.raises(ValueError, match="^negative power"):
            (A + B) ** -1

    def test_different_types_do_not_mix(self):
        # neither side takes the other, so + and * raise TypeError, and ==
        # falls back to identity
        with pytest.raises(TypeError):
            AbPoly.one() + CdPoly.one()
        with pytest.raises(TypeError):
            AbPoly.one() * "x"
        assert (AbPoly.one() == CdPoly.one()) is False

    def test_repr_names_the_type(self):
        assert repr(2 * A - B) == "AbPoly(2*a - b)"


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

    def test_tensor_degree_adds_the_factors(self):
        assert TensorPoly.tensor(AbPoly.monomial("ab"), B + 1).degree() == 3


# The algebra maps kappa (a -> a - b, b -> 0) and lambda (a -> 0, b -> b - a)
# extract rising and falling chain counts; the counit-style identities
# tie them to the deletion coproduct.
KAPPA = {"a": A - B, "b": AbPoly.zero()}
LAMBDA = {"a": AbPoly.zero(), "b": B - A}


def counit_residual(p, images, letter):
    """p - phi(p) - sum over the coproduct of phi(p_(1)) * letter * p_(2), phi the map by images."""
    total = _algebra_map(p, images)
    for (u, v), coeff in coproduct(p).items():
        total = total + coeff * _algebra_map(AbPoly.monomial(u), images) * letter * AbPoly.monomial(v)
    return p - total


class TestKappaLambda:
    def test_kappa_on_aa(self):
        assert _algebra_map(AbPoly.monomial("aa"), KAPPA) == AbPoly(
            {"aa": 1, "ab": -1, "ba": -1, "bb": 1}
        )

    def test_kappa_kills_b_words(self):
        assert _algebra_map(AbPoly.monomial("ab"), KAPPA).is_zero()
        assert _algebra_map(AbPoly.monomial("ab"), LAMBDA).is_zero()

    @given(ab_polys)
    def test_bar_kappa_relation(self, p):
        assert bar(_algebra_map(p, KAPPA)) == _algebra_map(bar(p), LAMBDA)

    def test_counit_base_cases(self):
        for p in (A, B, AbPoly.one(), AbPoly.zero()):
            assert counit_residual(p, KAPPA, B).is_zero()
            assert counit_residual(p, LAMBDA, A).is_zero()

    @given(st.text(alphabet="ab", min_size=5, max_size=5))
    def test_counit_identities_degree_5(self, word):
        p = AbPoly.monomial(word)
        assert counit_residual(p, KAPPA, B).is_zero()
        assert counit_residual(p, LAMBDA, A).is_zero()

    @given(ab_polys)
    @settings(max_examples=60)
    def test_counit_identities_random(self, p):
        assert counit_residual(p, KAPPA, B).is_zero()
        assert counit_residual(p, LAMBDA, A).is_zero()


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

    def test_enumeration_matches_the_compositions(self):
        def compositions(total, parts):
            # oracle: lexicographically increasing runs of `parts` nonnegative ints summing to total
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        for n in range(-2, 17):
            expected = [
                "d".join("c" * i for i in runs)
                for j in range(n // 2 + 1)
                for runs in compositions(n - 2 * j, j + 1)
            ]
            assert list(cd_words_of_degree(n)) == expected


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
        raise NotInSpan([("", dict(residual_total.items()))])
    return result


def read_factored(text: str) -> AbPoly:
    """The ab-polynomial a factored residual denotes, c and d read as a + b and ab + ba.

    Each term is an optional ``k*`` and a word whose cd-letters come first.
    """
    total = AbPoly.zero()
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        count, star_, word = term.lstrip("-").rpartition("*")
        prefix = word.rstrip("ab")
        assert set(prefix) <= set("cd"), text
        total = total + sign * int(count if star_ else 1) * (
            cd_expand(CdPoly.monomial(prefix)) * AbPoly.monomial(word[len(prefix):])
        )
    return total


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
        assert not residual(exc.value).is_zero()

    def test_residual_witness(self):
        # the degree-1 cd-span is spanned by a+b, so 2a+b leaves a residual
        with pytest.raises(NotInSpan) as exc:
            ab_to_cd(2 * A + B)
        assert residual(exc.value) == -B
        # the witness plus some cd-expansion recovers the input
        assert (2 * A + B - residual(exc.value)) == cd_expand(2 * C)

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
            assert not residual(exc).is_zero()
            ab_to_cd(p - residual(exc))
            assert read_factored(exc.factored_residual) == residual(exc)
        else:
            assert got == expected

    def test_leftovers_and_residual_on_first_read(self):
        p = AbPoly({"aa": 1, "ba": 1})  # (a + b) * a: c * a
        with pytest.raises(NotInSpan) as caught:
            ab_to_cd(p)
        exc = caught.value
        assert str(exc) == "not in the span of cd-words: 1 leftover(s), the first at cd-prefix 'c'"
        assert exc.leftovers == [("c", {"b": -1})]
        assert vars(exc).keys() == {"leftovers"}  # nothing expanded
        assert residual(exc) == -(A + B) * B
        assert ab_to_cd(p - residual(exc)) == C * C

    @pytest.mark.parametrize(
        "text, factored, expanded",
        [
            ("a", "-b", "-b"),
            ("a + 3*bb", "-b + 3*bb", "-b + 3*bb"),
            ("aba + baa", "-db", "-abb - bab"),  # d*a
            ("aaa", "-baa - cba - ccb", "-aab - aba - abb - baa - bab - bba - bbb"),
        ],
    )
    def test_factored_residual(self, text, factored, expanded):
        with pytest.raises(NotInSpan) as caught:
            ab_to_cd(parse_ab(text))
        exc = caught.value
        assert exc.factored_residual == factored
        assert vars(exc).keys() == {"leftovers", "factored_residual"}  # printing expands nothing
        assert str(residual(exc)) == expanded
        assert read_factored(factored) == residual(exc)

    def test_factored_residual_of_a_long_word(self):
        # a^n leaves n terms, where the expanded residual has 2^n - 1
        start = time.perf_counter()
        with pytest.raises(NotInSpan) as caught:
            ab_to_cd(AbPoly({"a" * 3000: 1}))
        text = caught.value.factored_residual
        assert time.perf_counter() - start < 0.5
        assert text == "-" + " - ".join("c" * k + "b" + "a" * (2999 - k) for k in range(3000))

    def test_lone_long_word_rejected_at_once(self):
        # the residual of a^n has 2^n - 1 terms; the rejection builds none
        start = time.perf_counter()
        with pytest.raises(NotInSpan) as caught:
            ab_to_cd(AbPoly({"a" * 3000: 1}))
        assert time.perf_counter() - start < 0.5
        assert str(caught.value) == (
            "not in the span of cd-words: 3000 leftover(s), the first at cd-prefix ''"
        )
        assert vars(caught.value).keys() == {"leftovers"}

    def test_long_word_is_not_in_span(self):
        # the elimination walks all Fib(n) cd-words of the degree (about 1 s
        # at degree 26); the recursion must turn this 3,000-letter word
        # down at once, without running into the recursion limit
        p = AbPoly.monomial("ab" * 1500)
        start = time.perf_counter()
        with pytest.raises(NotInSpan) as exc:
            ab_to_cd(p)
        assert time.perf_counter() - start < 1.0
        assert not residual(exc.value).is_zero()


def _both_paths(p: AbPoly) -> list:
    """(result, leftovers) of the dense, then the sparse recursion run on every degree of p."""
    runs = []
    for convert in (_dense_to_cd, _sparse_to_cd):
        result, leftovers = {}, []
        for n in dict.fromkeys(len(w) for w in p.terms):  # ab_to_cd's order of degrees
            convert(n, p.homogeneous_part(n).terms, result, leftovers)
        runs.append((result, leftovers))
    return runs


def _path_taken(p: AbPoly) -> set:
    """The recursions ab_to_cd runs on p, by name."""
    with mock.patch.object(ncpoly, "_dense_to_cd", wraps=_dense_to_cd) as dense, \
            mock.patch.object(ncpoly, "_sparse_to_cd", wraps=_sparse_to_cd) as sparse:
        try:
            ab_to_cd(p)
        except NotInSpan:
            pass
    return {name for name, spy in (("dense", dense), ("sparse", sparse)) if spy.called}


class TestDenseAndSparsePaths:
    def _check(self, p: AbPoly) -> None:
        (dense, dense_left), (sparse, sparse_left) = _both_paths(p)
        assert dense == sparse
        assert list(dense) == list(sparse)  # the same nodes in the same order
        assert dense_left == sparse_left
        try:
            expected = _eliminate(p)
        except NotInSpan:
            expected = None
        if not dense_left:
            assert CdPoly._trusted(dense) == expected == ab_to_cd(p)
            return
        assert expected is None
        with pytest.raises(NotInSpan) as caught:
            ab_to_cd(p)
        for leftovers in (dense_left, sparse_left):
            exc = NotInSpan(leftovers)
            assert str(exc) == str(caught.value)
            assert exc.factored_residual == caught.value.factored_residual
            ab_to_cd(p - residual(exc))

    @given(deep_cd_polys, ab_polys, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_paths_agree_with_each_other_and_the_elimination(self, w, noise, in_span):
        p = cd_expand(w)
        self._check(p if in_span else p + noise)

    @pytest.mark.parametrize(
        "text",
        [
            "7", "-2 + a + b", "a", "b", "2*a + b", "a + b", "aba + baa", "aaa", "aaaa",
            "baaa - bbaa + a",  # degree 4 fails first, so its leftover comes first
        ],
    )
    def test_low_degrees_and_single_words(self, text):
        self._check(parse_ab(text))

    @pytest.mark.parametrize(
        "p, path",
        [
            # below degree 4 every slot filled still goes to the sparse path
            (AbPoly({"": 3}), "sparse"),
            (parse_ab("a + b"), "sparse"),
            (cd_expand(C * C * C), "sparse"),
            (parse_ab("aaba + abab"), "dense"),  # 16 slots for 2 terms: the threshold
            (parse_ab("aaba"), "sparse"),  # 16 slots for 1 term
            (cd_expand(D * D), "dense"),  # 16 slots for 4 terms
            (cd_expand(D * D * D), "dense"),  # 64 slots for 8 terms: the threshold
            (cd_expand(C * C * C * D * D * D), "dense"),  # 512 slots for 64 terms
            (cd_expand(D * D * D * D), "sparse"),  # 256 slots for 16 terms
            (cd_expand(C * C * C * D * D * D * D), "sparse"),  # 2048 slots for 128 terms
        ],
    )
    def test_the_threshold_picks_the_path(self, p, path):
        assert (ncpoly._DENSE, ncpoly._DENSE_MIN_DEGREE) == (8, 4)
        assert _path_taken(p) == {path}
        self._check(p)

    def test_mixed_degrees_pick_a_path_each(self):
        p = cd_expand(D * D * D * D + D * D) + parse_ab("a + b")
        assert _path_taken(p) == {"dense", "sparse"}
        self._check(p)

    def test_a_long_sparse_word_takes_the_sparse_path(self):
        # the ab-index of a 40-edge rising chain; 2**39 slots would not fit
        p = AbPoly.monomial("a" * 39)
        with mock.patch.object(ncpoly, "_dense_to_cd", side_effect=AssertionError("dense path")):
            with pytest.raises(NotInSpan) as caught:
                ab_to_cd(p)
        assert caught.value.factored_residual == "-" + " - ".join(
            "c" * k + "b" + "a" * (38 - k) for k in range(39)
        )


int_polys = st.lists(st.integers(-4, 4), max_size=4).map(IntPoly)


class TestStanleySpan:
    @given(int_polys, int_polys)
    @settings(max_examples=40)
    def test_matching_odd_parts_land_in_span(self, p, base):
        # force matching odd parts: q = base with p's odd part grafted in
        q = base - odd_part(base) + odd_part(p)
        combo = evaluate(p, A - B) + evaluate(q, B - A)
        roundtrip = cd_expand(ab_to_cd(combo))
        assert roundtrip == combo

    @given(int_polys)
    @settings(max_examples=40)
    def test_one_sided_combination(self, p):
        combo = evaluate(p, A - B) * B + evaluate(p, B - A) * A
        roundtrip = cd_expand(ab_to_cd(combo))
        assert roundtrip == combo


class TestIntPoly:
    def test_eval(self):
        p = IntPoly((-1, 2, -2, 1))
        assert evaluate(p, 1) == 0
        assert evaluate(p, -1) == -6
        assert evaluate(p, 0) == -1

    def test_eval_at_ab_poly(self):
        p = IntPoly((0, 0, 1))  # q^2
        assert evaluate(p, A - B) == (A - B) * (A - B)

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
        assert odd_part(p) == p and odd_part(IntPoly((5, 1))) == IntPoly.monomial(1)
        assert IntPoly.monomial(2, 4) == IntPoly((0, 0, 4))
        assert IntPoly.monomial(2, 0).is_zero() and IntPoly.zero().coeffs == ()
        assert IntPoly((7,)) == 7 and hash(IntPoly((7,))) == hash(IntPoly({0: 7}))

    @pytest.mark.parametrize("bad", [{-1: 1}, {"q": 1}, {1.0: 1}])
    def test_exponents_are_nonnegative_ints(self, bad):
        with pytest.raises(ValueError):
            IntPoly(bad)

    def test_a_bool_exponent_is_stored_as_its_int(self):
        p = IntPoly({True: 2, False: -1})
        assert p.terms == {1: 2, 0: -1} and all(type(k) is int for k in p.terms)
        assert p == IntPoly((-1, 2)) and p.coeffs == (-1, 2)


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

    @pytest.mark.parametrize("bad", ["", "e + c", "2**c", "c+", "1.5*c", "2*", "cb"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cd(bad)
