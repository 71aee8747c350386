"""Compositions, the quasisymmetric Hopf structure, and digraph invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.digraph import (
    LabeledDigraph,
    LinearRelation,
    PairsRelation,
    Unbounded,
    cartesian_product,
)
from cdindex.ncpoly import AbPoly, IntPoly
from cdindex.qsym import (
    F_falling,
    F_rising,
    QSymElement,
    gamma,
    gamma_inverse,
    omega,
    peak_membership,
    sigma_involution,
)
from conftest import (
    MonomialTensor,
    Monomials,
    chain,
    deconcatenation,
    in_monomials,
    quasi_shuffle,
    run_compositions,
)
from oracles import (
    L_in_M,
    M,
    M_in_L,
    QSymTensor,
    _truncate,
    antipode,
    complement,
    composition_from_descents,
    compositions,
    descent_set,
    multichain_specialization,
    parse_ab,
    product,
    qsym_coproduct,
    sigma_leq,
)

compositions_st = st.lists(st.integers(1, 4), max_size=4).map(tuple)
qsym_dicts = st.dictionaries(compositions_st, st.integers(-3, 3), max_size=3)
qsym_elements = qsym_dicts.map(QSymElement)
small_compositions_st = st.lists(st.integers(1, 3), max_size=3).map(tuple)
small_qsym_dicts = st.dictionaries(small_compositions_st, st.integers(-2, 2), max_size=2)
small_qsym_elements = small_qsym_dicts.map(QSymElement)
# the same draws read in the monomial basis, where they are sparse
monomial_elements = qsym_dicts.map(Monomials)
small_monomial_elements = small_qsym_dicts.map(Monomials)
# The raw constructor reads L, and the L expansion of a product grows with
# its degree whatever the factors' shapes, so three laws draw smaller
# factors than the rest.  Commutativity draws small_qsym_elements: a pair
# of degree 26, L[1,4,4,4] * L[4,4,4,1], has 1,665,079 terms.  Three
# factors of degree 6 take 21 s ((L[3,3] - L[2,3])^3 has 116,332 terms),
# so associativity draws degree at most 4.  The coproduct law multiplies
# two coproducts in M (x) M, since L (x) L has no product, where the
# coproduct of L[3,3] - L[3,2] already has 116 terms; a pair of degree-9
# factors took over 6 minutes, so it draws degree at most 6 (about 2 s for
# the largest pair).
tiny_qsym_elements = st.dictionaries(
    st.lists(st.integers(1, 2), max_size=2).map(tuple), st.integers(-2, 2), max_size=2
).map(QSymElement)
degree6_qsym_elements = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=2).map(tuple), st.integers(-2, 2), max_size=2
).map(QSymElement)


def _word(alpha, low):
    """A word on low+1..low+n with descent composition alpha: its runs rise and step down."""
    top, word = low + sum(alpha), []
    for part in alpha:
        top -= part
        word.extend(range(top + 1, top + part + 1))
    return word


def _shuffle_of_words(alpha, beta):
    """Oracle: L_alpha L_beta summed over the shuffles of two words, v's letters above u's."""
    u, v = _word(alpha, 0), _word(beta, sum(alpha))
    size, out = len(u) + len(v), {}
    for spots in itertools.combinations(range(size), len(u)):
        left, right = iter(u), iter(v)
        taken = set(spots)
        w = [next(left) if k in taken else next(right) for k in range(size)]
        descents = [k + 1 for k in range(size - 1) if w[k] > w[k + 1]]
        key = composition_from_descents(descents, size)
        out[key] = out.get(key, 0) + 1
    return out


class TestCompositions:
    def test_complement_example(self):
        assert complement((3, 1, 2)) == (1, 1, 3, 1)

    def test_extremes(self):
        assert complement((4,)) == (1, 1, 1, 1)
        assert complement((1, 1, 1, 1)) == (4,)

    @given(compositions_st.filter(lambda a: sum(a) >= 1))
    def test_complement_involutive(self, alpha):
        assert complement(complement(alpha)) == alpha

    def test_sigma_leq(self):
        assert sigma_leq((3,), (1, 2))
        assert not sigma_leq((2, 1), (1, 2))
        assert sigma_leq((2, 1), (2, 1))

    def test_sigma_leq_size_mismatch(self):
        with pytest.raises(ValueError):
            sigma_leq((2,), (1, 1, 1))

    def test_enumeration(self):
        assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert list(compositions(0)) == [()]

    def test_from_descents(self):
        assert composition_from_descents({1, 3}, 4) == (1, 2, 1)
        assert composition_from_descents([], 0) == ()

    def test_descent_sets_against_their_definitions(self):
        # partial sums, cuts back to parts, set complement and set inclusion
        for n in range(8):
            full = set(range(1, n))
            for alpha in compositions(n):
                sums = set(itertools.accumulate(alpha[:-1]))
                assert descent_set(alpha) == sums
                assert composition_from_descents(sums, n) == alpha
                if n:
                    assert complement(alpha) == composition_from_descents(full - sums, n)
                if n <= 5:
                    for beta in compositions(n):
                        assert sigma_leq(alpha, beta) == (sums <= descent_set(beta))

    @pytest.mark.parametrize(
        "descents,n",
        [([1, 1], 3), ([1.5], 3), ([2], 0), ([0], 3), ([3], 3), ([], -1)],
    )
    def test_from_descents_rejects_bad_input(self, descents, n):
        with pytest.raises(ValueError):
            composition_from_descents(descents, n)


class TestBases:
    def test_L_of_2(self):
        assert L_in_M((2,)) == {(2,): 1, (1, 1): 1}

    def test_L_of_11(self):
        assert L_in_M((1, 1)) == {(1, 1): 1}

    @pytest.mark.parametrize("n", range(7))
    def test_refinement_sums(self, n):
        # L_alpha sums M over the refinements of alpha; M_alpha is the
        # alternating sum of L over them
        for alpha in compositions(n):
            finer = [beta for beta in compositions(n) if sigma_leq(alpha, beta)]
            assert L_in_M(alpha) == dict.fromkeys(finer, 1)
            assert M_in_L(alpha) == {
                beta: (-1) ** (len(beta) - len(alpha)) for beta in finer
            }

    @pytest.mark.parametrize("n", range(1, 6))
    def test_inversion_roundtrip(self, n):
        for alpha in compositions(n):
            back = QSymElement.zero()
            for beta, c in M_in_L(alpha).items():
                back = back + QSymElement.monomial(beta, c)
            assert back == M(alpha)
            assert QSymElement.monomial(alpha).terms == {alpha: 1}
            # elements are stored in the fundamental basis
            assert M(alpha).terms == M_in_L(alpha)
            assert QSymElement.monomial(alpha).m_coefficients() == L_in_M(alpha)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QSymElement.monomial((1.5, 2)),
            lambda: QSymElement({(2.0,): 3}),
            lambda: QSymElement.monomial("ab"),
            lambda: QSymElement.monomial((1, None)),
        ],
        ids=["float part", "integral float part", "str", "None part"],
    )
    def test_parts_must_be_ints(self, build):
        with pytest.raises(TypeError):
            build()

    def test_a_bool_part_is_stored_as_its_int(self):
        f = QSymElement.monomial((True, 2))
        assert [type(part) for part in next(iter(f.terms))] == [int, int]
        assert str(f) == "L[1,2]" and f == QSymElement.monomial((1, 2))

    @pytest.mark.parametrize("alpha", [(0,), (2, -1)])
    def test_parts_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="^composition parts must be positive"):
            QSymElement.monomial(alpha)

    def test_unknown_basis(self):
        with pytest.raises(ValueError, match="^unknown basis 'F'$"):
            QSymElement.one().to_string("F")

    def test_unit_prints_as_its_coefficient(self):
        # as in every FreeModule: the unit renders as "" and prints bare
        one = QSymElement.one()
        assert str(one) == one.to_string("M") == str(AbPoly.one()) == "1"
        assert str(3 * one - QSymElement.monomial((1,))) == "3 - L[1]"
        assert (3 * one - M((1,))).to_string("M") == "3 - M[1]"
        assert str(qsym_coproduct(QSymElement.monomial((2, 1)))) == (
            "1(x)L[2,1] + L[1](x)L[1,1] + L[2](x)L[1] + L[2,1](x)1"
        )


class TestHopf:
    def test_coproduct_of_m21(self):
        # M[2,1] = L[2,1] - L[1,1,1], and in M (x) M its coproduct cuts the
        # index at each of its three places
        got = qsym_coproduct(M((2, 1)))
        assert got == QSymTensor(
            {
                ((), (2, 1)): 1,
                ((), (1, 1, 1)): -1,
                ((2,), (1,)): 1,
                ((1, 1), (1,)): -1,
                ((2, 1), ()): 1,
                ((1, 1, 1), ()): -1,
            }
        )
        assert in_monomials(got) == MonomialTensor(
            {((), (2, 1)): 1, ((2,), (1,)): 1, ((2, 1), ()): 1}
        )

    @pytest.mark.parametrize("n", range(9))
    def test_cut_coproduct_matches_the_monomial_route(self, n):
        # n + 1 cuts of L_alpha, against the deconcatenation of its M expansion
        for alpha in compositions(n):
            got = qsym_coproduct(QSymElement.monomial(alpha))
            assert len(got.terms) == n + 1, alpha
            assert in_monomials(got) == deconcatenation(L_in_M(alpha)), alpha

    def test_coproduct_of_a_long_fundamental_element(self):
        # L[40] has 2**39 monomial terms, and 41 cuts
        got = qsym_coproduct(QSymElement.monomial((40,)))
        assert len(got.terms) == 41
        cuts = {((), (40,)): 1, ((40,), ()): 1}
        cuts.update({((i,), (40 - i,)): 1 for i in range(1, 40)})
        assert got == QSymTensor(cuts)

    def test_tensor_has_no_product(self):
        t = qsym_coproduct(QSymElement.monomial((2, 1)))
        for other in (t, QSymTensor.one(), QSymTensor.zero()):
            with pytest.raises(TypeError):
                t * other
            with pytest.raises(TypeError):
                other * t
        with pytest.raises(TypeError):
            t ** 2
        assert 2 * t == t * 2 == t + t
        assert (0 * t).is_zero()

    def test_element_has_no_product(self):
        # the shuffle product is the oracle ``product``; FreeModule's would
        # concatenate compositions
        f = QSymElement.monomial((2, 1)) - 3
        for other in (f, QSymElement.one(), QSymElement.zero()):
            with pytest.raises(TypeError):
                f * other
            with pytest.raises(TypeError):
                other * f
        with pytest.raises(TypeError):
            f ** 2
        assert 2 * f == f * 2 == f + f
        assert (0 * f).is_zero()

    @pytest.mark.parametrize("n", range(9))
    def test_shuffle_product_matches_quasi_shuffle(self, n):
        # oracle: the quasi-shuffle of the two monomial expansions, each of
        # its terms brought back to the fundamental basis
        for alpha in compositions(n):
            for beta in compositions(8 - n):
                want = QSymElement.zero()
                for a, ca in L_in_M(alpha).items():
                    for b, cb in L_in_M(beta).items():
                        for key, c in quasi_shuffle(a, b).items():
                            want = want + M(key, ca * cb * c)
                assert product(QSymElement.monomial(alpha), QSymElement.monomial(beta)) == want, (alpha, beta)

    @given(small_compositions_st, small_compositions_st)
    @settings(max_examples=25, deadline=None)
    def test_product_is_the_shuffle_of_words(self, alpha, beta):
        assert product(QSymElement.monomial(alpha), QSymElement.monomial(beta)).terms == _shuffle_of_words(alpha, beta)

    def test_product_m1_m1(self):
        got = product(M((1,)), M((1,)))
        assert got.m_coefficients() == {(1, 1): 2, (2,): 1}

    def test_product_of_a_long_composition(self):
        # 1,200 parts, more than a part-by-part recursion fits in the recursion limit
        want = {(1,) * 1201: 1201}
        want.update({(1,) * k + (2,) + (1,) * (1199 - k): 1 for k in range(1200)})
        got = product(M((1,) * 1200), M((1,)))
        assert got.m_coefficients() == want

    def test_product_truncation_cross_check(self):
        # in two variables: (w1 + w2)^2 = w1^2 + w2^2 + 2*w1*w2
        square = product(M((1,)), M((1,)))
        assert _truncate(square, 2) == {(2, 0): 1, (0, 2): 1, (1, 1): 2}

    @given(qsym_elements)
    def test_one_is_identity(self, f):
        assert product(QSymElement.one(), f) == f

    @given(tiny_qsym_elements, tiny_qsym_elements, tiny_qsym_elements)
    @settings(max_examples=20, deadline=None)
    def test_associative(self, f, g, h):
        assert product(product(f, g), h) == product(f, product(g, h))

    @given(small_qsym_elements, small_qsym_elements)
    @settings(max_examples=25, deadline=None)
    def test_commutative(self, f, g):
        assert product(f, g) == product(g, f)

    @given(degree6_qsym_elements, degree6_qsym_elements)
    @settings(max_examples=20, deadline=None)
    def test_coproduct_is_algebra_map(self, f, g):
        # L (x) L has no product, so both sides are read in M (x) M
        lhs = in_monomials(qsym_coproduct(product(f, g)))
        assert lhs == in_monomials(qsym_coproduct(f)) * in_monomials(qsym_coproduct(g))

    # The same three laws on the monomial oracle, which multiplies by
    # quasi-shuffles and is the factor of MonomialTensor, at the factor
    # sizes the L-basis laws cannot afford.

    @given(small_monomial_elements, small_monomial_elements, small_monomial_elements)
    @settings(max_examples=20, deadline=None)
    def test_monomial_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(monomial_elements, monomial_elements)
    @settings(max_examples=25, deadline=None)
    def test_monomial_commutative(self, f, g):
        assert f * g == g * f

    @given(small_monomial_elements, small_monomial_elements)
    @settings(max_examples=20, deadline=None)
    def test_monomial_coproduct_is_algebra_map(self, f, g):
        assert deconcatenation(f * g) == deconcatenation(f) * deconcatenation(g)

    # the factors of the L-basis associativity and coproduct laws; in M a
    # factor of degree 9 is dense (L[3,3,3] * L[3,3] takes 3.4 s there)
    @pytest.mark.parametrize("elements", [tiny_qsym_elements, degree6_qsym_elements])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_product_agrees_with_the_monomial_product(self, elements, data):
        f, g = data.draw(elements), data.draw(elements)
        want = Monomials(f.m_coefficients()) * Monomials(g.m_coefficients())
        assert product(f, g).m_coefficients() == dict(want.items())


def _omega_via_fundamental(f):
    """Oracle: expand in the L basis, complement each index, and expand back."""
    out = QSymElement.zero()
    for alpha, coeff in f.terms.items():
        if alpha == ():
            out = out + coeff
        else:
            out = out + QSymElement.monomial(complement(alpha), coeff)
    return out


def _omega_of_monomial(alpha):
    """Oracle: omega(M_alpha) is (-1)^(n - k) times the sum of M over every
    composition coarser than alpha, which has k parts summing to n."""
    n = sum(alpha)
    return (-1) ** (n - len(alpha)) * sum(
        (M(beta) for beta in compositions(n) if sigma_leq(beta, alpha)),
        QSymElement.zero(),
    )


def _antipode_of_monomial(alpha):
    """Oracle: S(M_alpha) is (-1)^k times the sum of M over every composition
    coarser than the reversed alpha, which has k parts."""
    n = sum(alpha)
    return (-1) ** len(alpha) * sum(
        (M(beta) for beta in compositions(n) if sigma_leq(beta, alpha[::-1])),
        QSymElement.zero(),
    )


class TestOmegaAntipode:
    @pytest.mark.parametrize("n", range(8))
    def test_omega_matches_fundamental_basis_oracle(self, n):
        for alpha in compositions(n):
            f = M(alpha)
            assert omega(f) == _omega_via_fundamental(f) == _omega_of_monomial(alpha), alpha

    def test_omega_on_l(self):
        assert omega(QSymElement.monomial((3, 1, 2))) == QSymElement.monomial((1, 1, 3, 1))

    def test_antipode_on_m1(self):
        assert antipode(M((1,))) == -M((1,))

    @pytest.mark.parametrize("n", range(7))
    def test_antipode_matches_monomial_oracle(self, n):
        for alpha in compositions(n):
            assert antipode(M(alpha)) == _antipode_of_monomial(alpha), alpha

    @given(qsym_elements)
    @settings(max_examples=30, deadline=None)
    def test_omega_involution(self, f):
        assert omega(omega(f)) == f

    @given(small_qsym_elements, small_qsym_elements)
    @settings(max_examples=15, deadline=None)
    def test_omega_algebra_map(self, f, g):
        assert omega(product(f, g)) == product(omega(f), omega(g))

    @given(small_qsym_elements, small_qsym_elements)
    @settings(max_examples=15, deadline=None)
    def test_antipode_antihomomorphism(self, f, g):
        assert antipode(product(f, g)) == product(antipode(g), antipode(f))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_antipode_defining_relation_on_basis(self, n):
        # multiply-then-fold of (S (x) id) applied to the coproduct of
        # L_alpha is zero in positive degree
        for alpha in compositions(n):
            total = QSymElement.zero()
            for (beta, rest), c in qsym_coproduct(QSymElement.monomial(alpha)).items():
                total = total + c * product(
                    antipode(QSymElement.monomial(beta)), QSymElement.monomial(rest)
                )
            assert total.is_zero(), alpha


class TestRunCompositions:
    def test_fully_rising(self):
        rel = LinearRelation([1, 2, 3])
        assert run_compositions([1, 2, 3], rel) == ((3,), (1, 1, 1))

    def test_mixed(self):
        rel = LinearRelation([1, 2, 3])
        assert run_compositions([2, 3, 1], rel) == ((2, 1), (1, 2))

    def test_singleton(self):
        rel = LinearRelation([5])
        assert run_compositions([5], rel) == ((1,), (1,))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    def test_complement_identity(self, labels):
        rel = LinearRelation([1, 2, 3, 4])
        rho_r, rho_f = run_compositions(labels, rel)
        assert complement(rho_r) == rho_f


@st.composite
def bounded_dags(draw):
    """A random bounded DAG, sometimes a single vertex.

    Edges point from lower to higher vertex index and may be drawn twice,
    so parallel edges occur; the relation is a linear order or an
    arbitrary set of label pairs.  An edge from the first to the last
    vertex makes the interval between them, which is the graph returned,
    contain every vertex on a path between the two.
    """
    n = draw(st.integers(1, 6))
    labels = ["p", "q", "r"][: draw(st.integers(1, 3))]
    vertices = [f"u{i}" for i in range(n)]
    drawn = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(labels),
                st.integers(1, 2),
            ),
            max_size=12,
        )
    )
    edges = [
        (vertices[min(i, j)], vertices[max(i, j)], label)
        for i, j, label, copies in drawn
        if i != j
        for _ in range(copies)
    ]
    if n > 1:
        edges.append((vertices[0], vertices[-1], draw(st.sampled_from(labels))))
    if draw(st.booleans()):
        relation = LinearRelation(draw(st.permutations(labels)))
    else:
        all_pairs = [(l, m) for l in labels for m in labels]
        relation = PairsRelation(draw(st.lists(st.sampled_from(all_pairs), unique=True)))
    g = LabeledDigraph(vertices, edges, relation)
    return g.interval(vertices[0], vertices[-1])


def _assert_run_composition_oracle(g):
    """F_rising and F_falling against the sum of L over each enumerated
    path's rising-run and falling-run compositions (1 for a single vertex)."""
    bot, top = g.zero_hat(), g.one_hat()
    rising = falling = QSymElement.one() if bot == top else QSymElement.zero()
    for path in g.paths(bot, top):
        rho_r, rho_f = run_compositions([e.label for e in path], g.relation)
        rising = rising + QSymElement.monomial(rho_r)
        falling = falling + QSymElement.monomial(rho_f)
    assert F_rising(g) == rising
    assert F_falling(g) == falling


class TestPathFunctions:
    def test_single_edge(self):
        g = chain(["1"])
        assert F_rising(g) == QSymElement.monomial((1,))
        assert F_falling(g) == QSymElement.monomial((1,))

    def test_falling_of_a_long_rising_chain(self):
        # one path with 39 ascents: its falling runs are 40 single edges, and
        # L of (1, ..., 1) is one monomial element, not 2**39 of them
        g = chain(range(40), order=range(40))
        assert F_falling(g) == M((1,) * 40)

    def test_long_rising_chain_has_one_fundamental_term(self):
        # L of (40) has 2**39 monomial terms; neither side, nor omega between
        # them, nor the two-variable truncation may expand it
        g = chain(range(40), order=range(40))
        rising, falling = F_rising(g), F_falling(g)
        assert rising == QSymElement.monomial((40,))
        assert omega(rising) == falling
        assert len(rising.terms) == len(falling.terms) == 1
        assert multichain_specialization(g, 2).agree

    def test_both_need_a_bounded_graph(self):
        two_sinks = LabeledDigraph(
            ["x", "y", "z"], [("x", "y", "1"), ("x", "z", "1")], LinearRelation(["1"])
        )
        point = LabeledDigraph(["x"], [], LinearRelation([]))
        for fn in (F_rising, F_falling):
            with pytest.raises(Unbounded):
                fn(two_sinks)
            assert fn(point) == QSymElement.one()

    def test_fig1_left(self, graph_fig1_left):
        expected = (
            3 * QSymElement.monomial((1,))
            + 2 * QSymElement.monomial((2,))
            + 2 * QSymElement.monomial((1, 1))
        )
        assert F_rising(graph_fig1_left) == expected
        assert F_falling(graph_fig1_left) == expected

    @given(bounded_dags())
    @settings(max_examples=80, deadline=None)
    def test_matches_run_composition_oracle(self, g):
        _assert_run_composition_oracle(g)

    def test_run_composition_oracle_on_fixtures(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            _assert_run_composition_oracle(g)

    def test_run_composition_oracle_on_20_edge_chain(self):
        labels = random.Random(20).choices(range(4), k=20)
        g = chain(labels, order=range(4))
        assert len(list(g.paths("v0", "v20"))[0]) == 20
        _assert_run_composition_oracle(g)

    def test_hopf_homomorphism_on_intervals(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            for x in g.vertices:
                for y in g.vertices:
                    if not g.leq(x, y):
                        continue
                    for fn in (F_rising, F_falling):
                        f = fn(g.interval(x, y))
                        rhs = QSymTensor.zero()
                        for z in g.vertices:
                            if g.leq(x, z) and g.leq(z, y):
                                rhs = rhs + QSymTensor.tensor(
                                    fn(g.interval(x, z)), fn(g.interval(z, y))
                                )
                        assert qsym_coproduct(f) == rhs
                        # and with each factor expanded into M, against the
                        # deconcatenation of f's M expansion
                        assert in_monomials(rhs) == deconcatenation(f.m_coefficients())

    def test_multiplicative_over_cartesian_product(self):
        g = chain(["1", "2"])
        h = chain(["2", "1"])
        prod = cartesian_product(g, h)
        bot, top = ("v0", "v0"), ("v2", "v2")
        sub = prod.interval(bot, top)
        assert F_rising(sub) == product(F_rising(g), F_rising(h))
        assert F_falling(sub) == product(F_falling(g), F_falling(h))

    def test_antipode_defining_relation_on_fixture(self, graph_fig1_left):
        g = graph_fig1_left
        for x in g.vertices:
            for y in g.vertices:
                if not g.leq(x, y):
                    continue
                total = QSymElement.zero()
                for z in g.vertices:
                    if g.leq(x, z) and g.leq(z, y):
                        total = total + product(
                            F_rising(g.interval(x, z)), antipode(F_rising(g.interval(z, y)))
                        )
                if x == y:
                    assert total == QSymElement.one()
                else:
                    assert total.is_zero()


class TestGamma:
    def test_small_values(self):
        assert gamma(AbPoly.one()) == M((1,))
        assert gamma(AbPoly.monomial("b")) == M((1, 1))
        assert gamma(AbPoly.monomial("a")).m_coefficients() == {(2,): 1, (1, 1): 1}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_defining_basis_correspondence(self, n):
        a_minus_b = parse_ab("a - b")
        b = AbPoly.monomial("b")
        for alpha in compositions(n):
            image = AbPoly.one()
            for i, part in enumerate(alpha):
                if i:
                    image = image * b
                image = image * a_minus_b ** (part - 1)
            assert gamma(image) == M(alpha)

    @given(st.dictionaries(st.text("ab", max_size=5), st.integers(-4, 4), max_size=4))
    @settings(max_examples=40)
    def test_gamma_bijective(self, terms):
        p = AbPoly(terms)
        assert gamma_inverse(gamma(p)) == p

    def test_gamma_of_ab_index_is_rising_function(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            psi = g.ab_index(g.zero_hat(), g.one_hat())
            assert gamma(psi) == F_rising(g)

    def test_gamma_inverse_needs_zero_constant(self):
        with pytest.raises(ValueError):
            gamma_inverse(QSymElement.one())


class TestPeakMembership:
    def test_fixture_rising_functions(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            assert peak_membership(F_rising(g))

    def test_l11_not_in_peak_algebra(self):
        assert not peak_membership(QSymElement.monomial((1, 1)))

    def test_constant(self):
        assert peak_membership(QSymElement.one())
        assert peak_membership(QSymElement.zero())

    def test_unbalanced_rising_function_outside(self):
        g = chain(["2", "1"])
        assert not peak_membership(F_rising(g))


class TestMultichain:
    def test_m1_reduces_to_capital_r(self, graph_fig1_left):
        cmp = multichain_specialization(graph_fig1_left, 1)
        R, F = graph_fig1_left.capital_rising_falling("0", "1")
        assert cmp.rising_lhs == {(k,): c for k, c in enumerate(R.coeffs) if c}
        assert cmp.rising_rhs == cmp.rising_lhs
        assert cmp.falling_lhs == {(k,): c for k, c in enumerate(F.coeffs) if c}
        assert cmp.agree

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fig1_left_agreement(self, graph_fig1_left, m):
        assert multichain_specialization(graph_fig1_left, m).agree

    @pytest.mark.parametrize("m", [1, 2])
    def test_other_fixtures(self, all_fixture_graphs, m):
        for g in all_fixture_graphs.values():
            assert multichain_specialization(g, m).agree

    @given(small_qsym_elements, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_truncation_matches_the_monomial_expansion(self, f, m):
        # oracle: expand f in the monomial basis, then place each M_beta's
        # parts, in order, on m variables
        want: dict = {}
        for beta, coeff in f.m_coefficients().items():
            for positions in itertools.combinations(range(m), len(beta)):
                exps = [0] * m
                for pos, part in zip(positions, beta):
                    exps[pos] = part
                want[tuple(exps)] = want.get(tuple(exps), 0) + coeff
        assert _truncate(f, m) == {k: c for k, c in want.items() if c}

    def test_many_variables_do_not_recurse(self):
        # one step per variable, not one stack frame
        cmp = multichain_specialization(chain(["1"]), 1200)
        assert cmp.agree
        assert len(cmp.rising_rhs) == 1200

    def test_monomial_coefficient_counts_coarse_paths(self, graph_b3):
        # the coefficient of each monomial element counts paths whose
        # rising-run composition it refines
        g = graph_b3
        f = F_rising(g)
        paths = list(g.paths("0", "123"))
        rhos = [
            run_compositions([e.label for e in p], g.relation)[0] for p in paths
        ]
        for alpha in compositions(3):
            expected = sum(1 for rho in rhos if sigma_leq(rho, alpha))
            assert f.m_coefficients().get(alpha, 0) == expected


def _convolution_delta(g, x, y):
    total = IntPoly.zero()
    for z in g.vertices:
        if g.leq(x, z) and g.leq(z, y):
            Rxz, _ = g.capital_rising_falling(x, z)
            _, Fzy = g.capital_rising_falling(z, y)
            # evaluate F at -q by flipping odd coefficients
            F_neg = IntPoly([(-1) ** k * c for k, c in enumerate(Fzy.coeffs)])
            total = total + Rxz * F_neg
    return total


class TestConvolution:
    def test_delta_identity_on_fixtures(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            for x in g.vertices:
                for y in g.vertices:
                    if not g.leq(x, y):
                        continue
                    expected = IntPoly.one() if x == y else IntPoly.zero()
                    assert _convolution_delta(g, x, y) == expected

    def test_rising_only_variant_on_balanced(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            assert g.is_balanced().balanced
            for x in g.vertices:
                for y in g.vertices:
                    if not g.leq(x, y):
                        continue
                    total = IntPoly.zero()
                    for z in g.vertices:
                        if g.leq(x, z) and g.leq(z, y):
                            Rxz, _ = g.capital_rising_falling(x, z)
                            Rzy, _ = g.capital_rising_falling(z, y)
                            R_neg = IntPoly(
                                [(-1) ** k * c for k, c in enumerate(Rzy.coeffs)]
                            )
                            total = total + Rxz * R_neg
                    assert total == (IntPoly.one() if x == y else IntPoly.zero())

    def test_bipartite_signed_variant(self, graph_fig1_right, graph_b3):
        # when all paths between two fixed vertices share their parity, the
        # q -> -q flip in the second factor can be traded for the sign
        # (-1)^(distance from z to y), leaving both factors at +q
        for g in (graph_fig1_right, graph_b3):
            comparable = [(x, y) for x in g.vertices for y in g.vertices if g.leq(x, y)]
            lengths = {}
            for x, y in comparable:
                if x == y:
                    lengths[(x, y)] = 0
                else:
                    lengths[(x, y)] = min(len(p) for p in g.paths(x, y))
            for x, y in comparable:
                total = IntPoly.zero()
                for z in g.vertices:
                    if g.leq(x, z) and g.leq(z, y):
                        Rxz, _ = g.capital_rising_falling(x, z)
                        Rzy, _ = g.capital_rising_falling(z, y)
                        sign = (-1) ** lengths[(z, y)]
                        total = total + sign * (Rxz * Rzy)
                assert total == (IntPoly.one() if x == y else IntPoly.zero())


class TestSigmaInvolution:
    @staticmethod
    def _composable_pairs(g, x, y):
        pairs = []
        for z in g.vertices:
            if not (g.leq(x, z) and g.leq(z, y)):
                continue
            rising = [()] if z == x else [
                p for p in g.paths(x, z) if g.is_rising(p)
            ]
            falling = [()] if z == y else [
                p for p in g.paths(z, y) if g.is_falling(p)
            ]
            pairs.extend((p1, p2) for p1 in rising for p2 in falling)
        return pairs

    @pytest.mark.parametrize("fixture", ["graph_b3", "graph_fig1_left", "graph_fig1_right"])
    def test_fixed_point_free_matching(self, fixture, request):
        g = request.getfixturevalue(fixture)
        x, y = g.zero_hat(), g.one_hat()
        pairs = [
            pair for pair in self._composable_pairs(g, x, y) if pair != ((), ())
        ]
        pool = set(pairs)
        seen = set()
        for p1, p2 in pairs:
            q1, q2 = sigma_involution(g, p1, p2)
            assert (q1, q2) in pool
            # involution
            assert sigma_involution(g, q1, q2) == (p1, p2)
            # no fixed points
            assert (q1, q2) != (p1, p2)
            # lengths preserved in total, falling parity flipped
            assert len(q1) + len(q2) == len(p1) + len(p2)
            assert (len(q2) - len(p2)) % 2 == 1
            seen.add((p1, p2))
        assert len(seen) == len(pairs)
        assert len(pairs) % 2 == 0

    def test_partner_stays_composable(self, graph_b3):
        g = graph_b3
        pairs = self._composable_pairs(g, "0", "123")
        pool = set(pairs)
        for p1, p2 in pairs:
            if (p1, p2) == ((), ()):
                continue
            assert sigma_involution(g, p1, p2) in pool

    def test_rejects_empty_pair(self, graph_b3):
        with pytest.raises(ValueError):
            sigma_involution(graph_b3, (), ())
