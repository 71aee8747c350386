"""Bruhat graphs, reflection orderings, cd-indexes and R-polynomials."""

import enum
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest

from cdindex import coxeter
from cdindex.coxeter import (
    MAX_M,
    BruhatGraph,
    HalfPowerResidue,
    Permutation,
    bruhat_graph_sn,
    bruhat_leq,
    dihedral_bruhat_graph,
    dihedral_cover_interval,
    dihedral_graph,
    parse_permutation,
    reflection_order_validate,
    transpositions,
)
from cdindex.digraph import GraphError, InternalError, LabeledDigraph, LinearRelation, NoPath
from cdindex.ncpoly import IntPoly, NotInSpan, ab_to_cd, parse_cd

from conftest import assert_kept_reads_match_sweeps, reach_by_fixpoint
from oracles import bar, in_edges, parse_ab

E3 = Permutation((1, 2, 3))
W3 = Permutation((3, 2, 1))


class TestPermutation:
    def test_length(self):
        assert E3.length == 0
        assert W3.length == 3
        assert Permutation((2, 1, 3)).length == 1

    def test_swap(self):
        assert Permutation((1, 2, 3)).swap(1, 3) == (3, 2, 1)

    def test_swap_every_transposition(self):
        u = Permutation((2, 4, 1, 3))
        for i, j in transpositions(4):
            values = list(u)
            values[i - 1], values[j - 1] = values[j - 1], values[i - 1]
            for v in (u.swap(i, j), u.swap(j, i)):
                assert type(v) is Permutation
                assert v == Permutation(values)

    @pytest.mark.parametrize("i,j", [(0, 2), (2, 2), (1, 4), (4, 1), (-1, 1)])
    def test_swap_rejects_non_transpositions(self, i, j):
        with pytest.raises(ValueError):
            E3.swap(i, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_entries_are_ints_and_the_repr_reads_back(self):
        assert repr(Permutation((True, 2))) == "Permutation(12)"
        for values in ((True, 2), (2, True), (3, True, 2), (True, *range(2, 11))):
            u = Permutation(values)
            assert all(type(x) is int for x in u)
            assert parse_permutation(repr(u).removeprefix("Permutation(").removesuffix(")")) == u
        for values in ((1.0, 2), (2, 1.0), (Fraction(1), 2)):
            with pytest.raises(TypeError):
                Permutation(values)

    def test_parse(self):
        assert parse_permutation("312") == Permutation((3, 1, 2))
        assert parse_permutation("3,1,2") == Permutation((3, 1, 2))

    def test_str_past_nine_letters_uses_commas(self):
        u = Permutation((10, *range(1, 10)))
        assert str(u) == "10,1,2,3,4,5,6,7,8,9"
        assert parse_permutation(str(u)) == u
        assert str(W3) == "321"

    def test_bruhat_leq_needs_equal_sizes(self):
        with pytest.raises(ValueError, match="^permutations of different sizes$"):
            bruhat_leq((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_bruhat_leq_criterion_matches_graph(self, n):
        bg = bruhat_graph_sn(n)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                assert bruhat_leq(u, v) == bg.leq(u, v)


class TestGraphShape:
    def test_s2(self):
        bg = bruhat_graph_sn(2)
        assert len(bg.graph.vertices) == 2
        assert len(bg.graph.edges) == 1

    def test_repr(self):
        assert repr(bruhat_graph_sn(3)) == "BruhatGraph(S3, 6 elements)"

    def test_s3_edges(self):
        bg = bruhat_graph_sn(3)
        assert len(bg.graph.vertices) == 6
        got = sorted(
            (str(e.tail), str(e.head), e.label) for e in bg.graph.edges
        )
        assert got == [
            ("123", "132", (2, 3)),
            ("123", "213", (1, 2)),
            ("123", "321", (1, 3)),
            ("132", "231", (1, 3)),
            ("132", "312", (1, 2)),
            ("213", "231", (2, 3)),
            ("213", "312", (1, 3)),
            ("231", "321", (1, 2)),
            ("312", "321", (2, 3)),
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bipartite_by_length(self, n):
        bg = bruhat_graph_sn(n)
        for e in bg.graph.edges:
            assert (bg.lengths[e.head] - bg.lengths[e.tail]) % 2 == 1

    def test_interval_requires_comparable(self):
        with pytest.raises(NoPath):
            bruhat_graph_sn(3).interval(Permutation((2, 1, 3)), Permutation((1, 3, 2)))

    def test_interval_build_is_shared_by_one_query(self):
        bg = bruhat_graph_sn(4)
        u, v = Permutation((1, 2, 3, 4)), Permutation((3, 4, 1, 2))
        first = bg.interval(u, v)
        assert bg.interval(u, v) is first
        other = bg.interval(u, Permutation((4, 3, 2, 1)))
        assert other is not first
        assert len(other.vertices) > len(first.vertices)
        again = bg.interval(u, v)
        assert sorted(again.vertices) == sorted(first.vertices)
        assert len(again.edges) == len(first.edges)


def _assert_built_by_definition(bg, vertices, length, times, reflections, labels, generators):
    """A freshly built Bruhat graph against its definition.

    Vertices sorted by (length, element); u -> u*t for each reflection t in
    order, labeled by t's entry of ``labels``, when the length rises.
    """
    vertices = sorted(vertices, key=lambda u: (length(u), u))
    edges = [
        (u, times(u, t), label)
        for u in vertices
        for t, label in zip(reflections, labels)
        if length(times(u, t)) > length(u)
    ]
    assert bg.graph.vertices == tuple(vertices)
    assert [tuple(e[:3]) for e in bg.graph.edges] == edges
    assert bg.graph.relation.order == tuple(labels)
    assert bg.gen_action == [{u: times(u, g) for u in vertices} for g in generators]
    assert bg.lengths == {u: length(u) for u in vertices}
    assert bg.reflection_order == tuple(reflections)


class TestBuiltFromTheDefinition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric(self, n):
        def length(w):  # inversions
            return sum(w[i] > w[j] for i, j in combinations(range(n), 2))

        def times(w, t):  # right multiplication by the transposition t swaps positions
            w = list(w)
            w[t[0] - 1], w[t[1] - 1] = w[t[1] - 1], w[t[0] - 1]
            return tuple(w)

        refl = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        gens = [(i, i + 1) for i in range(1, n)]
        bg = coxeter._bruhat_graph_sn.__wrapped__(n)
        perms = permutations(range(1, n + 1))
        _assert_built_by_definition(bg, perms, length, times, refl, refl, gens)
        assert bg.identity == tuple(range(1, n + 1)) and bg.name == f"S{n}"

    @pytest.mark.parametrize("m", range(2, 9))
    def test_dihedral(self, m):
        # the symmetries of the m-gon on its m vertices and m edge midpoints,
        # Z/2m with the vertices even (faithful for m = 2 too), composed as
        # tuples of images right to left; an element is named by its affine
        # form x -> eps*x + j on the vertices, y -> eps*y + 2j on Z/2m
        def images(u):
            return tuple((u[0] * y + 2 * u[1]) % (2 * m) for y in range(2 * m))

        def times(u, v):
            w = tuple(images(u)[y] for y in images(v))
            return (1 if w[1] == (w[0] + 1) % (2 * m) else -1, w[0] // 2)

        identity, s, t = (1, 0), (-1, 0), (-1, 1)  # s: x -> -x, t: x -> 1 - x
        length = {identity: 0}
        queue = [identity]
        for u in queue:  # word length in s and t, breadth first
            for g in (s, t):
                v = times(u, g)
                if v not in length:
                    length[v] = length[u] + 1
                    queue.append(v)
        # s, sts, ststs, ...: the alternating words of odd length from s
        reflections = [s]
        while len(reflections) < m:
            reflections.append(times(times(reflections[-1], t), s))
        assert len(length) == 2 * m and reflections[-1] == t
        bg = coxeter._dihedral_bruhat_graph.__wrapped__(m)
        labels = range(1, m + 1)
        _assert_built_by_definition(bg, length, length.get, times, reflections, labels, (s, t))
        assert bg.identity == identity and bg.name == f"I2({m})"


def _same_subgraph(got, want, shared_relation=True):
    """``shared_relation=False`` compares the relations' orders, for a graph built on its own."""
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    if shared_relation:
        assert got.relation is want.relation
    else:
        assert got.relation.order == want.relation.order
    _same_as_built(got)


def _same_as_built(got):
    """An extracted subgraph against the graph built from its vertices and edges."""
    built = LabeledDigraph(got.vertices, [(e.tail, e.head, e.label) for e in got.edges], got.relation)
    assert got.topological_order == built.topological_order
    assert [got.out_edges(v) for v in got.vertices] == [built.out_edges(v) for v in got.vertices]
    assert [in_edges(got, v) for v in got.vertices] == [in_edges(built, v) for v in got.vertices]
    if got.is_bounded():
        ends = got.zero_hat(), got.one_hat()
        assert got.ab_index(*ends) == built.ab_index(*ends)
        assert got.rising_falling(*ends) == built.rising_falling(*ends)


def _cover_graph(bg):
    """The group's cover graph: the edges of ``bg.graph`` that raise the length by one, in order."""
    lengths = bg.lengths
    return LabeledDigraph(
        bg.graph.vertices,
        [(e.tail, e.head, e.label) for e in bg.graph.edges if lengths[e.head] - lengths[e.tail] == 1],
        bg.graph.relation,
    )


def _same_cover_interval(bg, cover, u, v):
    """The cover interval against the group's cover graph induced on the interval's members."""
    want = cover.induced(bg.interval(u, v).vertices)
    got = bg.cover_interval(u, v)
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert got.topological_order == want.topological_order
    assert got.relation is bg.graph.relation
    assert got.ab_index(u, v) == want.ab_index(u, v)


class TestIntervalExtraction:
    """The bitset interval against the whole-graph search of LabeledDigraph."""

    def test_all_s4_pairs(self):
        bg = bruhat_graph_sn(4)
        cover = _cover_graph(bg)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                want = bg.graph.interval(u, v)
                if bg.leq(u, v):
                    _same_subgraph(bg.interval(u, v), want)
                    _same_cover_interval(bg, cover, u, v)
                else:
                    assert want.vertices == ()
                    with pytest.raises(NoPath):
                        bg.interval(u, v)

    def test_sampled_s6_pairs(self):
        bg = bruhat_graph_sn(6)
        rng = random.Random(6)
        vertices = bg.graph.vertices
        compared = 0
        while compared < 40:
            u, v = rng.choice(vertices), rng.choice(vertices)
            if bg.leq(u, v):
                _same_subgraph(bg.interval(u, v), bg.graph.interval(u, v))
                compared += 1
        _same_subgraph(bg.interval(bg.identity, max(bg.lengths, key=bg.lengths.get)), bg.graph)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_dihedral_pairs(self, m):
        bg = dihedral_bruhat_graph(m)
        cover = _cover_graph(bg)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                if bg.leq(u, v):
                    _same_subgraph(bg.interval(u, v), bg.graph.interval(u, v))
                    _same_cover_interval(bg, cover, u, v)

    def test_leq_is_reachability(self):
        bg = dihedral_bruhat_graph(5)
        reach = reach_by_fixpoint(bg.graph)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                assert bg.leq(u, v) == (v in reach[u])

    @pytest.mark.parametrize(
        "build, k",
        [(bruhat_graph_sn, n) for n in range(1, 6)] + [(dihedral_bruhat_graph, m) for m in range(2, 13)],
        ids=[f"S{n}" for n in range(1, 6)] + [f"I2({m})" for m in range(2, 13)],
    )
    def test_cover_graph_is_the_filtered_group_graph(self, build, k):
        # every cover interval is the filtered group graph's induced subgraph
        bg = build(k)
        cover = _cover_graph(bg)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                if bg.leq(u, v):
                    _same_cover_interval(bg, cover, u, v)


class TestGroupCache:
    def test_one_graph_per_n(self):
        assert bruhat_graph_sn(4) is bruhat_graph_sn(4, max_n=4) is bruhat_graph_sn(4, max_n=8)

    def test_a_failed_reflection_order_is_internal(self):
        # the unwrapped builder keeps nothing in the cache
        with mock.patch.object(coxeter, "reflection_order_validate", return_value=False):
            with pytest.raises(InternalError, match="^lexicographic transposition order failed validation$"):
                coxeter._bruhat_graph_sn.__wrapped__(3)
        assert len(bruhat_graph_sn(3).graph.vertices) == 6

    def test_cap_still_checked(self):
        bruhat_graph_sn(5)
        with pytest.raises(ValueError):
            bruhat_graph_sn(5, max_n=4)
        with pytest.raises(ValueError):
            bruhat_graph_sn(0)

    def test_one_graph_per_m(self):
        assert dihedral_bruhat_graph(5) is dihedral_bruhat_graph(5)
        with pytest.raises(ValueError):
            dihedral_bruhat_graph(1)

    @pytest.mark.parametrize("n", ["3", 6.5, None])
    def test_n_must_be_an_int(self, n):
        with pytest.raises(TypeError):
            bruhat_graph_sn(n)

    def test_m_must_be_an_int(self):
        dihedral_bruhat_graph(7)
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        for m, error in [(7.0, TypeError), ("7", TypeError), (True, ValueError)]:
            with pytest.raises(error):
                dihedral_bruhat_graph(m)
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built

    def test_int_subclass_shares_the_graph(self):
        class Order(enum.IntEnum):
            SEVEN = 7

        bg = dihedral_bruhat_graph(7)
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        assert dihedral_bruhat_graph(Order.SEVEN) is bg
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built
        assert bg.name == "I2(7)"

    def test_m_bound_checked_before_the_build(self, monkeypatch):
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        with mock.patch.object(coxeter, "_dihedral_levels", side_effect=AssertionError("built")):
            with pytest.raises(ValueError, match=f"^m={MAX_M + 1} exceeds the bound {MAX_M}$"):
                dihedral_bruhat_graph(MAX_M + 1)
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built
        # both sides of the bound, I2(6) already cached: the bound is read on each call
        dihedral_bruhat_graph(6)
        monkeypatch.setattr(coxeter, "MAX_M", 5)
        assert len(dihedral_bruhat_graph(5).graph.vertices) == 10
        with pytest.raises(ValueError, match="^m=6 exceeds the bound 5$"):
            dihedral_bruhat_graph(6)


def _walk_mult(m: int):
    # oracle: elements are maps x -> eps*x + shift on Z/m, composed right-to-left
    def mult(u, v):
        eu, ju = u
        ev, jv = v
        return (eu * ev, (eu * jv + ju) % m)

    return mult


def _walk_reflections(m: int) -> list:
    """Oracle: s(ts)^i for i = 0 .. m - 1, one product at a time."""
    mult = _walk_mult(m)
    s = (-1, 0)
    ts = mult((-1, 1), s)
    reflections = []
    power = (1, 0)
    for _ in range(m):
        reflections.append(mult(s, power))
        power = mult(ts, power)
    return reflections


def _walk_tops(m: int) -> list:
    """Oracle: the alternating words s t s ... of length 0 .. m, one product at a time."""
    mult = _walk_mult(m)
    tops = [(1, 0)]
    for i in range(m):
        tops.append(mult(tops[-1], (-1, 0) if i % 2 == 0 else (-1, 1)))
    return tops


def _walk_levels(m: int) -> list:
    """Oracle: the elements by length, by a breadth-first walk over the group."""
    mult = _walk_mult(m)
    levels = [[(1, 0)]]
    seen = {(1, 0)}
    while len(seen) < 2 * m:
        new = sorted({mult(u, g) for u in levels[-1] for g in ((-1, 0), (-1, 1))} - seen)
        seen.update(new)
        levels.append(new)
    return levels


class TestDihedralClosedForms:
    def test_equal_to_the_walks(self):
        for m in range(2, MAX_M + 2):
            assert coxeter._dihedral_reflections(m) == _walk_reflections(m)
            assert coxeter._dihedral_levels(m) == _walk_levels(m)
            assert [coxeter._dihedral_top(m, k) for k in range(m + 1)] == _walk_tops(m)


class TestDihedralInterval:
    """``dihedral_graph`` builds its 2k elements, never the group's graph."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_equals_the_interval_of_the_group_graph(self, m):
        bg = dihedral_bruhat_graph(m)
        for k in range(1, m + 1):
            got = dihedral_graph(m, k)
            want = bg.interval(bg.identity, coxeter._dihedral_top(m, k))
            _same_subgraph(got, want, shared_relation=False)
            assert got.topological_order == want.topological_order

    def test_largest_m_builds_no_group_graph(self):
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        assert len(dihedral_graph(MAX_M, 4).vertices) == 8
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built

    # every refusal, message for message, as when the interval was read off the
    # group: k is checked first, with m as given, then m as ``dihedral_bruhat_graph``
    # checks it
    @pytest.mark.parametrize(
        "m, k, error, message",
        [
            (7.0, 1, TypeError, "'float' object cannot be interpreted as an integer"),
            ("7", 1, TypeError, "'<=' not supported between instances of 'int' and 'str'"),
            (None, 1, TypeError, "'<=' not supported between instances of 'int' and 'NoneType'"),
            (True, 1, ValueError, "the dihedral group needs m >= 2"),
            (1, 1, ValueError, "the dihedral group needs m >= 2"),
            (MAX_M + 1, 1, ValueError, f"m={MAX_M + 1} exceeds the bound {MAX_M}"),
            (5, 0, ValueError, "need 1 <= k <= m, got k=0, m=5"),
            (5, 6, ValueError, "need 1 <= k <= m, got k=6, m=5"),
            (1, 2, ValueError, "need 1 <= k <= m, got k=2, m=1"),
            (True, 2, ValueError, "need 1 <= k <= m, got k=2, m=True"),
            (7.0, 8, ValueError, "need 1 <= k <= m, got k=8, m=7.0"),
            (MAX_M + 1, MAX_M + 2, ValueError, f"need 1 <= k <= m, got k={MAX_M + 2}, m={MAX_M + 1}"),
        ],
    )
    def test_refusals_kept(self, m, k, error, message):
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        with pytest.raises(error) as caught:
            dihedral_graph(m, k)
        assert type(caught.value) is error and str(caught.value) == message
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built

    @pytest.mark.parametrize("build", [dihedral_graph, dihedral_cover_interval])
    @pytest.mark.parametrize("k", [2.0, 2.5])
    def test_k_must_be_an_int(self, build, k):
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        with pytest.raises(TypeError):
            build(7, k)
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built


class TestDihedralCoverInterval:
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
    def test_equals_the_cover_interval_of_the_group_graph(self, m):
        bg = dihedral_bruhat_graph(m)
        for k in range(1, m + 1):
            expected = bg.cover_interval(bg.identity, dihedral_graph(m, k).one_hat())
            got = dihedral_cover_interval(m, k)
            assert got.vertices == expected.vertices
            assert [(e.tail, e.head, e.label) for e in got.edges] == [
                (e.tail, e.head, e.label) for e in expected.edges
            ]
            assert got.relation.order == expected.relation.order

    def test_large_m_builds_no_group_graph(self):
        built = coxeter._dihedral_bruhat_graph.cache_info().currsize
        g = dihedral_cover_interval(3000, 2999)
        assert len(g.vertices) == 2 * 2999 and len(g.edges) == 4 * 2997 + 4
        assert coxeter._dihedral_bruhat_graph.cache_info().currsize == built

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            dihedral_cover_interval(3, k)


class TestOutsideTheGroup:
    @pytest.mark.parametrize(
        "stranger",
        [Permutation((1, 2, 3)), Permutation((1, 2, 3, 4, 5)), "1234", None, [1, 2, 3, 4]],
    )
    def test_typed_error(self, stranger):
        bg = bruhat_graph_sn(4)
        w0 = Permutation((4, 3, 2, 1))
        for query in (
            bg.leq,
            bg.interval,
            bg.rtilde,
            bg.r_polynomial_recursive,
            bg.r_polynomial_dyer,
        ):
            with pytest.raises(GraphError):
                query(stranger, w0)
            with pytest.raises(GraphError):
                query(bg.identity, stranger)


class TestReflectionOrdering:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lex_order_is_valid(self, n):
        assert reflection_order_validate(transpositions(n), n)

    def test_betweenness_violation(self):
        assert not reflection_order_validate([(1, 3), (1, 2), (2, 3)], 3)

    def test_wrong_support(self):
        assert not reflection_order_validate([(1, 2), (1, 3)], 3)

    def test_reversed_order_also_valid(self):
        assert reflection_order_validate(transpositions(4)[::-1], 4)


class TestCompleteCdIndex:
    def test_s3_full_interval(self):
        assert bruhat_graph_sn(3).complete_cd_index(E3, W3) == parse_cd("1 + cc")

    def test_s2(self):
        e2, w2 = Permutation((1, 2)), Permutation((2, 1))
        assert bruhat_graph_sn(2).complete_cd_index(e2, w2) == parse_cd("1")

    def test_poset_cd_s3(self):
        assert bruhat_graph_sn(3).poset_cd_index(E3, W3) == parse_cd("cc")

    def test_rank_two_interval(self):
        u, v = Permutation((1, 2, 3)), Permutation((2, 3, 1))
        assert bruhat_graph_sn(3).poset_cd_index(u, v) == parse_cd("c")

    def test_top_part_matches_poset_all_s4(self):
        bg = bruhat_graph_sn(4)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                if u == v or not bg.leq(u, v):
                    continue
                full = bg.complete_cd_index(u, v)
                top_degree = bg.lengths[v] - bg.lengths[u] - 1
                top_part = full.homogeneous_part(top_degree)
                assert top_part == bg.poset_cd_index(u, v)
                # degrees bounded by the rank difference, with its parity
                for word in full.terms:
                    deg = full.word_degree(word)
                    assert deg <= top_degree
                    assert deg % 2 == top_degree % 2

    def test_intervals_are_balanced_s4(self):
        bg = bruhat_graph_sn(4)
        w0 = max(bg.lengths, key=bg.lengths.get)
        assert bg.interval(bg.identity, w0).is_balanced().balanced

    def test_reversed_reflection_order_same_cd_index(self):
        # reversing the ordering swaps ascents and descents, fixing c and d
        bg = bruhat_graph_sn(3)
        sub = bg.interval(E3, W3)
        psi = sub.ab_index(E3, W3)
        from cdindex.digraph import LabeledDigraph, LinearRelation

        reversed_sub = LabeledDigraph(
            sub.vertices,
            [(e.tail, e.head, e.label) for e in sub.edges],
            LinearRelation(transpositions(3)[::-1]),
        )
        assert reversed_sub.ab_index(E3, W3) == bar(psi)
        from cdindex.ncpoly import ab_to_cd

        assert ab_to_cd(reversed_sub.ab_index(E3, W3)) == ab_to_cd(psi)

    def test_max_n_guard(self):
        with pytest.raises(ValueError):
            bruhat_graph_sn(7)

    def test_no_cd_index_aborts_with_the_residual(self):
        # a fresh BruhatGraph on S3's tables: its interval slot is empty, so the
        # patched ab_index is read, and the shared S3 graph never keeps its value
        s3 = bruhat_graph_sn(3)
        bg = BruhatGraph(s3.graph, s3.lengths, s3.identity, s3.gen_action, s3.reflection_order, s3.name)

        def residual(text):
            with pytest.raises(NotInSpan) as caught:
                ab_to_cd(parse_ab(text))
            return caught.value.factored_residual

        # the poset route reads the complete cd-index, so both raise the
        # complete route's error, naming the residual of the whole ab-index
        message = (
            f"interval [{E3}, {W3}] has no cd-index; "
            f"the reflection ordering is broken (residual {residual('aa + b')})"
        )
        with mock.patch.object(LabeledDigraph, "ab_index", return_value=parse_ab("aa + b")):
            for route in (bg.complete_cd_index, bg.poset_cd_index):
                with pytest.raises(InternalError) as caught:
                    route(E3, W3)
                assert str(caught.value) == message


class TestRPolynomials:
    def test_equal_elements(self):
        bg = bruhat_graph_sn(3)
        assert bg.r_polynomial_recursive(W3, W3) == IntPoly.one()
        assert bg.r_polynomial_dyer(W3, W3) == IntPoly.one()

    def test_incomparable(self):
        bg = bruhat_graph_sn(3)
        u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
        assert bg.r_polynomial_recursive(u, v) == IntPoly.zero()
        assert bg.r_polynomial_dyer(u, v) == IntPoly.zero()

    def test_rtilde_of_an_incomparable_pair_is_zero(self):
        bg = bruhat_graph_sn(3)
        u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
        assert not bg.leq(u, v)
        assert bg.rtilde(u, v) == IntPoly.zero()

    def test_e_to_w0_s3(self):
        bg = bruhat_graph_sn(3)
        expected = IntPoly((-1, 2, -2, 1))  # q^3 - 2q^2 + 2q - 1
        assert bg.r_polynomial_recursive(E3, W3) == expected
        assert bg.r_polynomial_dyer(E3, W3) == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_dyer_equals_recursion(self, n):
        bg = bruhat_graph_sn(n)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                if bg.leq(u, v):
                    assert bg.r_polynomial_dyer(u, v) == bg.r_polynomial_recursive(
                        u, v
                    ), (u, v)

    @pytest.mark.parametrize("n", [3, 4])
    def test_degree_and_leading_coefficient(self, n):
        bg = bruhat_graph_sn(n)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                if not bg.leq(u, v):
                    continue
                r = bg.r_polynomial_recursive(u, v)
                ell = bg.lengths[v] - bg.lengths[u]
                assert r.degree() == ell
                assert r.coefficient(ell) == 1

    def test_half_power_residue_raises(self):
        # hand-built graphs whose rising paths fit no reflection ordering
        cases = [
            # a rising path of length 1 in an interval of length 2: odd L - k
            ([("u", "v", 1)], {"u": 0, "v": 2}),
            # a rising path of length 2 in an interval of length 0: k > L
            ([("u", "w", 1), ("w", "v", 2)], {"u": 0, "w": 0, "v": 0}),
        ]
        for edges, lengths in cases:
            relation = LinearRelation([1, 2])
            graph = LabeledDigraph(list(lengths), edges, relation)
            bg = BruhatGraph(graph, lengths, "u", [], (), "broken")
            with pytest.raises(HalfPowerResidue):
                bg.r_polynomial_dyer("u", "v")


def _interval_pairs(bg, sample=None):
    """Every (u, v) with u <= v in vertex order, or a seeded sample of ``sample`` of them."""
    pairs = [(u, v) for u in bg.graph.vertices for v in bg.graph.vertices if bg.leq(u, v)]
    if sample is None:
        return pairs
    return [pairs[i] for i in sorted(random.Random(7).sample(range(len(pairs)), sample))]


# S4 whole, a seeded S5 sample and every dihedral group up to I2(8); each
# list keeps the pairs of one u together, so the one-interval slot is asked
# about a new v right after an old one
ORACLE_GROUPS = [
    pytest.param(lambda: (bruhat_graph_sn(4), None), id="S4"),
    pytest.param(lambda: (bruhat_graph_sn(5), 300), id="S5-sample"),
    *(pytest.param(lambda m=m: (dihedral_bruhat_graph(m), None), id=f"I2({m})") for m in range(2, 9)),
]


def _dyer_by_powers(bg, u, v):
    """The Dyer R-polynomial as a sum of IntPoly products, (q - 1)^k taken as a power."""
    if not bg.leq(u, v):
        return IntPoly.zero()
    ell = bg.lengths[v] - bg.lengths[u]
    q_minus_1 = IntPoly.monomial(1) - 1
    total = IntPoly.zero()
    for k, count in bg.rtilde(u, v).items():
        total = total + IntPoly.monomial((ell - k) // 2, count) * q_minus_1 ** k
    return total


class TestAgainstIndependentRoutes:
    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_poset_cd_index_is_the_cover_intervals(self, group):
        bg, sample = group()
        for u, v in _interval_pairs(bg, sample):
            poset = bg.poset_cd_index(u, v)  # first, so it reads the slot a previous v left
            full = bg.complete_cd_index(u, v)
            cover = bg.cover_interval(u, v).ab_index(u, v)
            psi = bg.interval(u, v).ab_index(u, v)
            assert psi.homogeneous_part(bg.lengths[v] - bg.lengths[u] - 1) == cover, (u, v)
            assert poset == ab_to_cd(cover), (u, v)
            assert full == ab_to_cd(psi), (u, v)

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_dyer_is_the_power_route_and_the_recursion(self, group):
        bg, sample = group()
        for u, v in _interval_pairs(bg, sample):
            dyer = bg.r_polynomial_dyer(u, v)
            assert dyer == _dyer_by_powers(bg, u, v), (u, v)
            assert dyer == bg.r_polynomial_recursive(u, v), (u, v)
            assert 0 not in dyer.terms.values()

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_kept_ab_index_reads_match_the_sweep(self, group):
        bg, sample = group()
        assert_kept_reads_match_sweeps(bg.graph, [(u, v) for u, v in _interval_pairs(bg, sample) if u != v])

    @pytest.mark.parametrize("group", ORACLE_GROUPS)
    def test_rtilde_is_the_c_powers_of_the_complete_cd_index(self, group):
        # a cd-word with a d expands only into words with a b, so the coefficient
        # of a^(k - 1) in the ab-index, the number of rising paths of length k,
        # is that of c^(k - 1) in the cd-index: rtilde reads it off the ab-index
        # the interval keeps, so this checks that read against the conversion
        bg, sample = group()
        for u, v in _interval_pairs(bg, sample):
            if u == v:
                continue
            phi = bg.complete_cd_index(u, v)
            powers = IntPoly({len(w) + 1: c for w, c in phi.items() if "d" not in w})
            assert bg.rtilde(u, v) == powers, (u, v)


def _relabel_by_rank(graph, order):
    rank = {label: i + 1 for i, label in enumerate(order)}
    return [(e.tail, e.head, rank[e.label]) for e in graph.edges]


def _isomorphic_as_labeled_digraphs(edges1, lengths1, edges2, lengths2):
    by_len1: dict[int, list] = {}
    for v in {x for e in edges1 for x in e[:2]}:
        by_len1.setdefault(lengths1[v], []).append(v)
    by_len2: dict[int, list] = {}
    for v in {x for e in edges2 for x in e[:2]}:
        by_len2.setdefault(lengths2[v], []).append(v)
    if sorted(by_len1) != sorted(by_len2):
        return False
    if any(len(by_len1[k]) != len(by_len2[k]) for k in by_len1):
        return False
    target = Counter(edges2)

    levels = sorted(by_len1)

    def assign(level_idx, mapping):
        if level_idx == len(levels):
            mapped = Counter(
                (mapping[t], mapping[h], lab) for t, h, lab in edges1
            )
            return mapped == target
        level = levels[level_idx]
        for perm in permutations(by_len2[level]):
            mapping.update(zip(by_len1[level], perm))
            if assign(level_idx + 1, mapping):
                return True
        return False

    return assign(0, {})


class TestDihedral:
    def test_k1_single_edge(self):
        g = dihedral_graph(5, 1)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1

    @pytest.mark.parametrize("build", [dihedral_graph, dihedral_cover_interval])
    @pytest.mark.parametrize("m, k", [(5, 6), (5, 0)])
    def test_length_beyond_the_group_is_refused(self, build, m, k):
        with pytest.raises(ValueError, match=f"^need 1 <= k <= m, got k={k}, m={m}$"):
            build(m, k)

    @pytest.mark.parametrize("m,k", [(3, 2), (4, 3), (5, 4), (5, 5), (6, 3)])
    def test_cover_cd_index_is_power_of_c(self, m, k):
        bg = dihedral_bruhat_graph(m)
        w = dihedral_graph(m, k).one_hat()
        assert bg.poset_cd_index(bg.identity, w) == parse_cd(
            "c" * (k - 1) if k > 1 else "1"
        )

    def test_i2_3_isomorphic_to_s3(self):
        sym = bruhat_graph_sn(3)
        dih = dihedral_bruhat_graph(3)
        edges_sym = _relabel_by_rank(sym.graph, sym.reflection_order)
        edges_dih = [(e.tail, e.head, e.label) for e in dih.graph.edges]
        assert _isomorphic_as_labeled_digraphs(
            edges_sym, sym.lengths, edges_dih, dih.lengths
        )

    def test_dihedral_intervals_balanced(self):
        for m, k in [(4, 4), (5, 3)]:
            assert dihedral_graph(m, k).is_balanced().balanced

    def test_dihedral_r_polynomials_cross_check(self):
        bg = dihedral_bruhat_graph(4)
        for u in bg.graph.vertices:
            for v in bg.graph.vertices:
                if bg.leq(u, v):
                    assert bg.r_polynomial_dyer(u, v) == bg.r_polynomial_recursive(
                        u, v
                    )

    def test_dihedral_complete_cd_has_lower_terms(self):
        # the full Bruhat interval of the longest element contains shortcut
        # edges, so its cd-index is not just the top power of c
        bg = dihedral_bruhat_graph(3)
        w = dihedral_graph(3, 3).one_hat()
        assert bg.complete_cd_index(bg.identity, w) == parse_cd("1 + cc")
