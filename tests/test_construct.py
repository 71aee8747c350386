"""Butterflies, joins, glue sums, realization, and the search harness."""

import itertools
import random
from unittest import mock

import pytest

from cdindex.construct import (
    MAX_LABELS,
    NegativeCoefficient,
    ZeroPolynomial,
    butterfly,
    conjecture_search,
    d_join,
    glue_sum,
    random_labeled_dag,
    realize,
)
from cdindex import construct as construct_mod
from cdindex import fixtures
from cdindex import digraph as digraph_mod
from cdindex.cli import main
from cdindex.digraph import (
    LabeledDigraph,
    LinearRelation,
    Unbounded,
    from_json_dict,
    to_json_dict,
)
from cdindex.ncpoly import CdPoly, ab_to_cd, cd_sort_key, cd_words_of_degree, parse_cd

from conftest import chain, witness_by_pairs
from oracles import descent_word, in_edges, parse_ab


def cd_index_of(g) -> CdPoly:
    return ab_to_cd(g.ab_index(g.zero_hat(), g.one_hat()))


@pytest.fixture
def witness_calls(monkeypatch):
    """One entry per call of ``construct._witness`` while the test runs."""
    witness = construct_mod._witness
    calls = []

    def counted(out, masks):
        calls.append(None)
        return witness(out, masks)

    monkeypatch.setattr(construct_mod, "_witness", counted)
    return calls


class TestButterfly:
    def test_k0_single_edge(self):
        g = butterfly(0)
        assert len(g.vertices) == 2 and len(g.edges) == 1
        assert cd_index_of(g) == parse_cd("1")

    def test_k1_diamond(self):
        g = butterfly(1)
        assert len(g.vertices) == 4 and len(g.edges) == 4
        psi = g.ab_index(g.zero_hat(), g.one_hat())
        assert str(psi) == "a + b"
        assert cd_index_of(g) == parse_cd("c")

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_cd_index_is_power_of_c(self, k):
        g = butterfly(k)
        assert cd_index_of(g) == CdPoly.monomial("c" * k)
        assert g.is_balanced().balanced
        assert isinstance(g.relation, LinearRelation)

    def test_built_once_per_k(self):
        assert butterfly(3) is butterfly(3)
        assert butterfly(True) is butterfly(1)
        assert len(butterfly(True).vertices) == 4

    def test_rejects_a_non_int_or_negative_k_on_every_call(self):
        for _ in range(2):
            with pytest.raises(TypeError):
                butterfly(1.0)
            with pytest.raises(ValueError):
                butterfly(-1)

    def test_realize_is_unchanged_by_shared_butterflies(self, monkeypatch):
        target = parse_cd("3*cc + 2*dc + cdc + 4")
        shared = realize(target)
        monkeypatch.setattr(construct_mod, "butterfly", construct_mod._butterfly.__wrapped__)
        fresh = realize(target)
        assert shared.vertices == fresh.vertices and shared.edges == fresh.edges
        assert to_json_dict(shared) == to_json_dict(fresh)

    def test_long_butterfly(self):
        # m = 513 would give the group graph 263,169 edges; none is built
        g = butterfly(511)
        assert len(g.vertices) == 1024 and len(g.edges) == 2044
        assert realize(CdPoly.monomial("c" * 511)).edges == g.edges


class TestDJoin:
    def test_two_points(self):
        g = d_join(butterfly(0), butterfly(0))
        assert len(g.vertices) == 4
        # the two junction edges are the only middle edges
        middles = [
            e
            for e in g.edges
            if e.tail not in (g.zero_hat(),) and e.head not in (g.one_hat(),)
        ]
        assert len(middles) == 2
        assert cd_index_of(g) == parse_cd("d")

    def test_junction_descent_words(self):
        # the minimum-labeled junction edge contributes ba, the maximum ab
        g = d_join(butterfly(0), butterfly(0))
        order = g.relation.order
        lo, hi = order[0], order[-1]
        words = {}
        for p in g.paths(g.zero_hat(), g.one_hat()):
            (junction,) = [e for e in p if e.label in (lo, hi)]
            words[junction.label] = descent_word(g, p)
        assert words == {lo: "ba", hi: "ab"}

    def test_butterfly_then_edge(self):
        g = d_join(butterfly(1), butterfly(0))
        assert cd_index_of(g) == parse_cd("cd")

    def test_multiplies_with_d(self):
        left, right = butterfly(2), butterfly(1)
        joined = d_join(left, right)
        assert cd_index_of(joined) == cd_index_of(left) * parse_cd("d") * cd_index_of(
            right
        )
        assert joined.is_balanced().balanced

    def test_balance_preserved_on_join_sweep(self):
        pieces = [butterfly(k) for k in range(3)]
        for g1 in pieces:
            for g2 in pieces:
                assert d_join(g1, g2).is_balanced().balanced

    def test_rejects_nonlinear(self, graph_fig2_ii):
        with pytest.raises(ValueError):
            d_join(graph_fig2_ii, butterfly(0))

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            d_join(chain(["2", "1"]), butterfly(0))


def _reversed_fig1_left():
    """fig1_left with its vertex list reversed: not in topological order, not v0, v1, ..."""
    g = fixtures.fig1_left()
    edges = [(e.tail, e.head, e.label) for e in g.edges]
    return LabeledDigraph(g.vertices[::-1], edges, g.relation)


class TestNaryJoin:
    def test_equals_left_fold(self):
        odd = _reversed_fig1_left()
        assert odd.vertices != odd.topological_order
        parts = [butterfly(k) for k in range(4)] + [odd]
        for a, b, c in itertools.product(parts, repeat=3):
            joined = d_join(a, b, c)
            assert joined.vertices == joined.topological_order  # renamed in that order
            assert to_json_dict(joined) == to_json_dict(d_join(d_join(a, b), c))
        a, b, c, d = parts[1], odd, parts[0], parts[3]
        fold = d_join(d_join(d_join(a, b), c), d)
        assert to_json_dict(d_join(a, b, c, d)) == to_json_dict(fold)

    def test_layout_of_three_edges(self):
        # labels lo_2, lo_1, the three edges' own with hi_1 and hi_2 between;
        # each junction pair follows the edge of the graph it leads to
        g = d_join(butterfly(0), butterfly(0), butterfly(0))
        assert g.vertices == ("v0", "v1", "v2", "v3", "v4", "v5")
        assert [tuple(e[:3]) for e in g.edges] == [
            ("v0", "v1", "L2"),
            ("v2", "v3", "L3"),
            ("v1", "v2", "L1"),
            ("v1", "v2", "L4"),
            ("v4", "v5", "L5"),
            ("v3", "v4", "L0"),
            ("v3", "v4", "L6"),
        ]
        assert g.relation.order == tuple(f"L{i}" for i in range(7))

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError):
            d_join()
        with pytest.raises(ValueError):
            d_join(butterfly(1))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_unbalanced_anywhere(self, position):
        parts = [butterfly(1), butterfly(0), butterfly(2)]
        parts[position] = chain(["2", "1"])
        message = f"^d_join argument {position + 1} graph must be balanced$"
        with pytest.raises(ValueError, match=message):
            d_join(*parts)


class TestGlueSum:
    def test_two_edges(self):
        g = glue_sum(butterfly(0), butterfly(0))
        assert len(g.vertices) == 2
        assert len(g.edges) == 2
        assert cd_index_of(g) == parse_cd("2")

    def test_reproduces_first_fixture_value(self, graph_fig1_left):
        # two c-butterflies and three edges glue to the cd-index 2*c + 3
        pieces = [butterfly(1), butterfly(1)] + [butterfly(0)] * 3
        total = pieces[0]
        for piece in pieces[1:]:
            total = glue_sum(total, piece)
        assert cd_index_of(total) == parse_cd("2*c + 3")
        assert cd_index_of(total) == graph_fig1_left.is_balanced().cd_index

    def test_additive(self):
        g1, g2 = butterfly(2), d_join(butterfly(0), butterfly(0))
        glued = glue_sum(g1, g2)
        assert cd_index_of(glued) == cd_index_of(g1) + cd_index_of(g2)
        assert glued.is_balanced().balanced


def realize_by_pairwise_glue(w: CdPoly):
    """Oracle: the monomial graphs of realize, glued one at a time from the left."""
    result = None
    for word in sorted(w.terms, key=cd_sort_key):
        runs = [len(part) for part in word.split("d")]
        monomial_graph = butterfly(runs[0])
        for run in runs[1:]:
            monomial_graph = d_join(monomial_graph, butterfly(run))
        for _ in range(w.coefficient(word)):
            result = monomial_graph if result is None else glue_sum(result, monomial_graph)
    return result


class TestNaryGlue:
    def test_equals_left_fold(self):
        odd = _reversed_fig1_left()
        parts = [butterfly(k) for k in range(4)] + [odd]
        for a, b, c in itertools.product(parts, repeat=3):
            glued = glue_sum(a, b, c)
            assert glued.vertices == glued.topological_order  # renamed in that order
            assert to_json_dict(glued) == to_json_dict(glue_sum(glue_sum(a, b), c))

    def test_realize_equals_pairwise_fold(self, rng):
        for _ in range(40):
            target = _random_nonneg_cd(rng, max_degree=4)
            assert to_json_dict(realize(target)) == to_json_dict(realize_by_pairwise_glue(target))

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError):
            glue_sum()
        with pytest.raises(ValueError):
            glue_sum(butterfly(1))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_unbalanced_anywhere(self, position):
        parts = [butterfly(1), butterfly(0), butterfly(2)]
        parts[position] = chain(["2", "1"])
        message = f"^glue argument {position + 1} graph must be balanced$"
        with pytest.raises(ValueError, match=message):
            glue_sum(*parts)

    def test_cli_rejects_unbalanced_realization(self, capsys, monkeypatch):
        monkeypatch.setattr(construct_mod, "realize", lambda w: chain(["2", "1"]))
        code = main(["construct", "--cd", "c"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error:") and captured.err.count("\n") == 1


class TestRealize:
    def test_d(self):
        g = realize(parse_cd("d"))
        assert cd_index_of(g) == parse_cd("d")
        assert len(g.vertices) == 4

    def test_fig1_left_value(self):
        g = realize(parse_cd("2*c + 3"))
        assert cd_index_of(g) == parse_cd("2*c + 3")

    def test_mixed_monomials(self):
        target = parse_cd("cdc + 2*dd")
        g = realize(target)
        assert cd_index_of(g) == target

    @pytest.mark.parametrize("text, builds", [("cdc", 1), ("2*cdc + d", 3), ("dd + 3*c + 2", 2)])
    def test_each_graph_built_once(self, monkeypatch, text, builds):
        # one graph per distinct monomial with a d, and one for the glue
        target = parse_cd(text)
        for k in range(4):
            butterfly(k)
        init = LabeledDigraph.__init__
        calls = []

        def counted(self, *args):
            calls.append(1)
            init(self, *args)

        monkeypatch.setattr(LabeledDigraph, "__init__", counted)
        g = realize(target)
        assert len(calls) == builds
        assert cd_index_of(g) == target

    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomial):
            realize(CdPoly.zero())

    def test_rejects_negative(self):
        with pytest.raises(NegativeCoefficient):
            realize(parse_cd("cc - d"))

    def test_random_roundtrip(self, rng):
        for _ in range(25):
            target = _random_nonneg_cd(rng, max_degree=5)
            g = realize(target)
            assert cd_index_of(g) == target
            assert g.is_balanced().balanced
            assert isinstance(g.relation, LinearRelation)

    def test_brute_force_agreement(self, rng):
        target = parse_cd("c + d + 2")
        g = realize(target)
        brute = g.ab_index_by_paths(g.zero_hat(), g.one_hat())
        assert ab_to_cd(brute) == target


class TestRealizeBound:
    """realize counts its edges from the polynomial and refuses a graph above the bound."""

    @pytest.mark.parametrize(
        "text",
        ["1", "7", "c", "d", "2*c + 3", "dcd + 2*cdd + c", "20*cccc + 9*dcc", "3*dd + cdc + 2"],
    )
    def test_both_sides_of_the_bound(self, monkeypatch, text):
        target = parse_cd(text)
        edges = len(realize(target).edges)
        monkeypatch.setattr(construct_mod, "MAX_REALIZE_EDGES", edges)
        assert len(realize(target).edges) == edges
        monkeypatch.setattr(construct_mod, "MAX_REALIZE_EDGES", edges - 1)
        message = f"^a realization of {edges} edges exceeds the bound {edges - 1}$"
        with pytest.raises(ValueError, match=message):
            realize(target)

    @pytest.mark.parametrize(
        "text, edges",
        [
            (lambda k: f"{k // 4}*c", lambda k: 4 * (k // 4)),  # c is 4 edges
            (lambda k: f"{k}", lambda k: k),  # the constant is one edge per part
            (lambda k: f"{k // 4}*d", lambda k: 4 * (k // 4)),  # d is two 1-edge runs and 2
            (lambda k: f"{k // 8 - 1}*cc + 8", lambda k: 8 * (k // 8 - 1) + 8),
        ],
    )
    def test_real_bound_on_both_sides_without_building(self, monkeypatch, text, edges):
        built = mock.Mock(return_value="built")
        for name in ("butterfly", "d_join", "glue_sum"):
            monkeypatch.setattr(construct_mod, name, built)
        bound = construct_mod.MAX_REALIZE_EDGES
        assert edges(bound) == bound
        assert realize(parse_cd(text(bound))) == "built"
        built.reset_mock()
        with pytest.raises(ValueError, match=f"of {edges(bound + 8)} edges exceeds the bound"):
            realize(parse_cd(text(bound + 8)))
        built.assert_not_called()

    @pytest.mark.parametrize(
        "text", ["99999999999999999999", "99999999999999999999*c", "99999999999999999999 + 2*c"]
    )
    def test_huge_coefficient_refused_without_building(self, monkeypatch, text):
        built = mock.Mock(side_effect=AssertionError("built"))
        monkeypatch.setattr(construct_mod, "butterfly", built)
        with pytest.raises(ValueError, match="edges exceeds the bound"):
            realize(parse_cd(text))

    def test_admits_the_largest_measured_polynomial(self):
        target = parse_cd(
            "200*cccccccccc + 150*cdcdcccc + 120*ddddcc + 90*ccdccdcc + 70*dcccccccc + 300*ccccdcccc"
        )
        g = realize(target)
        assert (len(g.vertices), len(g.edges)) == (15_942, 29_770)


class TestConstructCost:
    """_check_construct_cost weighs a monomial's ab-words once, and an eighth per further copy."""

    @pytest.mark.parametrize(
        "text, words",
        [
            ("1", 1),
            ("3*c", 2),
            ("9*ccc", 8 + 8),
            ("dd + 2*cdc", 4 + 8 + 1),
            ("c" * 30, 2**30),
            ("300*" + "d" * 16, 2**16 + 299 * 2**13),
            (
                "200*cccccccccc + 150*cdcdcccc + 120*ddddcc + 90*ccdccdcc + 70*dcccccccc + 300*ccccdcccc",
                26_496 + 5_024 + 1_016 + 3_104 + 4_928 + 19_648,
            ),
        ],
    )
    def test_both_sides_of_the_bound(self, monkeypatch, text, words):
        monkeypatch.setattr(construct_mod, "butterfly", mock.Mock(side_effect=AssertionError("built")))
        target = parse_cd(text)
        monkeypatch.setattr(construct_mod, "MAX_CHECK_AB_WORDS", words)
        construct_mod._check_construct_cost(target)
        monkeypatch.setattr(construct_mod, "MAX_CHECK_AB_WORDS", words - 1)
        message = f"^checking a realization of {words} weighted ab-words exceeds the bound {words - 1}$"
        with pytest.raises(ValueError, match=message):
            construct_mod._check_construct_cost(target)

    def test_real_bound(self):
        assert construct_mod.MAX_CHECK_AB_WORDS == 2**16
        for text in ["d" * 16, "121*" + "d" * 12, "2033*" + "d" * 8]:
            construct_mod._check_construct_cost(parse_cd(text))
        for text in ["c" * 17, "2*" + "d" * 16, "d" * 16 + " + 1", "122*" + "d" * 12]:
            with pytest.raises(ValueError, match="weighted ab-words exceeds the bound"):
                construct_mod._check_construct_cost(parse_cd(text))

    @pytest.mark.parametrize(
        "text, error",
        [("0", ZeroPolynomial), ("cc - d", NegativeCoefficient), ("99999999999999999999*c", ValueError)],
    )
    def test_refusals_of_realize_first(self, text, error):
        with pytest.raises(error, match="zero|negative|edges exceeds"):
            construct_mod._check_construct_cost(parse_cd(text))


class TestChunkedBalance:
    """A realized graph wide enough for two run-count sweeps of the balance check."""

    def realized(self):
        # every vertex but the last two is a source
        g = realize(parse_cd("20*cccc + 9*dcc"))
        assert len(g.vertices) == 216 > 2 + digraph_mod._CHUNK
        return g

    def test_balanced_across_chunks(self):
        assert self.realized().is_balanced().balanced

    def test_witness_in_the_second_chunk(self):
        # exchanging the labels of the sink's in-edges from v213 and v214
        # leaves every interval from a source below v155 balanced
        g = self.realized()
        label = {e.tail: e.label for e in in_edges(g, "v215")}
        swap = {"v213": label["v214"], "v214": label["v213"]}
        edges = [
            (e.tail, e.head, swap.get(e.tail, e.label) if e.head == "v215" else e.label)
            for e in g.edges
        ]
        h = LabeledDigraph(g.vertices, edges, g.relation)
        witness = h.is_balanced().witness
        position = h.topological_order.index(witness.x)
        assert digraph_mod._CHUNK <= position < 2 * digraph_mod._CHUNK
        expected = witness_by_pairs(h)
        assert tuple(witness) == expected == ("v155", "v215", 2, 0, 2)
        for chunk in (1, 64):
            with mock.patch.object(digraph_mod, "_CHUNK", chunk):
                assert tuple(h._balance_witness()) == expected


def _random_nonneg_cd(rng, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, max_degree)
        words = list(cd_words_of_degree(degree))
        terms[rng.choice(words)] = rng.randint(1, 3)
    return CdPoly(terms)


def _randint_choice_dag(rng, max_vertices):
    """The generator as first written, with randint and choice on vertex names.

    Frozen as the oracle of the stream contract: ``random_labeled_dag`` must
    give the same graph and leave ``rng`` in the same state.  Quadratic in
    the vertex count, so only for small caps.
    """
    n_interior = rng.randint(0, max_vertices - 2)
    layers = [["v0"]]
    next_id = 1
    remaining = n_interior
    while remaining:
        width = rng.randint(1, remaining)
        layers.append([f"v{next_id + i}" for i in range(width)])
        next_id += width
        remaining -= width
    layers.append([f"v{next_id}"])

    level_of = {v: i for i, layer in enumerate(layers) for v in layer}
    vertices = [v for layer in layers for v in layer]
    edges = []
    for i, layer in enumerate(layers[:-1]):
        for v in layer:
            target_level = rng.randint(i + 1, len(layers) - 1)
            edges.append((v, rng.choice(layers[target_level])))
    for i, layer in enumerate(layers[1:], start=1):
        for v in layer:
            if not any(head == v for _, head in edges):
                source_level = rng.randint(0, i - 1)
                edges.append((rng.choice(layers[source_level]), v))
    extra = rng.randint(0, max(2, len(vertices)))
    for _ in range(extra):
        tail = rng.choice(vertices[:-1])
        later = [v for v in vertices if level_of[v] > level_of[tail]]
        edges.append((tail, rng.choice(later)))

    label_count = rng.randint(1, MAX_LABELS)
    order = [str(i) for i in range(1, label_count + 1)]
    labeled = [(tail, head, rng.choice(order)) for tail, head in edges]
    return LabeledDigraph(vertices, labeled, LinearRelation(order))


def _triples(g):
    return [(e.tail, e.head, e.label) for e in g.edges]


class TestRandomDag:
    def test_same_stream_as_randint_and_choice(self):
        cases = [(seed, cap) for seed in range(500) for cap in (2, 3, 5, 8, 12)]
        # wide levels and draws of several bits reach every draw written in place
        cases += [(seed, cap) for seed in range(100) for cap in (20, 64)]
        for seed, cap in cases:
            ours, oracle = random.Random(seed), random.Random(seed)
            for _ in range(2):  # the second graph starts where the first left off
                g = random_labeled_dag(ours, max_vertices=cap)
                want = _randint_choice_dag(oracle, cap)
                assert g.vertices == want.vertices, (seed, cap)
                assert _triples(g) == _triples(want), (seed, cap)
                assert g.relation.order == want.relation.order, (seed, cap)
            assert ours.random() == oracle.random(), (seed, cap)

    def test_out_lists_match_the_edges_and_labels(self):
        for seed in range(200):
            rng = random.Random(seed)
            for cap in range(2, 65):
                n, edges, labels, _, out = construct_mod._draw_dag(rng, cap)
                assert len(labels) == len(edges), (seed, cap)
                rebuilt = [[] for _ in range(n)]
                for (t, h), label in zip(edges, labels):
                    rebuilt[t].append((h, label, None))
                assert out == rebuilt, (seed, cap)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_cap_structure(self, seed):
        cap = 20_000
        g = random_labeled_dag(random.Random(seed), max_vertices=cap)
        # the first draws lay out the levels: the interior count, then each width
        layout = random.Random(seed)
        n = layout.randint(0, cap - 2) + 2
        level = [0]
        while len(level) < n - 1:
            level += [level[-1] + 1] * layout.randint(1, n - 1 - len(level))
        level.append(level[-1] + 1)
        assert g.is_bounded() and len(g.topological_order) == len(g.vertices) == n <= cap
        index = {v: i for i, v in enumerate(g.vertices)}
        source, sink = g.zero_hat(), g.one_hat()
        assert {e.head for e in g.edges} == set(g.vertices) - {source}
        assert {e.tail for e in g.edges} == set(g.vertices) - {sink}
        assert all(level[index[e.tail]] < level[index[e.head]] for e in g.edges)
        order = g.relation.order
        assert len(order) <= MAX_LABELS and {e.label for e in g.edges} <= set(order)

    def test_vertex_cap_must_be_an_int(self):
        with pytest.raises(TypeError):
            random_labeled_dag(random.Random(1), max_vertices=8.0)
        with pytest.raises(ValueError):
            random_labeled_dag(random.Random(1), max_vertices=1)

    def test_always_bounded_and_acyclic(self, rng):
        for _ in range(100):
            g = random_labeled_dag(rng, max_vertices=8)
            assert g.is_bounded()
            assert 2 <= len(g.vertices) <= 8
            assert isinstance(g.relation, LinearRelation)

    def test_int_form_verdict_matches_the_built_graph(self):
        verdicts = set()
        for seed in range(500):
            for cap in (2, 3, 5, 8, 12, 40):
                drawn, built = random.Random(seed), random.Random(seed)
                for _ in range(2):  # the second graph starts where the first left off
                    balanced = construct_mod._draw_is_balanced(construct_mod._draw_dag(drawn, cap))
                    g = random_labeled_dag(built, max_vertices=cap)
                    assert balanced == g.is_balanced().balanced, (seed, cap)
                    verdicts.add(balanced)
                assert drawn.random() == built.random(), (seed, cap)
        assert verdicts == {True, False}

    def test_two_edge_rejections_are_unbalanced(self, witness_calls):
        # a draw rejected with no witness call was rejected by its two-edge paths
        rejected = unbalanced_draws = 0
        for seed in range(200):
            rng = random.Random(seed)
            for cap in (2, 3, 5, 8, 12, 40):
                draw = construct_mod._draw_dag(rng, cap)
                masks = construct_mod._linear(draw[3])[1]
                witness_calls.clear()
                balanced = construct_mod._draw_is_balanced(draw)
                unbalanced = digraph_mod._witness(draw[4], masks) is not None
                assert balanced != unbalanced, (seed, cap)
                unbalanced_draws += unbalanced
                if not witness_calls:
                    assert unbalanced, (seed, cap)
                    rejected += 1
        assert rejected > 0.95 * unbalanced_draws, (rejected, unbalanced_draws)

    def test_deterministic(self):
        g1 = random_labeled_dag(random.Random(7), max_vertices=8)
        g2 = random_labeled_dag(random.Random(7), max_vertices=8)
        assert g1.vertices == g2.vertices
        assert [(e.tail, e.head, e.label) for e in g1.edges] == [
            (e.tail, e.head, e.label) for e in g2.edges
        ]


def balanced_found_by_building(seed, trials, max_vertices):
    """Oracle for the search's count: build every trial's graph, then ask ``is_balanced``."""
    rng = random.Random(seed)
    return sum(
        random_labeled_dag(rng, max_vertices=max_vertices).is_balanced().balanced
        for _ in range(trials)
    )


# B_3 with its vertices 0, 1, 2, 3, 12, 13, 23, 123 numbered 0 .. 7, and a
# labeling by three label ranks that repeats labels along paths: the
# library finds it balanced, with cd-index 2cc - d
B3_TIES_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7),
]
B3_TIES_RANKS = [0, 2, 2, 0, 1, 1, 0, 1, 2, 0, 0, 2]


def b3_ties_draw(rng=None, max_vertices=None):
    """The B_3 labeling above as a draw of ``construct._draw_dag``, whatever is asked."""
    out = [[] for _ in range(8)]
    for (t, h), rank in zip(B3_TIES_EDGES, B3_TIES_RANKS):
        out[t].append((h, rank, None))
    return 8, list(B3_TIES_EDGES), list(B3_TIES_RANKS), 3, out


class TestConjectureSearch:
    @pytest.mark.parametrize(
        "trials, max_vertices",
        [
            (-5, 8), (-1, 2), (0, 1), (3, 1),
            (1, construct_mod.MAX_SEARCH_VERTICES + 1), (1, 10**9),
            (0, 8.5), (1, 8.5), (0, "8"), (1, "8"),
            (2.5, 8), ("3", 8), (1.0, 2), (True, 1), (False, 20_001),
        ],
    )
    def test_bounds_checked_before_the_first_trial(self, monkeypatch, trials, max_vertices):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(construct_mod, "_draw_dag", no_trial)
        ints = isinstance(trials, int) and isinstance(max_vertices, int)
        with pytest.raises(ValueError if ints else TypeError):
            conjecture_search(seed=1, trials=trials, max_vertices=max_vertices)
        assert conjecture_search(seed=1, trials=0, max_vertices=2).trials == 0
        # the patched step is the one every trial takes
        with pytest.raises(AssertionError, match="a trial ran"):
            conjecture_search(seed=1, trials=1, max_vertices=2)

    def test_bool_trial_count_is_its_int(self):
        report = conjecture_search(seed=1, trials=True, max_vertices=8)
        assert report.trials == 1 and type(report.trials) is int
        assert report == conjecture_search(seed=1, trials=1, max_vertices=8)

    def test_largest_admitted_vertex_bound_runs(self):
        report = conjecture_search(
            seed=1, trials=1, max_vertices=construct_mod.MAX_SEARCH_VERTICES
        )
        assert report.trials == 1 and report.clean

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_vertices", [2, 3, 5, 8, 12])
    def test_balanced_count_matches_building_every_trial(self, seed, max_vertices):
        report = conjecture_search(seed=seed, trials=300, max_vertices=max_vertices)
        assert report.balanced_found == balanced_found_by_building(seed, 300, max_vertices)

    def test_builds_only_balanced_trials(self, monkeypatch):
        built = []
        named = construct_mod._named_dag

        def counted(draw):
            built.append(draw)
            return named(draw)

        monkeypatch.setattr(construct_mod, "_named_dag", counted)
        report = conjecture_search(seed=42, trials=1000, max_vertices=8)
        assert len(built) == report.balanced_found == 178

    def test_two_edge_paths_decide_before_the_witness(self, witness_calls):
        # the witness sweeps only the draws whose two-edge paths from the source balance
        report = conjecture_search(seed=42, trials=1000, max_vertices=8)
        assert report.balanced_found == 178
        assert len(witness_calls) == 185

    def test_negative_draw_is_rechecked_and_reported(self, monkeypatch):
        monkeypatch.setattr(construct_mod, "_draw_dag", b3_ties_draw)
        report = conjecture_search(seed=1, trials=3, max_vertices=8)
        assert report.balanced_found == 3
        graph = to_json_dict(construct_mod._named_dag(b3_ties_draw()))
        assert report.counterexamples == tuple(
            construct_mod.Counterexample(
                trial=trial, graph=graph, cd_index="2*cc - d", negative_words=("d",), verified=True
            )
            for trial in range(3)
        )

    def test_negative_draw_exits_negative(self, capsys, monkeypatch):
        monkeypatch.setattr(construct_mod, "_draw_dag", b3_ties_draw)
        assert main(["search", "--trials", "1", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert "  trial 0: cd-index 2*cc - d (negative at d; verified=True)" in out.splitlines()

    def test_a_recheck_without_cd_index_is_internal(self, monkeypatch):
        monkeypatch.setattr(construct_mod, "_draw_dag", b3_ties_draw)
        monkeypatch.setattr(LabeledDigraph, "ab_index_by_paths", lambda self, x, y: parse_ab("a"))
        with pytest.raises(
            digraph_mod.InternalError,
            match=r"^trial 0: the path re-check of a balanced graph has no cd-index \(residual -b\)$",
        ):
            conjecture_search(seed=1, trials=1, max_vertices=8)

    def test_disagreeing_verdicts_raise(self, monkeypatch):
        monkeypatch.setattr(construct_mod, "_draw_is_balanced", lambda draw: True)
        with pytest.raises(digraph_mod.InternalError, match="trial 0: .* disagree"):
            conjecture_search(seed=42, trials=1000, max_vertices=8)

    def test_small_run_clean(self):
        report = conjecture_search(seed=42, trials=300, max_vertices=7)
        assert report.trials == 300
        assert report.balanced_found > 0
        assert report.clean

    @pytest.mark.parametrize(
        "seed, trials, max_vertices, balanced",
        [(42, 1000, 8, 178), (11, 150, 6, 32), (42, 200, 40, 8)],
    )
    def test_pinned_balanced_counts(self, seed, trials, max_vertices, balanced):
        # a change to the draws changes these counts
        report = conjecture_search(seed=seed, trials=trials, max_vertices=max_vertices)
        assert report.balanced_found == balanced

    def test_seed_reproducibility(self):
        a = conjecture_search(seed=11, trials=150, max_vertices=6)
        b = conjecture_search(seed=11, trials=150, max_vertices=6)
        assert a == b

    def test_nonlinear_negative_example_out_of_scope(self, graph_fig2_ii):
        # the known balanced graph with a negative cd-coefficient uses a
        # relation that is not a linear order, so the harness never emits it
        assert graph_fig2_ii.relation.to_json()["mode"] == "pairs"
        cd = graph_fig2_ii.is_balanced().cd_index
        assert any(c < 0 for c in cd.terms.values())

    def test_counterexamples_would_roundtrip(self):
        # graphs in reports are serialized; anything reported must reload
        report = conjecture_search(seed=3, trials=50, max_vertices=6)
        for cand in report.counterexamples:
            from_json_dict(cand.graph)
