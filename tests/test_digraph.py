"""Graph loading, interval structure, DP-computed indexes and balance."""

import gc
import random
import re
import time
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdindex.digraph as digraph_mod
from cdindex.coxeter import bruhat_graph_sn
from cdindex.digraph import (
    _LOW,
    CycleDetected,
    DanglingVertex,
    GraphError,
    InternalError,
    LabeledDigraph,
    LinearRelation,
    NoPath,
    PairsRelation,
    Unbounded,
    UnknownLabel,
    cartesian_product,
    from_json_dict,
    stanley_product,
    to_json_dict,
)
from cdindex.ncpoly import (
    AbPoly,
    CdPoly,
    IntPoly,
    TensorPoly,
    ab_to_cd,
    coproduct,
    parse_cd,
)
from cdindex.construct import realize
from cdindex.fixtures import fig3_b3

from conftest import (
    assert_kept_reads_match_sweeps,
    chain,
    interval_by_filter,
    reach_by_fixpoint,
    witness_by_pairs,
)
from oracles import (
    ab_index_by_descent_words,
    capital_rising_falling_from,
    descent_word,
    dual,
    in_edges,
    parse_ab,
    paths_by_zip_walk,
    star,
)


class TestLoadAndValidate:
    def test_fig1_left_shape(self, graph_fig1_left):
        assert len(graph_fig1_left.vertices) == 6
        assert len(graph_fig1_left.edges) == 11

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            LabeledDigraph(["x"], [("x", "x", "1")], LinearRelation(["1"]))

    def test_cycle_witness(self):
        with pytest.raises(CycleDetected) as exc:
            LabeledDigraph(
                ["x", "y", "z"],
                [("x", "y", "1"), ("y", "z", "1"), ("z", "x", "1")],
                LinearRelation(["1"]),
            )
        cyc = exc.value.cycle
        assert cyc[0] == cyc[-1] and len(set(cyc)) == 3

    def test_cycle_witness_walks_graph_edges(self):
        rng = random.Random(1729)
        found = 0
        for _ in range(400):
            vertices = list(range(rng.randint(1, 8)))
            edges = [
                (rng.choice(vertices), rng.choice(vertices), "1")
                for _ in range(rng.randint(1, 2 * len(vertices)))
            ]
            if len(vertices) > 1 and rng.random() < 0.3:  # a parallel 2-cycle
                x, y = rng.sample(vertices, 2)
                edges += [(x, y, "1"), (y, x, "1"), (x, y, "1")]
            rng.shuffle(edges)
            try:
                LabeledDigraph(vertices, edges, LinearRelation(["1"]))
            except CycleDetected as exc:
                cyc = exc.cycle
            else:
                continue
            found += 1
            arcs = {(t, h) for t, h, _ in edges}
            assert cyc[0] == cyc[-1] and len(set(cyc)) == len(cyc) - 1
            assert all(step in arcs for step in zip(cyc, cyc[1:]))
        assert found > 200

    def test_parallel_edges(self):
        g = LabeledDigraph(
            ["x", "y"], [("x", "y", "1"), ("x", "y", "1")], LinearRelation(["1"])
        )
        assert len(g.edges) == 2
        assert g.ab_index("x", "y") == AbPoly({"": 2})

    def test_dangling(self):
        with pytest.raises(DanglingVertex):
            LabeledDigraph(["x"], [("x", "y", "1")], LinearRelation(["1"]))

    def test_unknown_label_linear(self):
        with pytest.raises(UnknownLabel):
            LabeledDigraph(["x", "y"], [("x", "y", "9")], LinearRelation(["1"]))

    def test_unknown_label_in_pairs_json(self):
        data = {
            "vertices": ["x", "y"],
            "edges": [{"tail": "x", "head": "y", "label": "1"}],
            "relation": {"mode": "pairs", "pairs": [["1", "7"]]},
        }
        with pytest.raises(UnknownLabel):
            from_json_dict(data)

    @pytest.mark.parametrize("pairs", [[["1"]], [["1", "1", "1"]], ["11"], [1], 5])
    def test_malformed_pairs_in_json(self, pairs):
        data = {
            "vertices": ["x", "y"],
            "edges": [{"tail": "x", "head": "y", "label": "1"}],
            "relation": {"mode": "pairs", "pairs": pairs},
        }
        with pytest.raises(GraphError):
            from_json_dict(data)

    @pytest.mark.parametrize("data", [[1, 2], "graph", 5, None, list(range(10**4))])
    def test_description_not_an_object(self, data):
        # the message names no part of the value, which may be large
        with pytest.raises(GraphError) as exc:
            from_json_dict(data)
        assert str(exc.value) == "malformed graph description: it is not a JSON object"

    @pytest.mark.parametrize("relation", [["linear", "1"], "linear", 5, None])
    def test_relation_not_an_object(self, relation):
        data = {"vertices": ["x", "y"], "edges": [{"tail": "x", "head": "y", "label": "1"}], "relation": relation}
        with pytest.raises(GraphError) as exc:
            from_json_dict(data)
        assert str(exc.value) == "malformed graph description: its relation is not a JSON object"

    def test_missing_key_is_named(self):
        with pytest.raises(GraphError) as exc:
            from_json_dict({"vertices": [], "edges": [], "relation": {}})
        assert str(exc.value) == "malformed graph description: missing 'mode'"

    def test_unknown_vertex_is_graph_error(self, graph_b3):
        # an unhashable value is no vertex either, and raises no TypeError
        g = graph_b3
        for zz in ("zz", ["x"], {}):
            for call in (
                lambda: g.ab_index(zz, "123"),
                lambda: g.ab_index("0", zz),
                lambda: g.ab_index(zz, zz),
                lambda: g.ab_index_from(zz),
                lambda: g.leq(zz, "123"),
                lambda: g.leq("0", zz),
                lambda: g.interval(zz, "123"),
                lambda: g.interval("0", zz),
                lambda: g.induced(["1", zz]),
                lambda: g.out_edges(zz),
                lambda: in_edges(g, zz),
                lambda: next(g.paths(zz, "123")),
                lambda: g.rising_falling("0", zz),
                lambda: g.rising_falling(zz, zz),
                lambda: g.capital_rising_falling("0", zz),
                lambda: g.capital_rising_falling(zz, zz),
            ):
                with pytest.raises(GraphError, match=re.escape(repr(zz))):
                    call()

    def test_json_roundtrip(self, graph_b3):
        again = from_json_dict(to_json_dict(graph_b3))
        assert again.vertices == graph_b3.vertices
        assert [(e.tail, e.head, e.label) for e in again.edges] == [
            (e.tail, e.head, e.label) for e in graph_b3.edges
        ]
        assert again.relation.to_json() == graph_b3.relation.to_json()

    @pytest.mark.parametrize(
        "vertices, label, message",
        [([1, "y"], "a", "vertex 1 is not a string"), (["x", "y"], 2, "label 2 is not a string")],
    )
    def test_json_dict_needs_string_names(self, vertices, label, message):
        g = LabeledDigraph(vertices, [(vertices[0], "y", label)], LinearRelation([label]))
        with pytest.raises(GraphError, match=f"^{message}; not serializable$"):
            to_json_dict(g)


class TestInterval:
    def test_whole_graph(self, graph_fig1_left):
        sub = graph_fig1_left.interval("0", "1")
        assert set(sub.vertices) == set(graph_fig1_left.vertices)
        assert len(sub.edges) == 11

    def test_single_vertex(self, graph_b3):
        sub = graph_b3.interval("2", "2")
        assert sub.vertices == ("2",)
        assert sub.edges == ()

    def test_unreachable_pair_is_empty(self, graph_b3):
        # the two restricted-graph vertices 13 and 1 satisfy 13 </= 1
        sub = graph_b3.interval("13", "1")
        assert sub.vertices == ()

    def test_incomparable_interior(self, graph_b3):
        sub = graph_b3.interval("1", "23")
        assert sub.vertices == ()

    def test_proper_interval(self, graph_b3):
        sub = graph_b3.interval("1", "123")
        assert set(sub.vertices) == {"1", "12", "13", "123"}
        assert len(sub.edges) == 4


    def test_matches_edge_filter_on_random_dags(self, rng):
        # vertices listed out of topological order, parallel edges drawn twice
        for _ in range(40):
            n = rng.randint(1, 9)
            hidden = [f"w{i}" for i in range(n)]
            vertices = hidden[:]
            rng.shuffle(vertices)
            edges = []
            for _ in range(rng.randint(0, 3 * n)):
                i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                if i != j:
                    label = rng.choice("pqr")
                    edges += [(hidden[i], hidden[j], label)] * rng.randint(1, 2)
            g = LabeledDigraph(vertices, edges, LinearRelation("pqr"))
            reach = reach_by_fixpoint(g)
            for x in g.vertices:
                for y in g.vertices:
                    assert g.leq(x, y) == (y in reach[x])
                    # the oracle builds its graph from scratch, checking everything
                    got, want = g.interval(x, y), interval_by_filter(g, x, y)
                    assert got.vertices == want.vertices
                    assert got.edges == want.edges
                    assert got.relation is g.relation
                    assert got.topological_order == want.topological_order
                    if g.leq(x, y) and x != y:
                        assert got.ab_index(x, y) == want.ab_index(x, y)
                        assert got.rising_falling(x, y) == want.rising_falling(x, y)
            # members in an arbitrary order, not closed under intervals
            members = rng.sample(vertices, rng.randint(0, n))
            got = g.induced(members)
            kept = set(members)
            want = LabeledDigraph(
                members,
                [(e.tail, e.head, e.label) for e in g.edges if e.tail in kept and e.head in kept],
                g.relation,
            )
            assert (got.vertices, got.edges) == (want.vertices, want.edges)
            assert got.topological_order == want.topological_order
            for x in got.vertices:
                assert got.ab_index_from(x) == want.ab_index_from(x)
                assert capital_rising_falling_from(got, x) == capital_rising_falling_from(want, x)

    def test_induced_keeps_given_vertex_order(self, graph_b3):
        sub = graph_b3.induced(["123", "12", "1"])
        assert sub.vertices == ("123", "12", "1")
        assert [(e.tail, e.head, e.eid) for e in sub.edges] == [
            ("1", "12", 0),
            ("12", "123", 1),
        ]

    def test_sinks_of_subgraphs_and_unordered_vertex_lists(self, graph_b3, graph_fig1_left):
        def by_scan(g):
            return tuple(v for v in g.vertices if not g.out_edges(v))

        backwards = LabeledDigraph(
            graph_b3.vertices[::-1],
            [(e.tail, e.head, e.label) for e in graph_b3.edges],
            graph_b3.relation,
        )
        assert backwards.vertices != backwards.topological_order
        graphs = [graph_b3, graph_fig1_left, backwards]
        for g in (graph_b3, backwards):
            graphs += [g.interval("1", "123"), g.interval("0", "12"), g.interval("13", "1")]
            graphs += [g.induced(["123", "12", "1"]), g.induced(["1", "2", "3", "0"])]
        for g in graphs:
            assert g.sinks() == by_scan(g)
            assert g.sinks() is g.sinks()  # found once, then kept
        assert backwards.sinks() == ("123",)
        assert backwards.induced(["1", "2", "3", "0"]).sinks() == ("1", "2", "3")

    def test_induced_rejects_unknown_vertex(self, graph_b3):
        with pytest.raises(GraphError):
            graph_b3.induced(["1", "nowhere"])


class TestDescentWord:
    def test_single_edge(self, graph_fig1_left):
        (path,) = [p for p in graph_fig1_left.paths("0", "1") if len(p) == 1 and p[0].label == "3"]
        assert descent_word(graph_fig1_left, path) == ""

    def test_classical_chain(self, graph_b3):
        path = next(
            p
            for p in graph_b3.paths("0", "123")
            if [e.head for e in p] == ["1", "12", "123"]
        )
        assert [e.label for e in path] == ["1", "2", "3"]
        assert descent_word(graph_b3, path) == "aa"

    def test_descent(self):
        g = chain(["2", "1"])
        (path,) = g.paths("v0", "v2")
        assert descent_word(g, path) == "b"

    def test_rising_and_falling_against_the_relation(self, all_fixture_graphs):
        # a path of one edge is both; a loop on one label under pairs makes
        # a long path rise, and no pairs at all make it fall
        graphs = [*all_fixture_graphs.values()]
        graphs += [chain(["1"] * 4)]
        for pairs in ([], [("x", "x")]):
            graphs.append(ladder([["x"]] * 3, PairsRelation(pairs)))
        seen = set()
        for g in graphs:
            related = g.relation.related
            for x in g.vertices:
                for y in g.vertices:
                    for path in g.paths(x, y):
                        steps = [related(e.label, f.label) for e, f in zip(path, path[1:])]
                        assert g.is_rising(path) == all(steps)
                        assert g.is_falling(path) == (not any(steps))
                        seen.add((g.is_rising(path), g.is_falling(path)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestAbIndex:
    def test_fig1_left(self, graph_fig1_left):
        assert graph_fig1_left.ab_index("0", "1") == parse_ab("2*a + 2*b + 3")

    def test_fig1_right(self, graph_fig1_right):
        assert graph_fig1_right.ab_index("0", "1") == parse_ab("5*ab + 5*ba")

    def test_single_edge(self):
        g = chain(["1"])
        assert g.ab_index("v0", "v1") == AbPoly.one()

    def test_by_paths(self, graph_fig1_left, graph_b3):
        assert graph_fig1_left.ab_index_by_paths("0", "1") == parse_ab("2*a + 2*b + 3")
        assert graph_b3.ab_index_by_paths("123", "0").is_zero()
        assert graph_b3.ab_index_by_paths("1", "1").is_zero()

    def test_no_path(self, graph_b3):
        with pytest.raises(NoPath):
            graph_b3.ab_index("123", "0")

    def test_same_vertex_empty_sum(self, graph_b3):
        assert graph_b3.ab_index("1", "1").is_zero()

    def test_matches_brute_force_on_fixtures(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            for x in g.vertices:
                for y in g.vertices:
                    if x != y and g.leq(x, y):
                        assert g.ab_index(x, y) == g.ab_index_by_paths(x, y)


class TestEndpoints:
    """What the interval reads do with their endpoints, whichever table they read."""

    READS = ("ab_index", "rising_falling", "capital_rising_falling")

    @pytest.mark.parametrize("read", READS)
    @pytest.mark.parametrize("x, y", [("123", "0"), ("1", "2"), ("12", "3")])
    def test_unreachable_target_message(self, graph_b3, read, x, y):
        # ("1", "2"): the target comes later in topological order, yet is not above
        with pytest.raises(NoPath, match=f"^no directed path from '{x}' to '{y}'$"):
            getattr(graph_b3, read)(x, y)

    @pytest.mark.parametrize("read", READS)
    def test_sweep_ends_at_the_first_position_past_the_target(self, monkeypatch, read):
        # positions come in order, so the first one past y's shows y out of reach:
        # the sweep may yield it, and is then closed, never yielding another
        sweep = digraph_mod._sweep
        yielded = []

        def counted(*args):
            for p, table in sweep(*args):
                yielded.append(p)
                yield p, table

        monkeypatch.setattr(digraph_mod, "_sweep", counted)
        g = bruhat_graph_sn(4).graph
        topo = g.topological_order
        for x in topo:
            for y in topo:
                if x == y or g.leq(x, y):
                    continue
                yielded.clear()
                end = topo.index(y)
                with pytest.raises(NoPath, match=f"^no directed path from {re.escape(repr(x))} to "):
                    getattr(g, read)(x, y)
                assert all(p < end for p in yielded[:-1]), (x, y, yielded)

    @pytest.mark.parametrize("read", READS)
    def test_unknown_source_named_first(self, graph_b3, read):
        for x, y, named in (("p", "q", "p"), ("p", "0", "p"), ("0", "q", "q"), ([], "q", [])):
            with pytest.raises(GraphError, match=f"^vertex {re.escape(repr(named))} not in the graph$"):
                getattr(graph_b3, read)(x, y)

    @pytest.mark.parametrize(
        "read",
        [LabeledDigraph.ab_index_from, capital_rising_falling_from],
        ids=["ab_index_from", "capital_rising_falling_from"],
    )
    def test_unknown_source_of_a_whole_sweep(self, graph_b3, read):
        with pytest.raises(GraphError, match="^vertex 'p' not in the graph$"):
            read(graph_b3, "p")

    def test_induced_names_its_first_missing_member(self, graph_b3):
        for members, named in ((["0", "p", "q"], "p"), (["q", "1"], "q"), (["1", {}], {})):
            with pytest.raises(GraphError, match=f"^vertex {re.escape(repr(named))} not in the graph$"):
                graph_b3.induced(members)

    def test_empty_interval_on_a_sink(self, graph_b3):
        assert graph_b3.ab_index("123", "123") == AbPoly.zero()
        assert graph_b3.rising_falling("123", "123") == (IntPoly.zero(), IntPoly.zero())
        assert graph_b3.capital_rising_falling("123", "123") == (IntPoly.one(), IntPoly.one())


class TestB3WithTies:
    """B3 labeled by 0 < 1 < 2 with labels repeated along paths, and its strict twin.

    The library calls both balanced, and their cd-index 2cc - d has a
    negative coefficient; both verdicts are checked here against path
    enumeration.
    """

    LABELS = (0, 2, 2, 0, 1, 1, 0, 1, 2, 0, 0, 2)  # in the edge order of the B3 fixture

    def graphs(self):
        b3 = fig3_b3()
        edges = [(e.tail, e.head, l) for e, l in zip(b3.edges, self.LABELS)]
        ties = LabeledDigraph(b3.vertices, edges, LinearRelation([0, 1, 2]))
        strict = LabeledDigraph(
            b3.vertices,
            [(t, h, 2 - l) for t, h, l in edges],
            PairsRelation([(0, 1), (0, 2), (1, 2)]),
        )
        return ties, strict

    def test_verdicts_match_path_enumeration(self):
        for g in self.graphs():
            assert brute_force_witness(g) is None
            assert g.is_balanced().balanced
            for x, y in reachable_pairs(g):
                assert g.ab_index(x, y) == g.ab_index_by_paths(x, y)
            assert g.ab_index("0", "123") == parse_ab("2*aa + ab + ba + 2*bb")
            assert g.is_balanced().cd_index == parse_cd("2*cc - d")


class TestRisingFalling:
    def test_fig1_left(self, graph_fig1_left):
        r, f = graph_fig1_left.rising_falling("0", "1")
        assert r == IntPoly((3, 2))
        assert f == IntPoly((3, 2))

    def test_specialization_cross_check(self, all_fixture_graphs):
        # rising counts are the pure-a coefficients of the ab-index, falling the pure-b
        for g in all_fixture_graphs.values():
            for x in g.vertices:
                for y in g.vertices:
                    if x == y or not g.leq(x, y):
                        continue
                    r, f = g.rising_falling(x, y)  # by the sweep: no ab-index of (x, y) kept yet
                    psi = g.ab_index(x, y)
                    assert r == IntPoly(
                        [psi.coefficient("a" * k) for k in range(psi.degree() + 1)]
                    )
                    assert f == IntPoly(
                        [psi.coefficient("b" * k) for k in range(psi.degree() + 1)]
                    )

    def test_capital_versions(self, graph_fig1_left):
        R, F = graph_fig1_left.capital_rising_falling("0", "1")
        assert R == IntPoly((0, 3, 2))
        assert F == IntPoly((0, 3, 2))
        assert graph_fig1_left.capital_rising_falling("0", "0") == (
            IntPoly.one(),
            IntPoly.one(),
        )

    def test_single_edge_capitals(self):
        g = chain(["1"])
        assert g.capital_rising_falling("v0", "v1") == (IntPoly.monomial(1), IntPoly.monomial(1))

    def test_reachable_vertex_with_no_rising_or_falling_path(self):
        # x -2-> a -3-> b -1-> y: the one path to y rises, then falls; w -1-> z
        # lies apart, so z is out of x's reach
        g = LabeledDigraph(
            ["x", "a", "b", "y", "w", "z"],
            [("x", "a", 2), ("a", "b", 3), ("b", "y", 1), ("w", "z", 1)],
            LinearRelation([1, 2, 3]),
        )
        zero = IntPoly.zero()
        assert g.ab_index("x", "y") == AbPoly.monomial("ab")
        assert g.rising_falling("x", "b") == (IntPoly.monomial(1), zero)
        assert g.rising_falling("x", "y") == (zero, zero)
        assert g.capital_rising_falling("x", "y") == (zero, zero)
        assert capital_rising_falling_from(g, "x")["y"] == (zero, zero)
        assert "z" not in capital_rising_falling_from(g, "x")
        for read in (g.rising_falling, g.capital_rising_falling):
            with pytest.raises(NoPath):
                read("x", "z")

    def test_capitals_from_one_sweep_match_per_pair_calls(self, all_fixture_graphs):
        # the whole S4 graph holds every S4 interval [x, y]; its cover graph too
        bg = bruhat_graph_sn(4)
        top = max(bg.lengths, key=bg.lengths.get)
        graphs = [*all_fixture_graphs.values(), bg.graph, bg.cover_interval(bg.identity, top)]
        for g in graphs:
            for x in g.vertices:
                capitals = capital_rising_falling_from(g, x)
                assert set(capitals) == {y for y in g.vertices if g.leq(x, y)}
                for y, pair in capitals.items():
                    assert pair == g.capital_rising_falling(x, y)


class TestBalance:
    def test_fig1_graphs(self, graph_fig1_left, graph_fig1_right):
        rep = graph_fig1_left.is_balanced()
        assert rep.balanced and rep.cd_index == parse_cd("2*c + 3")
        rep = graph_fig1_right.is_balanced()
        assert rep.balanced and rep.cd_index == parse_cd("5*d")

    def test_fig2_both_relations(self, graph_fig2_i, graph_fig2_ii):
        rep_i = graph_fig2_i.is_balanced()
        assert rep_i.balanced and rep_i.cd_index == parse_cd("d")
        rep_ii = graph_fig2_ii.is_balanced()
        assert rep_ii.balanced and rep_ii.cd_index == parse_cd("cc - d")

    def test_unbalanced_chain_witness(self):
        g = chain(["2", "1"])
        rep = g.is_balanced()
        assert not rep.balanced
        assert rep.witness == ("v0", "v2", 2, 0, 1)
        assert rep.cd_index is None

    def test_b3_balanced(self, graph_b3):
        rep = graph_b3.is_balanced()
        assert rep.balanced
        # one rising and one falling chain in a boolean lattice labeling
        r, f = graph_b3.rising_falling("0", "123")
        assert r == f == IntPoly((0, 0, 1))

    def test_equivalence_report(self, graph_fig1_left):
        rep = graph_fig1_left.check_balance_equivalence()
        assert rep.per_length and rep.even_length and rep.cd_span

    def test_equivalence_unbalanced(self):
        rep = chain(["2", "1"]).check_balance_equivalence()
        assert not rep.per_length and not rep.even_length and not rep.cd_span

    def test_equivalence_on_a_long_rising_chain(self):
        # each interval's ab-index is a lone word a^k, which ab_to_cd rejects
        # without expanding its 2^k - 1 term residual
        g = chain(list(range(40)))
        start = time.perf_counter()
        rep = g.check_balance_equivalence()
        assert time.perf_counter() - start < 1.0
        assert (rep.per_length, rep.even_length, rep.cd_span) == (False, False, False)


class TestCoalgebraHomomorphism:
    def test_all_fixture_intervals(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            for x in g.vertices:
                for y in g.vertices:
                    if x == y or not g.leq(x, y):
                        continue
                    lhs = coproduct(g.ab_index(x, y))
                    rhs = TensorPoly.zero()
                    for z in g.vertices:
                        if z != x and z != y and g.leq(x, z) and g.leq(z, y):
                            rhs = rhs + TensorPoly.tensor(
                                g.ab_index(x, z), g.ab_index(z, y)
                            )
                    assert lhs == rhs


class TestStanleyProduct:
    def test_single_edges(self):
        g = stanley_product(chain(["1"]), chain(["1"]))
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        assert g.ab_index(g.zero_hat(), g.one_hat()) == AbPoly.one()

    def test_identity_factor(self, graph_fig1_left):
        g = stanley_product(graph_fig1_left, chain(["1"]))
        psi = g.ab_index(g.zero_hat(), g.one_hat())
        assert psi == graph_fig1_left.ab_index("0", "1")

    def test_fig1_pair(self, graph_fig1_left, graph_fig1_right):
        g = stanley_product(graph_fig1_left, graph_fig1_right)
        psi = g.ab_index(g.zero_hat(), g.one_hat())
        expected = graph_fig1_left.ab_index("0", "1") * graph_fig1_right.ab_index(
            "0", "1"
        )
        assert psi == expected
        assert psi == g.ab_index_by_paths(g.zero_hat(), g.one_hat())

    def test_multiplicative_on_fixture_pairs(self, all_fixture_graphs):
        graphs = list(all_fixture_graphs.values())
        for g in graphs:
            for h in graphs:
                prod = stanley_product(g, h)
                assert prod.ab_index(prod.zero_hat(), prod.one_hat()) == g.ab_index(
                    g.zero_hat(), g.one_hat()
                ) * h.ab_index(h.zero_hat(), h.one_hat())

    def test_requires_bounded(self, graph_fig1_left):
        g = LabeledDigraph(
            ["x", "y", "z"],
            [("x", "z", "1"), ("y", "z", "1")],
            LinearRelation(["1"]),
        )
        with pytest.raises(Unbounded):
            stanley_product(g, graph_fig1_left)

    def test_requires_nontrivial(self, graph_fig1_left):
        point = LabeledDigraph(["x"], [], LinearRelation([]))
        with pytest.raises(Unbounded):
            stanley_product(point, graph_fig1_left)


class TestCartesianProduct:
    def test_capital_r_multiplicative(self, graph_fig1_left, graph_b3):
        g, h = graph_fig1_left, graph_b3
        prod = cartesian_product(g, h)
        for (x, z) in [("0", "0"), ("0", "1")]:
            for (y, w) in [("1", "123"), ("m1", "123")]:
                Rg, Fg = g.capital_rising_falling(x, y)
                Rh, Fh = h.capital_rising_falling(z, w)
                Rp, Fp = prod.capital_rising_falling((x, z), (y, w))
                assert Rp == Rg * Rh
                assert Fp == Fg * Fh

    def test_one_vertex_factor_isomorphic(self, graph_fig1_left):
        point = LabeledDigraph(["pt"], [], LinearRelation([]))
        prod = cartesian_product(graph_fig1_left, point)
        assert sorted(prod.vertices) == sorted(
            (v, "pt") for v in graph_fig1_left.vertices
        )
        stripped = sorted(
            (e.tail[0], e.head[0], e.label[1]) for e in prod.edges
        )
        assert stripped == sorted(
            (e.tail, e.head, e.label) for e in graph_fig1_left.edges
        )

    def test_relation_on_the_used_labels(self, graph_fig1_left, graph_b3):
        g, h = graph_fig1_left, graph_b3
        for prod in (cartesian_product(g, h), stanley_product(g, h)):
            assert prod.relation.labels <= {e.label for e in prod.edges}
        prod = cartesian_product(g, h)
        used = {e.label for e in prod.edges}
        assert len(used) == len({e.label for e in g.edges}) + len({e.label for e in h.edges})
        for l in used:
            for m in used:
                own = g.relation if l[0] == "G" else h.relation
                expected = l[0] < m[0] or (l[0] == m[0] and own.related(l[1], m[1]))
                assert prod.relation.related(l, m) == expected

    def test_acyclic_and_balanced_product(self, graph_fig2_i):
        prod = cartesian_product(graph_fig2_i, graph_fig2_i)
        assert prod.is_balanced().balanced


def stanley_by_branches(g, h) -> tuple:
    """Oracle: the Stanley product's parts, one edge loop each, four-branch relation."""
    g_top, h_bot = g.one_hat(), h.zero_hat()
    vertices = [("G", v) for v in g.vertices if v != g_top]
    vertices += [("H", v) for v in h.vertices if v != h_bot]
    edges = []
    for e in g.edges:
        if e.head != g_top:
            edges.append((("G", e.tail), ("G", e.head), ("G", e.label)))
    for e in g.edges:
        if e.head == g_top:
            for f in h.edges:
                if f.tail == h_bot:
                    edges.append((("G", e.tail), ("H", f.head), ("GH", e.label, f.label)))
    for f in h.edges:
        if f.tail != h_bot:
            edges.append((("H", f.tail), ("H", f.head), ("H", f.label)))

    def related(l, m) -> bool:
        if l[0] == "G" and m[0] == "G":
            return g.relation.related(l[1], m[1])
        if l[0] == "G" and m[0] == "GH":
            return g.relation.related(l[1], m[1])
        if l[0] == "GH" and m[0] == "H":
            return h.relation.related(l[2], m[1])
        if l[0] == "H" and m[0] == "H":
            return h.relation.related(l[1], m[1])
        return False

    return vertices, edges, related


def cartesian_by_branches(g, h) -> tuple:
    """Oracle: the box product's parts, one edge loop each, three-branch relation."""
    vertices = [(x, z) for x in g.vertices for z in h.vertices]
    edges = []
    for x in g.vertices:
        for f in h.edges:
            edges.append(((x, f.tail), (x, f.head), ("H", f.label)))
    for e in g.edges:
        for z in h.vertices:
            edges.append(((e.tail, z), (e.head, z), ("G", e.label)))

    def related(l, m) -> bool:
        if l[0] == "G" and m[0] == "G":
            return g.relation.related(l[1], m[1])
        if l[0] == "G" and m[0] == "H":
            return True
        if l[0] == "H" and m[0] == "H":
            return h.relation.related(l[1], m[1])
        return False

    return vertices, edges, related


class TestProductsAgainstBranches:
    @pytest.mark.parametrize(
        "product, oracle",
        [(stanley_product, stanley_by_branches), (cartesian_product, cartesian_by_branches)],
        ids=["stanley", "cartesian"],
    )
    def test_every_ordered_pair(self, all_fixture_graphs, product, oracle):
        from cdindex.construct import butterfly

        graphs = [*all_fixture_graphs.values()] + [butterfly(k) for k in range(3)]
        for g in graphs:
            for h in graphs:
                prod = product(g, h)
                vertices, edges, related = oracle(g, h)
                labels = {label for _, _, label in edges}
                pairs = {(l, m) for l in labels for m in labels if related(l, m)}
                assert prod.vertices == tuple(vertices)
                assert [tuple(e[:3]) for e in prod.edges] == edges
                assert prod.relation.to_json()["pairs"] == sorted(map(list, pairs))
                expected = LabeledDigraph(vertices, edges, PairsRelation(pairs))
                assert prod.topological_order == expected.topological_order


class TestDual:
    def test_involution(self, graph_fig1_left):
        g = dual(dual(graph_fig1_left))
        assert set(g.vertices) == set(graph_fig1_left.vertices)
        assert sorted((e.tail, e.head, e.label) for e in g.edges) == sorted(
            (e.tail, e.head, e.label) for e in graph_fig1_left.edges
        )

    def test_fig1_star(self, graph_fig1_left):
        g = dual(graph_fig1_left)
        psi = graph_fig1_left.ab_index("0", "1")
        assert g.ab_index("1", "0") == star(psi)

    def test_star_on_all_fixture_intervals(self, all_fixture_graphs):
        for g in all_fixture_graphs.values():
            gd = dual(g)
            for x in g.vertices:
                for y in g.vertices:
                    if x != y and g.leq(x, y):
                        assert gd.ab_index(y, x) == star(g.ab_index(x, y))

    def test_two_edge_chain(self):
        g = chain(["1", "2"])
        assert g.ab_index("v0", "v2") == AbPoly.monomial("a")
        gd = dual(g)
        # reversing both the arrows and the order relation preserves ascents
        assert gd.ab_index("v2", "v0") == AbPoly.monomial("a")


class TestDpOracle:
    def test_dp_equals_brute_force_small_random(self, rng):
        from cdindex.construct import random_labeled_dag

        for _ in range(60):
            g = random_labeled_dag(rng, max_vertices=9)
            x, y = g.zero_hat(), g.one_hat()
            assert g.ab_index(x, y) == g.ab_index_by_paths(x, y)

    def test_equivalence_on_random_graphs(self, rng):
        from cdindex.construct import random_labeled_dag

        verdicts = set()
        for _ in range(50):
            g = random_labeled_dag(rng, max_vertices=8)
            rep = g.check_balance_equivalence()
            verdicts.add(rep.per_length)
            assert rep.per_length == rep.even_length == rep.cd_span
        assert verdicts  # at least evaluated

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_equivalence_in_small_chunks(self, rng, chunk):
        from cdindex.construct import random_labeled_dag

        verdicts = set()
        with mock.patch.object(digraph_mod, "_CHUNK", chunk):
            for _ in range(50):
                g = random_labeled_dag(rng, max_vertices=8)
                rep = g.check_balance_equivalence()
                assert rep.per_length == rep.even_length == rep.cd_span == (
                    brute_force_witness(g) is None
                )
                verdicts.add(rep.per_length)
        assert verdicts == {True, False}


@st.composite
def random_dags(draw):
    """A small random DAG, half the time extended by a 70-edge chain.

    Edges point from lower to higher vertex index and may be drawn twice,
    so parallel edges occur; the relation is a linear order or an arbitrary
    set of label pairs.  The chain hangs off the last vertex and gives
    descent words longer than 64 letters.
    """
    n = draw(st.integers(1, 6))
    labels = ["p", "q", "r"][: draw(st.integers(1, 3))]
    drawn = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(labels),
                st.integers(1, 2),
            ),
            max_size=10,
        )
    )
    vertices = [f"u{i}" for i in range(n)]
    edges = [
        (vertices[min(i, j)], vertices[max(i, j)], label)
        for i, j, label, copies in drawn
        if i != j
        for _ in range(copies)
    ]
    if draw(st.booleans()):
        tail = draw(st.lists(st.sampled_from(labels), min_size=70, max_size=70))
        path = [vertices[-1]] + [f"c{i}" for i in range(1, 71)]
        vertices += path[1:]
        edges += [(path[i], path[i + 1], label) for i, label in enumerate(tail)]
    if draw(st.booleans()):
        relation = LinearRelation(draw(st.permutations(labels)))
    else:
        all_pairs = [(l, m) for l in labels for m in labels]
        relation = PairsRelation(draw(st.lists(st.sampled_from(all_pairs), unique=True)))
    return LabeledDigraph(vertices, edges, relation)


class TestIntWordKernel:
    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_every_interval_matches_brute_force(self, g):
        for x in g.vertices:
            psi = g.ab_index_from(x)
            assert set(psi) == set(g.vertices)
            for v in g.vertices:
                if g.leq(x, v):
                    assert psi[v] == g.ab_index_by_paths(x, v)
                    assert AbPoly(psi[v].terms) == psi[v]
                else:
                    assert psi[v] == AbPoly.zero()
        if "c70" in g.vertices:
            junction = in_edges(g, "c1")[0].tail
            assert [len(w) for w, _ in g.ab_index(junction, "c70").items()] == [69]

    def test_leading_a_letters_survive(self):
        # a is the 0 bit; the path length in the key keeps leading a's apart
        # from the empty word
        g = chain(["1", "2", "3", "1"])
        assert g.ab_index("v0", "v1") == AbPoly.one()
        assert g.ab_index("v0", "v3") == AbPoly.monomial("aa")
        assert g.ab_index("v0", "v4") == AbPoly.monomial("aab")


def ladder(steps, relation=None) -> LabeledDigraph:
    """v0 -> v1 -> ... with one bundle of parallel edges per step, one per label."""
    vertices = [f"v{i}" for i in range(len(steps) + 1)]
    edges = [
        (f"v{i}", f"v{i + 1}", label) for i, labels in enumerate(steps) for label in labels
    ]
    if relation is None:
        relation = LinearRelation(sorted({label for labels in steps for label in labels}))
    return LabeledDigraph(vertices, edges, relation)


def traced_peak(fn):
    """fn() and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPathEnumeration:
    """``paths`` and what reads them against the zip walk and one descent word per path."""

    BATCHES = [digraph_mod._PATH_BATCH, 1, 2, 3]

    @staticmethod
    def assert_matches_oracles(g, pairs):
        swept = {}  # x -> the sweep's ab-index of [x, v] for every v, zero where v is not above x
        for x, y in pairs:
            paths = list(g.paths(x, y))
            assert paths == list(paths_by_zip_walk(g, x, y))
            for path in paths:
                word = descent_word(g, path)
                assert g.is_rising(path) == ("b" not in word)
                assert g.is_falling(path) == ("a" not in word)
            psi = g.ab_index_by_paths(x, y)
            assert psi == ab_index_by_descent_words(g, x, y)
            if x not in swept:
                swept[x] = g.ab_index_from(x)
            assert psi == swept[x][y]

    @pytest.mark.parametrize("batch", BATCHES)
    def test_every_ordered_pair_of_the_fixtures(self, all_fixture_graphs, batch):
        # unreachable pairs and x == y included: both have no path
        with mock.patch.object(digraph_mod, "_PATH_BATCH", batch):
            for g in all_fixture_graphs.values():
                self.assert_matches_oracles(g, [(x, y) for x in g.vertices for y in g.vertices])

    @settings(max_examples=15, deadline=None)
    @given(random_dags(), st.sampled_from(BATCHES))
    def test_random_dags(self, g, batch):
        with mock.patch.object(digraph_mod, "_PATH_BATCH", batch):
            self.assert_matches_oracles(g, [(x, y) for x in g.vertices for y in g.vertices])

    @pytest.mark.parametrize("batch", BATCHES)
    def test_paths_of_two_lengths_across_a_batch(self, batch):
        # 4,096 paths of 12 edges and 2,048 of 13
        g = realize(parse_cd("cccccccccccc + ccccccccccc"))
        ends = g.zero_hat(), g.one_hat()
        assert sum(1 for _ in g.paths(*ends)) == 6144
        with mock.patch.object(digraph_mod, "_PATH_BATCH", batch):
            self.assert_matches_oracles(g, [ends])

    def test_related_is_asked_once_per_pair_of_labels(self):
        # three letters from two distinct pairs, and a word a swap of a and b changes
        g = chain(["1", "2", "1", "2"])
        calls = []
        related = g.relation.related

        def counting(x, y):
            calls.append((x, y))
            return related(x, y)

        with mock.patch.object(g.relation, "related", counting):
            psi = g.ab_index_by_paths("v0", "v4")
        assert psi == parse_ab("aba") == g.ab_index("v0", "v4")
        assert sorted(calls) == [("1", "2"), ("2", "1")]

    def test_memory_stays_within_the_oracle(self):
        # 65,536 paths: the batches keep the peak near the oracle's, which
        # holds one path and its word at a time
        g = realize(parse_cd("c" * 16))
        ends = g.zero_hat(), g.one_hat()
        g.edges  # the Edge tuples are built before either peak is read
        want, oracle_peak = traced_peak(lambda: ab_index_by_descent_words(g, *ends))
        got, peak = traced_peak(lambda: g.ab_index_by_paths(*ends))
        assert got == want
        assert peak <= 1.5 * oracle_peak, (peak, oracle_peak)


class TestPackedTables:
    """The sweep packs many ab-word counts into one int per (length, high letters)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_chains_longer_than_the_packed_letters(self, seed):
        rng = random.Random(seed)
        labels = [rng.choice("1234") for _ in range(3 * _LOW)]
        g = chain(labels)
        psi = g.ab_index_from("v0")
        for i in range(1, len(labels) + 1):
            assert psi[f"v{i}"] == g.ab_index_by_paths("v0", f"v{i}")
        (word, _), = psi[f"v{len(labels)}"].items()
        assert len(word) == len(labels) - 1 > _LOW

    @pytest.mark.parametrize("steps", [16, 17])
    def test_lo_hi_ladders(self, steps):
        # 2^steps paths; a descent is 2 -> 1, so the words are those of
        # steps - 1 letters without bb, a Fibonacci number of them
        g = ladder([["1", "2"]] * steps)
        psi = g.ab_index("v0", f"v{steps}")
        assert psi == g.ab_index_by_paths("v0", f"v{steps}")
        assert sum(c for _, c in psi.items()) == 2 ** steps
        assert len(psi.items()) == {16: 1597, 17: 2584}[steps]

    def test_ladder_with_mixed_bundles(self):
        rng = random.Random(7)
        steps = [rng.sample("12345", rng.choice((1, 2, 2, 3))) for _ in range(18)]
        g = ladder(steps)
        for x in ("v0", "v3"):
            psi = g.ab_index_from(x)
            for v in g.vertices:
                if g.leq(x, v):
                    assert psi[v] == g.ab_index_by_paths(x, v)

    def test_pairs_relation_ladder(self):
        # x ~ y and y ~ x but neither label is related to itself
        g = ladder([["x", "y"]] * 16, PairsRelation([("x", "y"), ("y", "x")]))
        psi = g.ab_index_from("v0")
        for v in ("v1", "v2", "v11", "v12", "v16"):
            assert psi[v] == g.ab_index_by_paths("v0", v)
        assert len(psi["v16"].items()) == 2 ** 15
        r, f = g.rising_falling("v0", "v16")
        assert r.coefficient(15) == psi["v16"].coefficient("a" * 15) == 2
        assert f.coefficient(15) == psi["v16"].coefficient("b" * 15) == 2

    @pytest.mark.parametrize("count", [255, 256, 65535, 65536])
    def test_counts_on_a_slot_width_boundary(self, count):
        # one word carrying every path, and a split between two words
        whole = ladder([["3"] * count, ["1"]])
        assert whole.ab_index("v0", "v2") == AbPoly({"b": count})
        half = count // 2
        split = ladder([["2"], ["3"] * half + ["1"] * (count - half), ["2"]])
        psi = split.ab_index("v0", "v3")
        assert psi == AbPoly({"ab": half, "ba": count - half})
        if count <= 256:
            assert psi == split.ab_index_by_paths("v0", "v3")

    @pytest.mark.parametrize("count", [255, 256, 65535, 65536])
    def test_bundle_product_on_a_slot_width_boundary(self, count):
        # count = p*q paths through a bundle of p and a mixed bundle of q
        p = next(d for d in (255, 256, 257) if count % d == 0)
        q = count // p
        g = ladder([["3"] * p, ["1"] * (q // 2) + ["4"] * (q - q // 2)])
        expected = AbPoly({"b": p * (q // 2), "a": p * (q - q // 2)})
        assert g.ab_index("v0", "v2") == expected == g.ab_index_by_paths("v0", "v2")

    def test_too_narrow_slots_are_caught(self):
        # 256 descents and 256 ascents: a one-byte slot for "a" carries into "b"
        g = ladder([["2"] * 256, ["1", "3"]])

        def packed(width):
            end = g.topological_order.index("v2")
            (table,) = (t for p, t in digraph_mod._sweep(g._out, g._masks, 0, width) if p == end)
            return digraph_mod._sums(table)[0]

        with pytest.raises(InternalError):
            g._decode(packed(8), 8, 512)
        with pytest.raises(InternalError):
            g._decode(packed(16), 16, 511)
        assert g._decode(packed(16), 16, 512) == AbPoly({"a": 256, "b": 256})

    def test_width_from_the_vertices_up_to_the_target(self):
        # 4 paths to v2, then 1,200 and 360,000 paths past it
        g = ladder([["1", "2"], ["1", "2"], ["3"] * 300, ["1"] * 300])

        def slot_width(largest):  # the largest count's bit length in whole bytes
            return (largest.bit_length() + 7) & -8

        end = g.topological_order.index("v2")
        counts, largest = digraph_mod._path_counts(g._out, 0, end)
        assert (counts[end], slot_width(largest)) == (4, 8)
        assert slot_width(digraph_mod._path_counts(g._out, 0)[1]) == 24
        assert g.ab_index("v0", "v2") == g.ab_index_by_paths("v0", "v2")
        assert g.ab_index("v0", "v3") == g.ab_index_by_paths("v0", "v3")
        with pytest.raises(NoPath):
            g.ab_index("v2", "v1")

    def test_long_descending_chain_is_one_term(self):
        n = 1200
        g = LabeledDigraph(
            range(n + 1), [(i, i + 1, n - i) for i in range(n)], LinearRelation(range(1, n + 1))
        )
        psi, peak = traced_peak(lambda: g.ab_index(0, n))
        assert psi == AbPoly.monomial("b" * (n - 1))
        assert peak < 1 << 20

    def test_descending_ladder_of_two_to_the_sixty_paths(self):
        n = 60
        g = ladder([[2 * (n - i), 2 * (n - i) + 1] for i in range(n)])
        psi, peak = traced_peak(lambda: g.ab_index("v0", f"v{n}"))
        assert psi == AbPoly({"b" * (n - 1): 2 ** n})
        assert peak < 1 << 20


def length_counts(paths) -> dict:
    counts: dict = {}
    for p in paths:
        counts[len(p)] = counts.get(len(p), 0) + 1
    return counts


def length_poly(paths) -> IntPoly:
    """Sum of q^(len-1) over the given paths."""
    counts = length_counts(paths)
    return IntPoly(counts.get(k, 0) for k in range(1, max(counts, default=0) + 1))


def brute_force_witness(g):
    """Oracle: the first (x, y, length) in topological order with r != f."""
    for x in g.topological_order:
        for y in g.topological_order:
            if x == y:
                continue
            paths = list(g.paths(x, y))
            r = length_counts(filter(g.is_rising, paths))
            f = length_counts(filter(g.is_falling, paths))
            for k in sorted(r.keys() | f.keys()):
                if r.get(k, 0) != f.get(k, 0):
                    return (x, y, k, r.get(k, 0), f.get(k, 0))
    return None


def assert_witness_is_brute_force(g):
    report = g.is_balanced()
    witness = brute_force_witness(g)
    assert report.balanced == (witness is None)
    if witness is not None:
        assert tuple(report.witness) == witness


def reachable_pairs(g):
    return [(x, y) for x in g.vertices for y in g.vertices if x != y and g.leq(x, y)]


class TestRisingFallingSweep:
    @settings(max_examples=40, deadline=None)
    @given(random_dags())
    def test_kept_ab_index_reads_match_the_sweep(self, g):
        pairs = reachable_pairs(g)  # up to 2,700 with the chain: every k-th, about 200
        assert_kept_reads_match_sweeps(g, pairs[:: 1 + len(pairs) // 200])

    def test_kept_ab_index_reads_match_the_sweep_on_realized_graphs(self):
        for text in ("2*c + 3", "cc + d", "ccc + 2*d", "dcd + 2*cdd + c"):
            g = realize(parse_cd(text))
            labels = g.relation.order
            pairs = PairsRelation((l, m) for l in labels for m in labels if g.relation.related(l, m))
            for h in (g, LabeledDigraph(g.vertices, [e[:3] for e in g.edges], pairs)):
                assert_kept_reads_match_sweeps(h, reachable_pairs(h))

    @settings(max_examples=40, deadline=None)
    @given(random_dags())
    def test_counts_match_path_enumeration(self, g):
        for x, y in reachable_pairs(g):
            paths = list(g.paths(x, y))
            assert g.rising_falling(x, y) == (
                length_poly(filter(g.is_rising, paths)),
                length_poly(filter(g.is_falling, paths)),
            )

    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_witness_matches_brute_force(self, g):
        assert_witness_is_brute_force(g)

    @settings(max_examples=40, deadline=None)
    @given(random_dags())
    def test_equivalence_matches_brute_force(self, g):
        rep = g.check_balance_equivalence()
        assert rep.per_length == rep.even_length == rep.cd_span == (brute_force_witness(g) is None)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(g=random_dags())
    # v0's four rising 2-paths to v2 fill the top bit of a field as wide as N(v2) = 7
    @example(g=ladder([["p", "p"]] * 2))
    def test_witness_matches_brute_force_in_small_chunks(self, chunk, g):
        # every graph of more than chunk + 2 vertices spans several sweeps
        with mock.patch.object(digraph_mod, "_CHUNK", chunk):
            assert_witness_is_brute_force(g)

    def test_lowest_source_of_a_chunk_wins(self):
        # a and b share the first sweep.  [b, y] holds one rising 2-path and
        # y comes before z, the end of a's first unbalanced interval [a, z]:
        # a rising 3-path (1, 2, 3) and none falling
        g = LabeledDigraph(
            ["a", "b", "p", "q", "w", "z", "m", "y"],
            [
                ("a", "p", "1"), ("a", "q", "2"), ("p", "w", "2"), ("q", "w", "1"),
                ("w", "z", "3"), ("b", "m", "1"), ("m", "y", "2"),
            ],
            LinearRelation(["1", "2", "3"]),
        )
        topo = g.topological_order
        assert topo[:2] == ("a", "b") and topo.index("y") < topo.index("z")
        assert tuple(g.is_balanced().witness) == ("a", "z", 3, 1, 0) == brute_force_witness(g)

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """One entry per kernel call while the test runs: ("_sweep", start, count) for a sweep."""
        calls = []
        path_counts, sweep = digraph_mod._path_counts, digraph_mod._sweep

        def counted_path_counts(out, *args):
            calls.append(("_path_counts",))
            return path_counts(out, *args)

        def counted_sweep(out, masks, start, width=0, count=1, block=0):
            calls.append(("_sweep", start, count))
            return sweep(out, masks, start, width, count, block)

        monkeypatch.setattr(digraph_mod, "_path_counts", counted_path_counts)
        monkeypatch.setattr(digraph_mod, "_sweep", counted_sweep)
        return calls

    def test_two_vertices_sweep_nothing(self, sweeps):
        # every path from the second-to-last position is one edge, which
        # both rises and falls: neither it nor the sink is a source
        g = LabeledDigraph(
            ["x", "y"], [("x", "y", "2"), ("x", "y", "1")], LinearRelation(["1", "2"])
        )
        assert g.is_balanced().balanced
        assert sweeps == []

    def test_three_vertices_sweep_one_source(self, sweeps):
        # the rising chain, and the balanced pair of 2-paths (1, 1) and (2, 1)
        balanced = LabeledDigraph(
            ["v0", "v1", "v2"],
            [("v0", "v1", "1"), ("v0", "v1", "2"), ("v1", "v2", "1")],
            LinearRelation(["1", "2"]),
        )
        for g, witness in ((chain(["1", "2"]), ("v0", "v2", 2, 1, 0)), (balanced, None)):
            sweeps.clear()
            report = g.is_balanced()
            assert (report.witness and tuple(report.witness)) == witness
            assert sweeps == [("_path_counts",), ("_sweep", 0, 1)]

    def test_witness_at_the_last_source(self):
        # u and v reach z by one edge each; the one unbalanced interval,
        # [x, z], starts at position len - 3, the last source
        g = LabeledDigraph(
            ["u", "v", "x", "y", "z"],
            [("u", "z", "1"), ("v", "z", "2"), ("x", "y", "1"), ("y", "z", "2")],
            LinearRelation(["1", "2"]),
        )
        assert g.topological_order.index("x") == len(g.vertices) - 3
        expected = ("x", "z", 2, 1, 0)
        assert tuple(g.is_balanced().witness) == expected == brute_force_witness(g)
        for chunk in (1, 2):
            with mock.patch.object(digraph_mod, "_CHUNK", chunk):
                assert tuple(g._balance_witness()) == expected
        rep = g.check_balance_equivalence()
        assert not (rep.per_length or rep.even_length or rep.cd_span)

    @pytest.mark.parametrize("related", ["alternating", "all"])
    def test_fields_near_their_width(self, related):
        # the ladder of 16 doubling rungs: 2**k paths from v0 to vk, and with
        # every label related to every label all of them rise.  v0 .. v16
        # share one sweep with 17-bit fields, and v0's count of rising
        # 16-paths fills the top bit of its field
        pairs = [("x", "y"), ("y", "x")] if related == "alternating" else [
            (l, m) for l in "xy" for m in "xy"
        ]
        g = ladder([["x", "y"]] * 16, PairsRelation(pairs))
        topo = g.topological_order
        counts, largest = digraph_mod._path_counts(g._out)
        block = largest.bit_length()
        assert counts[topo.index("v16")] == largest == 2 ** 17 - 1
        assert topo[0] == "v0" and block == 17
        fields = 0
        for p, table in digraph_mod._sweep(g._out, g._masks, 0, count=17, block=block):
            for i, x in enumerate(topo[:p]):
                r, f = (
                    IntPoly({k - 1: c >> block * i & (1 << block) - 1 for k, c in t.items()})
                    for t in digraph_mod._sums(table)
                )
                assert (r, f) == g.rising_falling(x, topo[p])
                fields += 1
        assert fields == 16 * 17 // 2
        if related == "all":
            assert g.rising_falling("v0", "v16")[0].coefficient(15) == 2 ** 16
        expected = witness_by_pairs(g)
        assert expected == (None if related == "alternating" else ("v0", "v2", 2, 4, 0))
        for chunk in (1, 2, 3, 64):
            with mock.patch.object(digraph_mod, "_CHUNK", chunk):
                witness = g._balance_witness()
            assert (witness and tuple(witness)) == expected

    def test_a_count_filling_the_top_bit_of_its_field(self):
        # s and y, the sources, share one sweep.  N(t) = 2**16 + 3 gives
        # 17-bit fields, and the 2**16 rising 2-paths from s to z fill the
        # top bit of s's field: one bit less would carry them into y's
        m = 2 ** 16
        g = LabeledDigraph(
            ["s", "y", "z", "t"],
            [("s", "y", "1")] * m + [("y", "z", "2"), ("z", "t", "3")],
            LinearRelation(["1", "2", "3"]),
        )
        assert g.topological_order == ("s", "y", "z", "t")
        assert digraph_mod._path_counts(g._out)[1].bit_length() == 17
        assert tuple(g.is_balanced().witness) == ("s", "z", 2, m, 0)

    def test_witness_is_first_length(self):
        # [s, c] is balanced (one rising, one falling 2-path); [s, y] has one
        # more rising 2-path (via a) and one more falling 3-path (via b2, c)
        g = LabeledDigraph(
            ["s", "a", "b", "b2", "c", "y"],
            [
                ("s", "a", "1"), ("a", "y", "2"),
                ("s", "b", "1"), ("b", "c", "2"),
                ("s", "b2", "2"), ("b2", "c", "1"),
                ("c", "y", "0"),
            ],
            LinearRelation(["0", "1", "2"]),
        )
        assert tuple(g.is_balanced().witness) == ("s", "y", 2, 1, 0) == brute_force_witness(g)
        assert g.rising_falling("s", "y") == (IntPoly((0, 1)), IntPoly((0, 0, 1)))

    def test_report_is_computed_once(self, graph_b3):
        unbalanced = chain(["2", "1"])
        for g in (graph_b3, unbalanced):
            assert g.is_balanced() is g.is_balanced()

    def test_memos_form_no_reference_cycle(self):
        g = fig3_b3()
        report = g.is_balanced()
        assert report.balanced and report.cd_index == parse_cd("cc + d")
        assert g.out_edges("0") == tuple(e for e in g.edges if e.tail == "0")
        sub = g.interval("1", "123")
        # a subgraph starts with none of its parent's memos
        assert vars(sub).get("_balance") is None and vars(sub).get("_view") is None
        assert sub.is_balanced() is not report
        ref = weakref.ref(g)
        enabled = gc.isenabled()
        gc.disable()  # a cycle would then outlive the del below
        try:
            del g
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_cd_index_is_computed_on_first_read(self, graph_fig1_left, monkeypatch):
        import cdindex.digraph as digraph_mod

        calls = []

        def counting_ab_to_cd(p):
            calls.append(p)
            return ab_to_cd(p)

        monkeypatch.setattr(digraph_mod, "ab_to_cd", counting_ab_to_cd)
        rep = graph_fig1_left.is_balanced()
        assert rep.balanced and not calls
        assert rep.cd_index == parse_cd("2*c + 3")
        assert rep.cd_index is rep.cd_index
        assert len(calls) == 1
        unbounded = LabeledDigraph(
            ["s1", "s2", "t"], [("s1", "t", "1"), ("s2", "t", "1")], LinearRelation(["1"])
        )
        assert unbounded.is_balanced().balanced
        assert unbounded.is_balanced().cd_index is None
        assert len(calls) == 1

    def test_cd_index_read_keeps_no_ab_index(self, graph_fig1_left):
        # the report's graph copy gives its [source, sink] ab-index up after the read
        g = realize(parse_cd("cccc + 2*dc"))
        for graph in (g, graph_fig1_left):
            report = graph.is_balanced()
            assert report.cd_index is not None
            assert report._graph._ab is None and graph._ab is None


class TestDeepGraphs:
    """Sizes past the default recursion limit of 1000 frames."""

    N = 3000

    def test_long_cycle_reported(self):
        edges = [(i, (i + 1) % self.N, "1") for i in range(self.N)]
        with pytest.raises(CycleDetected) as exc:
            LabeledDigraph(range(self.N), edges, LinearRelation(["1"]))
        cyc = exc.value.cycle
        assert cyc[0] == cyc[-1] and len(cyc) == self.N + 1

    def test_paths_on_long_chain(self):
        g = chain(["1"] * self.N)
        (path,) = g.paths("v0", f"v{self.N}")
        assert len(path) == self.N
        assert descent_word(g, path) == "a" * (self.N - 1)

    def test_ab_index_on_long_chain(self):
        g = chain(["2", "1"] * (self.N // 2))
        expected = "ba" * (self.N // 2 - 1) + "b"
        assert g.ab_index("v0", f"v{self.N}") == AbPoly.monomial(expected)
