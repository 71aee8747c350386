"""Restricted digraphs, the parity condition, and the duality identity."""

import gc
import itertools
import random
import time
import weakref

import pytest

from cdindex import alexander
from cdindex.alexander import (
    ParityResult,
    PreconditionFailed,
    alexander_check,
    alexander_sweep,
    parity_condition,
    restrict,
)
from cdindex.construct import random_labeled_dag, realize
from cdindex.coxeter import bruhat_graph_sn
from cdindex.digraph import (
    GraphError,
    InternalError,
    LabeledDigraph,
    LinearRelation,
    NoPath,
    PairsRelation,
    Unbounded,
)
from cdindex.ncpoly import IntPoly, parse_cd

from conftest import chain, signed_path_sums_by_paths
from oracles import dual, evaluate, signed_path_sums, star

S_FIG3 = {"1", "13"}
T_FIG3 = {"2", "3", "12", "23"}
# realized cd-polynomials; their graphs have 2 to 10 interior vertices
REALIZED = ("c", "d", "cc + d", "cd + dc", "d + 2*cc", "cdc + dd")


def count_rising_paths(g, x, y):
    return sum(1 for p in g.paths(x, y) if g.is_rising(p))


def rising_ladder(n):
    """Two parallel edges per rung, labels increasing along the ladder: 2**n paths, all rising."""
    vertices = [f"v{i}" for i in range(n + 1)]
    edges = [(f"v{i}", f"v{i + 1}", 2 * i + j) for i in range(n) for j in (0, 1)]
    return LabeledDigraph(vertices, edges, LinearRelation(range(2 * n)))


def under_random_pairs(seed):
    """A seeded random graph with its labels related by a random set of pairs."""
    rng = random.Random(seed)
    g = random_labeled_dag(rng, 7)
    labels = sorted({e.label for e in g.edges})
    pairs = [(l, m) for l in labels for m in labels if rng.random() < 0.5]
    return LabeledDigraph(g.vertices, [(e.tail, e.head, e.label) for e in g.edges], PairsRelation(pairs))


def built_falling_at_minus_one(r):
    """The falling polynomial of the built G_S at -1 (zero without a path)."""
    bot, top = r.base.zero_hat(), r.base.one_hat()
    try:
        _, f = r.graph.rising_falling(bot, top)
    except NoPath:
        f = IntPoly.zero()
    return evaluate(f, -1)


class TestRestrict:
    def test_fig3_g_s(self, graph_b3):
        gs = restrict(graph_b3, S_FIG3).graph
        assert set(gs.vertices) == {"0", "1", "13", "123"}
        got = sorted((e.tail, e.head, "".join(e.label)) for e in gs.edges)
        assert got == [
            ("0", "1", "1"),
            ("1", "123", "23"),
            ("1", "13", "3"),
            ("13", "123", "2"),
        ]

    def test_fig3_g_t(self, graph_b3):
        gt = restrict(graph_b3, T_FIG3).graph
        assert set(gt.vertices) == {"0", "2", "3", "12", "23", "123"}
        got = sorted((e.tail, e.head, "".join(e.label)) for e in gt.edges)
        assert got == [
            ("0", "12", "12"),
            ("0", "2", "2"),
            ("0", "3", "3"),
            ("12", "123", "3"),
            ("2", "12", "1"),
            ("2", "23", "3"),
            ("23", "123", "1"),
            ("3", "123", "12"),
            ("3", "23", "2"),
        ]

    def test_full_interior_gives_back_graph(self, graph_b3):
        interior = set(graph_b3.vertices) - {"0", "123"}
        gs = restrict(graph_b3, interior).graph
        assert set(gs.vertices) == set(graph_b3.vertices)
        assert sorted((e.tail, e.head, e.label) for e in gs.edges) == sorted(
            (e.tail, e.head, (e.label,)) for e in graph_b3.edges
        )

    def test_rejects_endpoints(self, graph_b3):
        with pytest.raises(ValueError):
            restrict(graph_b3, {"0"})
        with pytest.raises(ValueError):
            restrict(graph_b3, {"nope"})

    def test_rising_path_counts_preserved(self, graph_b3):
        interior = sorted(set(graph_b3.vertices) - {"0", "123"})
        for k in range(len(interior) + 1):
            for subset in itertools.combinations(interior, k):
                gs = restrict(graph_b3, subset).graph
                for x in gs.vertices:
                    for y in gs.vertices:
                        if x == y:
                            continue
                        assert count_rising_paths(gs, x, y) == count_rising_paths(
                            graph_b3, x, y
                        )

    def test_falling_polynomials_fig3(self, graph_b3):
        gs = restrict(graph_b3, S_FIG3).graph
        gt = restrict(graph_b3, T_FIG3).graph
        _, f_s = gs.rising_falling("0", "123")
        _, f_t = gt.rising_falling("0", "123")
        assert f_s == IntPoly.zero()
        assert f_t == IntPoly((0, 1, 1))  # falling paths of lengths 2 and 3

    def test_concatenation_bijection(self, graph_b3):
        # falling paths of G_S correspond to base paths with ascents in T
        # and descents in S
        gs = restrict(graph_b3, S_FIG3).graph
        falling_restricted = [
            p for p in gs.paths("0", "123") if gs.is_falling(p)
        ]
        rel = graph_b3.relation.related
        matching_base = []
        for p in graph_b3.paths("0", "123"):
            asc = {e.head for e, f in zip(p, p[1:]) if rel(e.label, f.label)}
            des = {e.head for e, f in zip(p, p[1:]) if not rel(e.label, f.label)}
            if asc <= T_FIG3 and des <= S_FIG3:
                matching_base.append(p)
        assert len(falling_restricted) == len(matching_base)

    @staticmethod
    def assert_relation_is_the_listed_pairs(name, g, subsets):
        # G_S's relation against a PairsRelation listing every related pair
        rel = g.relation.related
        for subset in subsets:
            gs = restrict(g, subset).graph
            labels = gs._labels
            pairs = [(l, m) for l in labels for m in labels if rel(l[-1], m[0])]
            related = gs.relation.related
            assert [(l, m) for l in labels for m in labels if related(l, m)] == pairs, name
            assert gs._masks == PairsRelation(pairs).ascent_masks(labels), (name, sorted(subset))
            # the dual reverses the relation and keeps the labels
            flipped = dual(gs)
            assert flipped._masks == PairsRelation((m, l) for l, m in pairs).ascent_masks(flipped._labels)
            assert dual(flipped)._masks == gs._masks

    def test_relation_is_the_listed_pairs(self, graph_b3, graph_fig1_left, graph_fig1_right,
                                          graph_fig2_i, graph_fig2_ii):
        # every split of a graph with at most 256 (the fixtures and the S4
        # intervals of length at most 3), else 256 seeded ones: the S4
        # intervals of length 4 have 53,248 splits, seconds of G_S builds
        for name, g in (
            ("fig3_b3", graph_b3),
            ("fig1_left", graph_fig1_left),
            ("fig1_right", graph_fig1_right),
            ("fig2_relation_i", graph_fig2_i),
            ("fig2_relation_ii", graph_fig2_ii),
            *bruhat_intervals(4, 4),
        ):
            subsets = all_subsets(g)
            if len(subsets) > 256:
                subsets = random.Random(name).sample(subsets, 256)
            self.assert_relation_is_the_listed_pairs(name, g, subsets)

    def test_dual_and_repr(self, graph_b3):
        gs = restrict(graph_b3, S_FIG3).graph
        for g in (gs, dual(gs), dual(dual(gs))):
            assert " at 0x" not in repr(g)
        # G_S lists its relation as pairs over its labels: (l, m) for each l[-1] ~ m[0]
        assert repr(gs.relation) == (
            "PairsRelation([(('1',), ('1',)), (('1',), ('2',)), (('1',), ('2', '3')), "
            "(('1',), ('3',)), (('2',), ('2',)), (('2',), ('2', '3')), (('2',), ('3',)), "
            "(('2', '3'), ('3',)), (('3',), ('3',))])"
        )
        # the dual lists its relation as pairs over G_S's labels: (m, l) for each l ~ m
        assert repr(dual(gs).relation) == (
            "PairsRelation([(('1',), ('1',)), (('2',), ('1',)), (('2',), ('2',)), "
            "(('2', '3'), ('1',)), (('2', '3'), ('2',)), (('3',), ('1',)), "
            "(('3',), ('2',)), (('3',), ('2', '3')), (('3',), ('3',))])"
        )
        # the dual's paths are the reversed paths, with their descent words reversed
        assert dual(gs).ab_index("123", "0") == star(gs.ab_index("0", "123"))

    def test_long_chain(self):
        # one rising segment of 3,000 edges, past the default recursion limit
        n = 3000
        g = chain(["1"] * n)
        (edge,) = restrict(g, set()).graph.edges
        assert (edge.tail, edge.head, edge.label) == ("v0", f"v{n}", ("1",) * n)
        halves = restrict(g, {"v1000"}).graph.edges
        assert [(e.tail, e.head, len(e.label)) for e in halves] == [
            ("v0", "v1000", 1000),
            ("v1000", f"v{n}", n - 1000),
        ]


class TestParity:
    def test_b3(self, graph_b3):
        assert parity_condition(graph_b3) == (True, 3)

    def test_fig1_left(self, graph_fig1_left):
        result = parity_condition(graph_fig1_left)
        assert not result.uniform
        assert result.longest == 2

    def test_single_edge(self):
        assert parity_condition(chain(["1"])) == (True, 1)

    def test_memoized(self, graph_b3):
        assert parity_condition(graph_b3) is parity_condition(graph_b3)

    def assert_matches_paths(self, name, g):
        result = parity_condition(g)
        # the frame reads the int form only: no Edge tuple is built for it
        assert vars(g).get("_view") is None, name
        bot, top = g.zero_hat(), g.one_hat()
        lengths = {len(p) for p in g.paths(bot, top)} or {0}
        assert result == ParityResult(len({k % 2 for k in lengths}) == 1, max(lengths)), name
        frame = alexander._frame(g)
        assert frame.interior == frozenset(g.vertices) - {bot, top}, name
        order = g.topological_order
        assert (order[frame.start], order[frame.end]) == (bot, top), name
        return result.uniform

    def test_against_path_lengths(self, all_fixture_graphs):
        for name, g in all_fixture_graphs.items():
            self.assert_matches_paths(name, g)
        for n in (3, 4):
            for name, g in bruhat_intervals(n, 6):
                self.assert_matches_paths(name, g)
        verdicts = {
            self.assert_matches_paths(f"seed {seed}", random_labeled_dag(random.Random(seed), 7))
            for seed in range(60)
        }
        assert verdicts == {True, False}  # some random graphs mix parities, some do not
        self.assert_matches_paths("one vertex", LabeledDigraph(["x"], [], LinearRelation([])))
        self.assert_matches_paths("long chain", chain(["1"] * 3000))

    def test_memo_leaves_graph_to_reference_counting(self):
        g = chain(["1", "2"])
        parity_condition(g)
        ref = weakref.ref(g)
        enabled = gc.isenabled()
        gc.disable()  # a cycle would then outlive the del below
        try:
            del g
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestAlexanderCheck:
    def test_one_vertex_sign_is_int(self):
        g = LabeledDigraph(["x"], [], LinearRelation([]))
        result = alexander_check(g, set())
        assert type(result.lhs) is int and type(result.rhs) is int
        assert result == (0, 0, True)

    def test_fig3_partition(self, graph_b3):
        result = alexander_check(graph_b3, S_FIG3)
        assert result == (0, 0, True)

    def test_empty_subset(self, graph_b3):
        result = alexander_check(graph_b3, set())
        assert result.equal
        # empty-side restriction collapses to the alternating sums on g itself
        rel = graph_b3.relation.related
        rising = sum(
            (-1) ** len(p)
            for p in graph_b3.paths("0", "123")
            if graph_b3.is_rising(p)
        )
        falling = sum(
            (-1) ** len(p)
            for p in graph_b3.paths("0", "123")
            if graph_b3.is_falling(p)
        )
        assert rising == falling

    def test_all_bipartitions_of_b3(self, graph_b3):
        interior = sorted(set(graph_b3.vertices) - {"0", "123"})
        for k in range(len(interior) + 1):
            for subset in itertools.combinations(interior, k):
                result = alexander_check(graph_b3, subset)
                assert result.equal, (subset, result)

    def test_other_parity_fixtures(self, graph_fig1_right, graph_fig2_i, graph_fig2_ii):
        # the second figure-1 graph: singletons plus a seeded subset sample
        import random

        g = graph_fig1_right
        interior = sorted(set(g.vertices) - {"0", "1"})
        subsets = [frozenset()] + [frozenset({v}) for v in interior]
        rng = random.Random(5)
        for _ in range(40):
            k = rng.randint(2, len(interior))
            subsets.append(frozenset(rng.sample(interior, k)))
        for subset in subsets:
            assert alexander_check(g, subset).equal, subset
        # the stem-diamond graph under both relations has a 2-vertex interior
        for h in (graph_fig2_i, graph_fig2_ii):
            for subset in ([], ["x"], ["y"], ["x", "y"]):
                assert alexander_check(h, subset).equal, subset

    def test_unbalanced_rejected(self):
        with pytest.raises(PreconditionFailed, match="balanced"):
            alexander_check(chain(["2", "1"]), set())

    def test_parity_violation_rejected(self, graph_fig1_left):
        with pytest.raises(PreconditionFailed, match="parity"):
            alexander_check(graph_fig1_left, set())


def all_subsets(g):
    interior = sorted(set(g.vertices) - {g.zero_hat(), g.one_hat()}, key=str)
    return [
        frozenset(c)
        for k in range(len(interior) + 1)
        for c in itertools.combinations(interior, k)
    ]


def bruhat_intervals(n, max_length):
    """Every interval [u, v] of S_n with l(v) - l(u) <= max_length."""
    bg = bruhat_graph_sn(n)
    for u in bg.graph.vertices:
        for v in bg.graph.vertices:
            if bg.lengths[v] - bg.lengths[u] <= max_length and bg.leq(u, v):
                yield f"S{n} [{u}, {v}]", bg.interval(u, v)


class TestAlexanderSweep:
    def sweep_counting(self, monkeypatch, g):
        calls = []

        def counted(graph, subset):
            calls.append(subset)
            return alexander_check(graph, subset)

        monkeypatch.setattr(alexander, "alexander_check", counted)
        interior, lhs, rhs = alexander_sweep(g)
        monkeypatch.undo()
        return interior, lhs, rhs, len(calls)

    def assert_matches_oracle(self, monkeypatch, name, g):
        interior, lhs, rhs, calls = self.sweep_counting(monkeypatch, g)
        assert interior == g.topological_order[1:-1], name
        assert len(lhs) == len(rhs) == 2 ** len(interior), name
        for m, row in enumerate(zip(lhs, rhs)):
            subset = {v for i, v in enumerate(interior) if m >> i & 1}
            assert row == alexander_check(g, subset)[:2], (name, sorted(subset))
        assert lhs == rhs, name
        # one check, of the empty split, guards the table of all 2^k splits
        assert calls == 1, name

    def test_fixtures_match_per_subset_checks(
        self, monkeypatch, graph_b3, graph_fig1_right, graph_fig2_i, graph_fig2_ii
    ):
        for name, g in (
            ("fig3_b3", graph_b3),
            ("fig1_right", graph_fig1_right),
            ("fig2_relation_i", graph_fig2_i),
            ("fig2_relation_ii", graph_fig2_ii),
        ):
            self.assert_matches_oracle(monkeypatch, name, g)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bruhat_intervals_match_per_subset_checks(self, monkeypatch, n):
        for name, g in bruhat_intervals(n, 4):
            self.assert_matches_oracle(monkeypatch, name, g)

    def test_bit_i_is_the_ith_interior_vertex(self):
        g = realize(parse_cd("cc + d"))
        interior, lhs, rhs = alexander_sweep(g)
        assert interior == ("v1", "v2", "v3", "v4", "v5", "v6")
        # {v3, v6} and its mirror image {v2, v5} differ, so rows indexed
        # with the bits reversed would swap them
        assert (lhs[0b100100], rhs[0b100100]) == alexander_check(g, {"v3", "v6"})[:2] == (1, 1)
        assert (lhs[0b010010], rhs[0b010010]) == alexander_check(g, {"v2", "v5"})[:2] == (0, 0)

    def test_one_frame_for_all_subsets(self, monkeypatch, graph_b3):
        assert vars(graph_b3).get("_view") is None
        calls = []
        zero_hat = LabeledDigraph.zero_hat

        def counted(g):
            calls.append(g)
            return zero_hat(g)

        monkeypatch.setattr(LabeledDigraph, "zero_hat", counted)
        _, lhs, rhs = alexander_sweep(graph_b3)
        monkeypatch.undo()
        assert len(lhs) == 64 and lhs == rhs
        assert len(calls) == 1
        assert vars(graph_b3).get("_view") is None  # no Edge tuple was built

    def test_one_result_for_all_subsets(self, monkeypatch, graph_b3):
        # the guard's check of the empty split is the only AlexanderResult built
        built = []

        class Counted(alexander.AlexanderResult):
            def __new__(cls, *args, **kwargs):
                built.append((args, kwargs))
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(alexander, "AlexanderResult", Counted)
        _, lhs, rhs = alexander_sweep(graph_b3)
        assert len(lhs) == 64 and lhs == rhs
        assert built == [((), {"lhs": lhs[0], "rhs": rhs[0], "equal": True})]

    def test_errors_raised(self, graph_fig1_left):
        with pytest.raises(PreconditionFailed, match="parity"):
            alexander_sweep(graph_fig1_left)
        with pytest.raises(PreconditionFailed, match="balanced"):
            alexander_sweep(chain(["2", "1"]))

    def test_smallest_graphs_keep_their_rows(self):
        # source = sink, and one edge with an empty interior
        one = LabeledDigraph(["x"], [], LinearRelation([]))
        assert alexander_sweep(one) == ((), [0], [0])
        assert alexander_sweep(chain(["1"])) == ((), [1], [1])
        for g in (one, chain(["1"])):
            _, lhs, rhs = alexander_sweep(g)
            check = alexander_check(g, ())
            assert (lhs, rhs) == ([check.lhs], [check.rhs])

    def test_realized_graphs_match_per_subset_checks(self, monkeypatch):
        for text in REALIZED:
            self.assert_matches_oracle(monkeypatch, text, realize(parse_cd(text)))

    def test_disagreeing_table_raises(self, monkeypatch, graph_b3):
        table = alexander._falling_table

        def off_by_one_at_the_empty_split(g):
            values = table(g)
            values[0] += 1
            return values

        monkeypatch.setattr(alexander, "_falling_table", off_by_one_at_the_empty_split)
        with pytest.raises(InternalError, match="empty split"):
            alexander_sweep(graph_b3)

    def test_bounded_by_the_interior_size(self, monkeypatch, graph_b3):
        # 40 interior vertices: refused before any balance check or table of 2**40
        wide = realize(parse_cd("5*cccc"))

        def no_balance_check(g):
            raise AssertionError("is_balanced called on an over-size graph")

        start = time.perf_counter()
        with monkeypatch.context() as patch:
            patch.setattr(LabeledDigraph, "is_balanced", no_balance_check)
            with pytest.raises(GraphError, match="40 interior vertices exceeds the bound 18"):
                alexander_sweep(wide)
        assert time.perf_counter() - start < 1.0
        assert alexander_check(wide, ()).equal  # one split stays cheap
        monkeypatch.setattr(alexander, "MAX_SWEEP_INTERIOR", 6)
        assert len(alexander_sweep(graph_b3)[1]) == 64
        monkeypatch.setattr(alexander, "MAX_SWEEP_INTERIOR", 5)
        with pytest.raises(GraphError, match="6 interior vertices exceeds the bound 5"):
            alexander_sweep(graph_b3)


class TestFallingTable:
    """Every entry of the one-sweep table against a point sweep and the paths, per split."""

    def assert_matches_sweeps(self, name, g):
        """Every entry, or above 12 interior vertices a seeded sample of 300.

        The point sweep shares the table's kernel; the path enumeration
        shares nothing with it.
        """
        table = alexander._falling_table(g)
        by_paths = signed_path_sums_by_paths(g)
        interior = g.topological_order[1:-1]  # bit i is the vertex at position i + 1
        assert len(table) == 2 ** len(interior), name
        masks = range(len(table))
        if len(interior) > 12:
            masks = [0, len(table) - 1] + random.Random(len(table)).sample(masks, 300)
        for m in masks:
            subset = {v for i, v in enumerate(interior) if m >> i & 1}
            assert table[m] == restrict(g, subset).falling_at_minus_one(), (name, sorted(subset))
            assert table[m] == by_paths(subset)[0], (name, sorted(subset))
        return table

    def test_fixtures(self, all_fixture_graphs):
        for name, g in all_fixture_graphs.items():
            self.assert_matches_sweeps(name, g)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bruhat_intervals(self, n):
        # every interval within the sweep's bound
        for name, g in bruhat_intervals(n, 6):
            if len(g.vertices) - 2 <= alexander.MAX_SWEEP_INTERIOR:
                self.assert_matches_sweeps(name, g)

    def test_realized_graphs(self):
        for text in REALIZED:
            self.assert_matches_sweeps(text, realize(parse_cd(text)))

    def test_unbalanced_graphs(self):
        # only an unbalanced graph tells descents at S from ascents (the
        # two signed path sums agree on balanced ones)
        self.assert_matches_sweeps("falling chain", chain(["2", "1"]))
        uneven = 0
        for seed in range(60):
            g = random_labeled_dag(random.Random(seed), 7)
            self.assert_matches_sweeps(f"seed {seed}", g)
            uneven += not g.is_balanced().balanced
        assert uneven > 20

    def test_bit_order(self):
        # one path v0 -> v1 -> v2 -> v3 ascending at v1 and descending at v2
        # weighs (1 - s1)(0 - s2): only S = {v2} is nonzero, so a table
        # indexed with the bits reversed reads -1 at {v1}
        assert self.assert_matches_sweeps("chain 1 2 1", chain(["1", "2", "1"])) == [0, 0, -1, 0]

    def test_smallest_graphs(self):
        assert alexander._falling_table(LabeledDigraph(["x"], [], LinearRelation([]))) == [0]
        assert alexander._falling_table(chain(["1"])) == [1]

    def test_subset_sums(self):
        rng = random.Random(3)
        for k in range(9):
            coeffs = [rng.randint(-5, 5) for _ in range(2 ** k)]
            table = list(coeffs)
            alexander._subset_sums(table)
            assert table == [
                sum(c for t, c in enumerate(coeffs) if t & m == t) for m in range(2 ** k)
            ], k


class TestFallingSweep:
    """The sweep on the base graph against the built G_S and the path sums."""

    def assert_matches_oracles(self, name, g):
        by_paths = signed_path_sums_by_paths(g)
        for subset in all_subsets(g):
            r = restrict(g, subset)
            value = r.falling_at_minus_one()
            assert "graph" not in vars(r), name
            assert value == built_falling_at_minus_one(r), (name, sorted(subset))
            assert value == by_paths(subset)[0], (name, sorted(subset))

    def test_fixtures(self, graph_b3, graph_fig1_right, graph_fig2_i, graph_fig2_ii):
        for name, g in (
            ("fig3_b3", graph_b3),
            ("fig1_right", graph_fig1_right),
            ("fig2_relation_i", graph_fig2_i),
            ("fig2_relation_ii", graph_fig2_ii),
        ):
            self.assert_matches_oracles(name, g)

    @pytest.mark.parametrize("n", [3, 4])
    def test_bruhat_intervals(self, n):
        for name, g in bruhat_intervals(n, 4):
            self.assert_matches_oracles(name, g)

    def test_unbalanced_graphs(self):
        # the two signed path sums agree on balanced graphs, so only an
        # unbalanced one tells the sweep's descents at S from its ascents
        self.assert_matches_oracles("falling chain", chain(["2", "1"]))
        for seed in range(60):
            self.assert_matches_oracles(f"seed {seed}", random_labeled_dag(random.Random(seed), 7))

    def test_ladder_builds_no_segments(self):
        # G_S for S empty has one edge per rising path, 2**40 of them
        n = 40
        g = rising_ladder(n)
        start = time.perf_counter()
        r = restrict(g, set())
        value = r.falling_at_minus_one()
        assert time.perf_counter() - start < 1.0
        assert value == 2 ** n
        assert "graph" not in vars(r)
        assert "80 edges" in repr(r)  # the base graph's: printing builds nothing
        assert "graph" not in vars(r)

    def test_unbounded_raises_at_restrict(self):
        g = LabeledDigraph(["x", "y", "z"], [("x", "y", "1"), ("x", "z", "1")], LinearRelation(["1"]))
        with pytest.raises(Unbounded):
            restrict(g, set())

    def test_unbounded_comes_before_a_bad_subset(self):
        g = LabeledDigraph(["x", "y", "z"], [("x", "y", "1"), ("x", "z", "1")], LinearRelation(["1"]))
        for subset in ({"nope"}, {"x"}, {"y"}, set()):
            with pytest.raises(PreconditionFailed, match="^bounded"):
                alexander_check(g, subset)
            for fn in (restrict, signed_path_sums):
                with pytest.raises(Unbounded, match="^graph has 2 sinks$"):
                    fn(g, subset)
        with pytest.raises(PreconditionFailed, match="^bounded"):
            alexander_sweep(g)
        with pytest.raises(Unbounded, match="^graph has 2 sinks$"):
            parity_condition(g)


class TestSignedPathSums:
    def assert_matches_paths(self, name, g):
        """Both sums of every split against the enumeration; whether the two differ somewhere."""
        by_paths = signed_path_sums_by_paths(g)
        differ = False
        for subset in all_subsets(g):
            sums = signed_path_sums(g, subset)
            assert sums == by_paths(subset), (name, sorted(subset))
            differ |= sums[0] != sums[1]
        return differ

    def test_fixtures_match_path_enumeration(self, all_fixture_graphs):
        for name, g in all_fixture_graphs.items():
            self.assert_matches_paths(name, g)

    def test_bruhat_intervals_match_path_enumeration(self):
        for name, g in bruhat_intervals(4, 4):
            assert not self.assert_matches_paths(name, g), name  # balanced: the sums agree

    def test_random_graphs_match_path_enumeration(self):
        # the two sums differ only on unbalanced graphs, which most of these are
        differ = sum(
            self.assert_matches_paths(f"seed {seed}", random_labeled_dag(random.Random(seed), 7))
            for seed in range(60)
        )
        assert differ > 20

    def test_pairs_relations_match_path_enumeration(self):
        differ = sum(self.assert_matches_paths(f"seed {seed}", under_random_pairs(seed)) for seed in range(60))
        assert differ > 20

    def test_ladder_is_linear(self):
        # 2**40 paths, all rising: none descends at T, the whole interior
        g = rising_ladder(40)
        start = time.perf_counter()
        assert signed_path_sums(g, set()) == (2 ** 40, 0)
        assert time.perf_counter() - start < 1.0

    def test_empty_subset_counts_rising_and_falling(self, graph_b3):
        first, second = signed_path_sums(graph_b3, set())
        rising = sum(1 for p in graph_b3.paths("0", "123") if graph_b3.is_rising(p))
        falling = sum(1 for p in graph_b3.paths("0", "123") if graph_b3.is_falling(p))
        assert first == rising == 1
        assert second == falling == 1

    def test_full_interior(self, graph_b3):
        # T empty: the sums become the alternating rising/falling sums
        interior = set(graph_b3.vertices) - {"0", "123"}
        first, second = signed_path_sums(graph_b3, interior)
        rising_alt = sum(
            (-1) ** (len(p) - 1)
            for p in graph_b3.paths("0", "123")
            if graph_b3.is_rising(p)
        )
        falling_alt = sum(
            (-1) ** (len(p) - 1)
            for p in graph_b3.paths("0", "123")
            if graph_b3.is_falling(p)
        )
        assert second == rising_alt
        assert first == falling_alt
        assert first == second

    def test_fig3_subset_agreement(self, graph_b3):
        first, second = signed_path_sums(graph_b3, S_FIG3)
        assert first == second

    def test_all_subsets_agree(self, graph_b3, graph_fig1_left, graph_fig1_right):
        for g in (graph_b3, graph_fig1_left, graph_fig1_right):
            interior = sorted(
                set(g.vertices) - {g.zero_hat(), g.one_hat()}
            )
            for k in range(len(interior) + 1):
                for subset in itertools.combinations(interior, k):
                    first, second = signed_path_sums(g, subset)
                    assert first == second, (g, subset)

    @pytest.mark.parametrize(
        "subset, message",
        [
            ({"zz"}, "unknown vertices"),
            ({"0"}, "avoid the source"),
            ({"123"}, "avoid the source"),
            # an unhashable member is no vertex either, and raises no TypeError
            ([[1]], "unknown vertices"),
            # a str names the vertex "13", not the subset {"1", "3"}: TypeError
            ("13", "not the str '13'"),
        ],
    )
    def test_rejects_subset_like_restrict(self, graph_b3, subset, message):
        error = TypeError if isinstance(subset, str) else ValueError
        for fn in (restrict, signed_path_sums, alexander_check):
            with pytest.raises(error, match=message):
                fn(graph_b3, subset)
