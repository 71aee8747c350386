"""Labeled acyclic multidigraphs and their path-enumeration invariants.

A labeled digraph is a finite acyclic directed multigraph together with a
label on every edge and a binary relation ~ on the label set.  The relation
may be a weak linear order (label x ~ label y iff x <= y) or an arbitrary
explicit set of ordered pairs; nothing such as reflexivity is assumed.

Walking a path e1, ..., ek and comparing consecutive labels yields the
descent word: letter a where label(e_i) ~ label(e_{i+1}) (an ascent) and
letter b otherwise (a descent).  Summing descent words over all directed
paths from x to y gives the ab-index of the interval [x, y].  The ab-index
is computed here by dynamic programming over states (vertex, label of the
last edge used), so the exponentially many paths are never materialized;
brute-force enumeration is kept available through :meth:`LabeledDigraph.paths`
and serves as a test oracle.

A graph is *balanced* when every interval has, for each length k, equally
many rising paths (all ascents) and falling paths (all descents).  Balance
is exactly the condition under which every interval's ab-index can be
rewritten in the variables c = a+b, d = ab+ba; :meth:`LabeledDigraph.is_balanced`
checks it and reports either a witness interval or the cd-index.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .ncpoly import AbPoly, CdPoly, IntPoly, NotInSpan, ab_to_cd

__all__ = [
    "BalanceEquivalenceReport",
    "BalanceReport",
    "BalanceWitness",
    "CycleDetected",
    "DanglingVertex",
    "Edge",
    "GraphError",
    "InternalError",
    "LabeledDigraph",
    "LinearRelation",
    "NoPath",
    "PairsRelation",
    "Unbounded",
    "UnknownLabel",
    "cartesian_product",
    "dual",
    "from_json_dict",
    "load_graph",
    "stanley_product",
    "to_json_dict",
]


class GraphError(ValueError):
    """Base class for malformed graph input."""


class CycleDetected(GraphError):
    def __init__(self, cycle):
        super().__init__(f"directed cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = tuple(cycle)


class DanglingVertex(GraphError):
    pass


class UnknownLabel(GraphError):
    pass


class NoPath(GraphError):
    pass


class Unbounded(GraphError):
    pass


class InternalError(RuntimeError):
    """An identity the library is built on failed; aborting loudly."""


class LinearRelation:
    """Labels carry a total order; x ~ y iff x comes no later than y."""

    mode = "linear"

    def __init__(self, order: Sequence[Hashable]):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise GraphError("linear order contains duplicate labels")
        self._order = order
        self._rank = {label: i for i, label in enumerate(order)}

    @property
    def order(self) -> tuple:
        return self._order

    @property
    def labels(self) -> frozenset:
        return frozenset(self._order)

    def related(self, x, y) -> bool:
        return self._rank[x] <= self._rank[y]

    def reverse(self) -> "LinearRelation":
        return LinearRelation(self._order[::-1])

    def to_json(self) -> dict:
        return {"mode": "linear", "order": list(self._order)}

    def __repr__(self):
        return f"LinearRelation({list(self._order)})"


class PairsRelation:
    """Explicit relation: x ~ y iff the ordered pair (x, y) was listed."""

    mode = "pairs"

    def __init__(self, pairs: Iterable[tuple]):
        self._pairs = frozenset((x, y) for x, y in pairs)

    @property
    def pairs(self) -> frozenset:
        return self._pairs

    @property
    def labels(self) -> frozenset:
        return frozenset(x for pair in self._pairs for x in pair)

    def related(self, x, y) -> bool:
        return (x, y) in self._pairs

    def reverse(self) -> "PairsRelation":
        return PairsRelation((y, x) for x, y in self._pairs)

    def to_json(self) -> dict:
        return {"mode": "pairs", "pairs": sorted(map(list, self._pairs))}

    def __repr__(self):
        return f"PairsRelation({sorted(self._pairs)})"


class Edge(NamedTuple):
    tail: Hashable
    head: Hashable
    label: Hashable
    eid: int


Path = tuple  # tuple of Edge with matching heads and tails

_BITS_TO_AB = str.maketrans("01", "ab")


class BalanceWitness(NamedTuple):
    x: Hashable
    y: Hashable
    length: int
    rising: int
    falling: int


@dataclass(frozen=True)
class BalanceReport:
    """The verdict of a balance check, with a witness or the cd-index.

    ``cd_index`` is the cd-index of [source, sink], computed on first read
    and kept: callers that need only the verdict never pay for it.  It is
    None for an unbalanced or unbounded graph.
    """

    balanced: bool
    witness: BalanceWitness | None = None
    _graph: LabeledDigraph | None = field(default=None, repr=False, compare=False)

    @cached_property
    def cd_index(self) -> CdPoly | None:
        g = self._graph
        if not self.balanced or g is None or not g.is_bounded():
            return None
        bot, top = g.zero_hat(), g.one_hat()
        return ab_to_cd(g.ab_index(bot, top)) if bot != top else CdPoly.zero()


@dataclass(frozen=True)
class BalanceEquivalenceReport:
    """Verdicts of the three equivalent balance characterizations.

    ``per_length`` counts rising against falling paths for every length,
    ``even_length`` only for even lengths, and ``cd_span`` asks whether the
    ab-index of every interval is a cd-polynomial.  The three are computed
    independently; construction fails loudly if they ever disagree.
    """

    per_length: bool
    even_length: bool
    cd_span: bool

    @property
    def verdict(self) -> bool:
        return self.per_length


class LabeledDigraph:
    """Finite acyclic multidigraph with labeled edges and a label relation.

    Immutable after construction.  Vertices and labels may be any hashable
    values; parallel edges are allowed and distinguished by position.
    Construction validates that edge endpoints exist, that under a linear
    relation every edge label appears in the order, and that there are no
    directed cycles (a witness cycle is reported otherwise).
    """

    def __init__(
        self,
        vertices: Iterable[Hashable],
        edges: Iterable[tuple],
        relation,
    ):
        self._vertices = tuple(vertices)
        vset = set(self._vertices)
        if len(vset) != len(self._vertices):
            raise GraphError("duplicate vertex identifier")
        self._edges = tuple(
            Edge(t, h, l, i) for i, (t, h, l) in enumerate(edges)
        )
        self.relation = relation
        for e in self._edges:
            if e.tail not in vset or e.head not in vset:
                raise DanglingVertex(f"edge {e.tail!r} -> {e.head!r} leaves the vertex set")
        if isinstance(relation, LinearRelation):
            missing = {e.label for e in self._edges} - relation.labels
            if missing:
                raise UnknownLabel(f"labels {sorted(map(str, missing))} missing from the linear order")
        self._out: dict[Hashable, list[Edge]] = {v: [] for v in self._vertices}
        self._in: dict[Hashable, list[Edge]] = {v: [] for v in self._vertices}
        for e in self._edges:
            self._out[e.tail].append(e)
            self._in[e.head].append(e)
        self._topo = self._toposort()
        self._topo_index = {v: i for i, v in enumerate(self._topo)}
        self._balance: BalanceReport | None = None
        self._parity = None  # kept by alexander.parity_condition

    def _toposort(self) -> tuple:
        indeg = {v: len(self._in[v]) for v in self._vertices}
        queue = [v for v in self._vertices if indeg[v] == 0]
        order = []
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            order.append(v)
            for e in self._out[v]:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    queue.append(e.head)
        if len(order) != len(self._vertices):
            raise CycleDetected(self._find_cycle())
        return tuple(order)

    def _find_cycle(self) -> list:
        """Depth-first search with an explicit stack; 1 = on the stack, 2 = done."""
        color: dict[Hashable, int] = {}
        for root in self._vertices:
            if root in color:
                continue
            color[root] = 1
            stack = [root]
            pending = [iter(self._out[root])]
            while pending:
                for e in pending[-1]:
                    w = e.head
                    if color.get(w) == 1:
                        return stack[stack.index(w):] + [w]
                    if w not in color:
                        color[w] = 1
                        stack.append(w)
                        pending.append(iter(self._out[w]))
                        break
                else:
                    pending.pop()
                    color[stack.pop()] = 2
        raise InternalError("cycle reported but none found")

    def _require(self, *vertices) -> None:
        for v in vertices:
            if v not in self._topo_index:
                raise GraphError(f"vertex {v!r} not in the graph")

    # -- basic structure -------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def topological_order(self) -> tuple:
        return self._topo

    def out_edges(self, v) -> tuple:
        return tuple(self._out[v])

    def in_edges(self, v) -> tuple:
        return tuple(self._in[v])

    def sources(self) -> tuple:
        return tuple(v for v in self._vertices if not self._in[v])

    def sinks(self) -> tuple:
        return tuple(v for v in self._vertices if not self._out[v])

    def is_bounded(self) -> bool:
        return len(self.sources()) == 1 and len(self.sinks()) == 1

    def zero_hat(self):
        src = self.sources()
        if len(src) != 1:
            raise Unbounded(f"graph has {len(src)} sources")
        return src[0]

    def one_hat(self):
        snk = self.sinks()
        if len(snk) != 1:
            raise Unbounded(f"graph has {len(snk)} sinks")
        return snk[0]

    def descendants(self, x) -> frozenset:
        """Vertices reachable from x, including x itself."""
        self._require(x)
        seen = {x}
        stack = [x]
        while stack:
            v = stack.pop()
            for e in self._out[v]:
                if e.head not in seen:
                    seen.add(e.head)
                    stack.append(e.head)
        return frozenset(seen)

    def ancestors(self, y) -> frozenset:
        """Vertices from which y is reachable, including y itself."""
        self._require(y)
        seen = {y}
        stack = [y]
        while stack:
            v = stack.pop()
            for e in self._in[v]:
                if e.tail not in seen:
                    seen.add(e.tail)
                    stack.append(e.tail)
        return frozenset(seen)

    def leq(self, x, y) -> bool:
        """The reachability order: x <= y iff a directed path runs from x to y."""
        self._require(y)
        return y in self.descendants(x)

    def interval(self, x, y) -> "LabeledDigraph":
        """Vertex-induced subgraph on {z : x <= z and z <= y}, same relation."""
        self._require(x, y)
        keep = self.descendants(x) & self.ancestors(y)
        vertices = [v for v in self._vertices if v in keep]
        edges = [
            (e.tail, e.head, e.label)
            for e in self._edges
            if e.tail in keep and e.head in keep
        ]
        return LabeledDigraph(vertices, edges, self.relation)

    # -- paths and descent words -----------------------------------------

    def paths(self, x, y) -> Iterator[Path]:
        """All directed paths from x to y, as tuples of edges (length >= 1).

        Exponential in general; the dynamic programming methods below avoid
        this, and enumeration is intended for small graphs and oracles.
        The walk keeps an explicit stack, so path length is not bounded by
        the recursion limit.
        """
        self._require(x, y)
        if x == y:
            return
        useful = self.ancestors(y)
        trail: list[Edge] = []
        pending = [iter(self._out[x])]
        while pending:
            for e in pending[-1]:
                if e.head == y:
                    yield (*trail, e)
                elif e.head in useful:
                    trail.append(e)
                    pending.append(iter(self._out[e.head]))
                    break
            else:
                pending.pop()
                if trail:
                    trail.pop()

    def descent_word(self, path: Path) -> str:
        """Word over {a, b} with an a at each ascent of the path's labels."""
        rel = self.relation.related
        return "".join(
            "a" if rel(e.label, f.label) else "b"
            for e, f in zip(path, path[1:])
        )

    def is_rising(self, path: Path) -> bool:
        rel = self.relation.related
        return all(rel(e.label, f.label) for e, f in zip(path, path[1:]))

    def is_falling(self, path: Path) -> bool:
        rel = self.relation.related
        return not any(rel(e.label, f.label) for e, f in zip(path, path[1:]))

    # -- dynamic programming ----------------------------------------------

    def _sweep(self, x, words: bool) -> Iterator[tuple]:
        """The (vertex, last label) states of paths from x, one vertex at a time.

        A state holds a pair (asc, desc) of tables: the one read when the
        next edge makes an ascent and the one read at a descent.  Extending
        a path along an edge maps its entry w to s*w + bit.  With ``words``
        an entry is an ab-word as an int (the empty word is 1), asc and desc
        are one shared table, s = 2 and the bit is 0 for a, 1 for b.
        Otherwise an entry is a path length, asc counts the rising paths and
        desc the falling ones, s = 1 and the bit is 1; a one-edge path is in
        both.  Every coefficient counts paths, so none ever cancels.

        Vertices are taken in topological order, so when the sweep reaches v
        its states are final: it yields (v, {last label: (asc, desc)}), drops
        them, and only then extends v's paths along its out-edges, testing
        the relation once per (out-edge, last label).  Every vertex reachable
        from x, and no other, is yielded, so a caller may stop early.
        """
        rel = self.relation.related
        scale, asc_bit = (2, 0) if words else (1, 1)
        state: dict[Hashable, dict[Hashable, tuple[dict, dict]]] = {}
        for e in self._out[x]:
            row = state.setdefault(e.head, {})
            pair = row.get(e.label)
            if pair is None:
                asc = {}
                pair = row[e.label] = (asc, asc if words else {})
            asc, desc = pair
            asc[1] = asc.get(1, 0) + 1
            if desc is not asc:
                desc[1] = desc.get(1, 0) + 1
        for v in self._topo[self._topo_index[x] + 1:]:
            table = state.pop(v, None)
            if table is None:
                continue
            yield v, table
            for e in self._out[v]:
                last = e.label
                row = state.setdefault(e.head, {})
                pair = row.get(last)
                if pair is None:
                    asc_to = {}
                    pair = row[last] = (asc_to, asc_to if words else {})
                asc_to, desc_to = pair
                for label, (asc, desc) in table.items():
                    if rel(label, last):
                        src, dst, bit = asc, asc_to, asc_bit
                    else:
                        src, dst, bit = desc, desc_to, 1
                    for w, c in src.items():
                        w = scale * w + bit
                        dst[w] = dst.get(w, 0) + c

    @staticmethod
    def _sums(table: dict) -> tuple[dict, dict]:
        """A yielded vertex's (asc, desc) pair, each summed over its last labels."""
        if len(table) == 1:  # nothing to add: the pair itself, not a copy
            return next(iter(table.values()))
        asc_sum: dict[int, int] = {}
        desc_sum: dict[int, int] = {}
        for asc, desc in table.values():
            for w, c in asc.items():
                asc_sum[w] = asc_sum.get(w, 0) + c
            if desc is asc:
                desc_sum = asc_sum
                continue
            for w, c in desc.items():
                desc_sum[w] = desc_sum.get(w, 0) + c
        return asc_sum, desc_sum

    @staticmethod
    def _decode(words: dict) -> AbPoly:
        """The AbPoly of an int-encoded (word -> count) table."""
        return AbPoly._trusted(
            {bin(w)[3:].translate(_BITS_TO_AB): c for w, c in words.items()}
        )

    def ab_index_from(self, x) -> dict:
        """ab-indexes of [x, v] for every v, by one pass in topological order."""
        self._require(x)
        psi = dict.fromkeys(self._vertices, AbPoly.zero())
        for v, table in self._sweep(x, words=True):
            psi[v] = self._decode(self._sums(table)[0])
        return psi

    def ab_index(self, x, y) -> AbPoly:
        """Sum of descent words over all paths from x to y.

        Raises NoPath when y is not reachable from x; returns the zero
        polynomial for x == y (an empty sum).
        """
        self._require(x, y)
        if x == y:
            return AbPoly.zero()
        for v, table in self._sweep(x, words=True):
            if v == y:
                return self._decode(self._sums(table)[0])
        raise NoPath(f"no directed path from {x!r} to {y!r}")

    @staticmethod
    def _poly(counts: dict) -> IntPoly:
        """The polynomial summing q^(len-1) over a length -> count table."""
        return IntPoly._trusted({k - 1: c for k, c in counts.items()})

    def rising_falling(self, x, y) -> tuple[IntPoly, IntPoly]:
        """(r, f) where r sums q^(len-1) over rising x->y paths and f over falling ones."""
        self._require(x, y)
        if x == y:
            return IntPoly.zero(), IntPoly.zero()
        for v, table in self._sweep(x, words=False):
            if v == y:
                r, f = self._sums(table)
                return self._poly(r), self._poly(f)
        raise NoPath(f"no directed path from {x!r} to {y!r}")

    def capital_rising_falling(self, x, y) -> tuple[IntPoly, IntPoly]:
        """(R, F) with R = q*r and F = q*f for x < y; both 1 when x == y."""
        if x == y:
            return IntPoly.one(), IntPoly.one()
        r, f = self.rising_falling(x, y)
        q = IntPoly.q()
        return q * r, q * f

    # -- balance -----------------------------------------------------------

    def _balance_witness(self) -> BalanceWitness | None:
        for x in self._topo:
            for y, table in self._sweep(x, words=False):
                r, f = self._sums(table)
                if r != f:
                    k = min(k for k in r.keys() | f.keys() if r.get(k, 0) != f.get(k, 0))
                    return BalanceWitness(x, y, k, r.get(k, 0), f.get(k, 0))
        return None

    def is_balanced(self) -> BalanceReport:
        """Check that every interval has r = f; report a witness or the cd-index.

        The witness names the first interval (in topological order) and the
        first path length at which rising and falling counts differ.  The
        cd-index of [source, sink] is available when the graph is balanced
        and bounded, computed when the report's ``cd_index`` is first read.
        The graph is immutable, so the report is computed once and returned
        again on every later call.
        """
        if self._balance is None:
            witness = self._balance_witness()
            if witness is not None:
                self._balance = BalanceReport(balanced=False, witness=witness)
            else:
                # a shallow copy shares this graph's immutable tables but not
                # the report, so graph and report form no reference cycle and
                # are freed by reference counting
                self._balance = BalanceReport(balanced=True, _graph=copy.copy(self))
        return self._balance

    def check_balance_equivalence(self) -> BalanceEquivalenceReport:
        """Evaluate the three balance characterizations independently.

        (per length) rising count equals falling count for every interval
        and every path length; (even length) same restricted to even
        lengths; (cd span) the ab-index of every interval is a
        cd-polynomial.  Raises InternalError if the three disagree, since
        they are provably equivalent.
        """
        per_length = True
        even_length = True
        cd_span = True
        for x in self._topo:
            sweeps = zip(self._sweep(x, words=False), self._sweep(x, words=True))
            for (_, runs), (_, words) in sweeps:
                r, f = self._sums(runs)
                if r != f:
                    per_length = False
                if any(r.get(k, 0) != f.get(k, 0) for k in r.keys() | f.keys() if k % 2 == 0):
                    even_length = False
                try:
                    ab_to_cd(self._decode(self._sums(words)[0]))
                except NotInSpan:
                    cd_span = False
        if not (per_length == even_length == cd_span):
            raise InternalError(
                "balance characterizations disagree: "
                f"per_length={per_length} even_length={even_length} cd_span={cd_span}"
            )
        return BalanceEquivalenceReport(per_length, even_length, cd_span)

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return (
            f"LabeledDigraph({len(self._vertices)} vertices, "
            f"{len(self._edges)} edges, {self.relation!r})"
        )


def dual(g: LabeledDigraph) -> LabeledDigraph:
    """Reverse every edge, keep labels, reverse the relation."""
    return LabeledDigraph(
        g.vertices[::-1],
        [(e.head, e.tail, e.label) for e in g.edges],
        g.relation.reverse(),
    )


def stanley_product(g: LabeledDigraph, h: LabeledDigraph) -> LabeledDigraph:
    """Glue the sink of g to the source of h through paired edges.

    Edges into the sink of g and out of the source of h are fused into
    single edges carrying label pairs; the relation compares a pair by its
    g-component on the left and its h-component on the right.  The ab-index
    of the result is the product of the factors' ab-indexes.
    """
    for graph in (g, h):
        if not graph.is_bounded():
            raise Unbounded("stanley product requires bounded factors")
        if graph.zero_hat() == graph.one_hat():
            raise Unbounded("stanley product requires source != sink")
    g_top, h_bot = g.one_hat(), h.zero_hat()
    vertices = [("G", v) for v in g.vertices if v != g_top]
    vertices += [("H", v) for v in h.vertices if v != h_bot]
    edges = []
    for e in g.edges:
        if e.head != g_top:
            edges.append((("G", e.tail), ("G", e.head), ("G", e.label)))
    for e in g.edges:
        if e.head != g_top:
            continue
        for f in h.edges:
            if f.tail != h_bot:
                continue
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

    labels = {lab for _, _, lab in edges}
    pairs = [(l, m) for l in labels for m in labels if related(l, m)]
    return LabeledDigraph(vertices, edges, PairsRelation(pairs))


def cartesian_product(g: LabeledDigraph, h: LabeledDigraph) -> LabeledDigraph:
    """Box product: vertices are pairs, each edge moves in one coordinate.

    Labels keep their origin; a g-label relates to every h-label but never
    the other way around, so rising paths must exhaust their g-steps first.
    """
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

    labels = {lab for _, _, lab in edges}
    pairs = [(l, m) for l in labels for m in labels if related(l, m)]
    return LabeledDigraph(vertices, edges, PairsRelation(pairs))


# -- JSON interchange -------------------------------------------------------


def to_json_dict(g: LabeledDigraph) -> dict:
    """Plain-dict form of a graph whose vertices and labels are strings."""
    for v in g.vertices:
        if not isinstance(v, str):
            raise GraphError(f"vertex {v!r} is not a string; not serializable")
    for e in g.edges:
        if not isinstance(e.label, str):
            raise GraphError(f"label {e.label!r} is not a string; not serializable")
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"tail": e.tail, "head": e.head, "label": e.label} for e in g.edges
        ],
        "relation": g.relation.to_json(),
    }


def _json_list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise GraphError(f"{what} {value!r} is not a list")
    return value


def _json_key(value, what: str):
    """A vertex or label read from JSON: a string or an integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GraphError(f"{what} {value!r} is not a string or an integer")
    return value


def from_json_dict(data: dict) -> LabeledDigraph:
    """Validate and build a graph from its plain-dict description."""
    try:
        vertices = data["vertices"]
        edge_dicts = data["edges"]
        rel = data["relation"]
        mode = rel["mode"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph description: missing {exc}") from None
    vertices = [_json_key(v, "vertex") for v in _json_list(vertices, "vertices")]
    edges = []
    for d in _json_list(edge_dicts, "edges"):
        try:
            tail, head, label = d["tail"], d["head"], d["label"]
        except (KeyError, TypeError):
            raise GraphError(f"malformed edge entry {d!r}") from None
        edges.append(
            (_json_key(tail, "edge tail"), _json_key(head, "edge head"), _json_key(label, "label"))
        )
    if mode == "linear":
        order = _json_list(rel.get("order", ()), "linear order")
        relation = LinearRelation(_json_key(label, "label") for label in order)
    elif mode == "pairs":
        pairs = _json_list(rel.get("pairs", ()), "relation pairs")
        for p in pairs:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise GraphError(f"relation pair {p!r} is not a 2-element list")
        relation = PairsRelation((_json_key(l, "label"), _json_key(m, "label")) for l, m in pairs)
        used = {label for _, _, label in edges}
        stray = relation.labels - used
        if stray:
            raise UnknownLabel(
                f"relation references labels not on any edge: {sorted(map(str, stray))}"
            )
    else:
        raise GraphError(f"unknown relation mode {mode!r}")
    return LabeledDigraph(vertices, edges, relation)


def load_graph(path) -> LabeledDigraph:
    """Read and validate a graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: invalid JSON ({exc})") from None
    return from_json_dict(data)
