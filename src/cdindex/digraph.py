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
brute-force enumeration is kept available through :meth:`LabeledDigraph.paths`,
and :meth:`LabeledDigraph.ab_index_by_paths` sums the descent words of the
enumerated paths: the one place where paths become ab-words, and the
oracle the dynamic programme is tested against.  It reads the words a
batch of paths at a time, one column of labels per position, and asks
``relation.related`` once per distinct pair of adjacent labels, so its
cost per letter is a dict lookup and its memory one batch.

The dynamic programme runs on an int form of the graph that the
constructor builds in place of hashed edge lists.  A vertex is its
position in the topological order, a label is an id, and each position
lists its out-edges as (head position, label id, key) tuples, the key
rising with the eid.  The relation supplies, per label id, an ascent
mask: bit i of ``masks[j]`` is set iff label i ~ label j.  So the
kernel indexes lists by position and tests ``masks[last] >> label & 1``
for a linear order and for a list of pairs alike, with no call to
``relation.related``; that predicate stays behind the path oracle and
:meth:`is_rising` and :meth:`is_falling`, which therefore do not share
the masks they check.
The kernels on the int form, :func:`_sweep`, :func:`_path_counts` and
:func:`_witness`, take the out-lists and masks themselves, so the search
in :mod:`cdindex.construct` runs the balance verdict on its draws before
it builds any graph.
:meth:`LabeledDigraph.induced` reads a subgraph's int form off its
parent's.  The :class:`Edge` tuples are built from the int form on first
use.

Reachability has one index, built on its first query and kept: per
position, a bitset of the vertices above it and one of those below it, bit
i standing for ``vertices[i]``, each filled by one pass in (reverse)
topological order.  ``leq`` is one bit test, and ``interval(x, y)`` passes
the members of x's upper set AND y's lower set, in vertex order, to
``induced``.  The index takes about V**2/8 bytes per direction for V
vertices (65 kB for S6).
:meth:`LabeledDigraph.paths` prunes by its own linear scan instead, so the
path oracle does not share the index it checks, and re-checking a search's
counterexample on 200,000 vertices needs no 5 GB index.  The scan lists,
per position reaching y, the out-edges whose heads reach y, and the walk
reads only those.

The sweep behind the ab-index keeps, per state, a table from path length
(and the letters past the first ``_LOW``) to one Python int that packs the
counts of many ab-words, one fixed-width slot per word.  A descent moves
every word's count at once by one big-int shift.  The slot width comes from
a prepass, :func:`_path_counts`, that counts the paths from
the source to every vertex: no slot can exceed that count, since
coefficients count paths and never cancel, so no slot carries into the
next.  :meth:`LabeledDigraph._ab_sweep` is the one reader of these tables:
it sizes the slots, sweeps, and decodes each result once, whose
coefficients must sum to the prepass's path count, or InternalError is
raised.  ``ab_index`` reads its one table at the target, ``ab_index_from``
and the cd-span verdict read every table.  The rising and falling
polynomials read one run-count table (below) at the target instead,
unless ``ab_index`` has just swept the same interval: then they read the
coefficients of a^(k-1) and b^(k-1) off the ab-index it keeps.

A graph is *balanced* when every interval has, for each length k, equally
many rising paths (all ascents) and falling paths (all descents).  Balance
is exactly the condition under which every interval's ab-index can be
rewritten in the variables c = a+b, d = ab+ba; :meth:`LabeledDigraph.is_balanced`
checks it and reports either a witness interval or the cd-index.

The balance check runs the same sweep on run counts (a length -> count
table for rising paths and one for falling paths) from many sources at
once.  The sources are every position but the last two: a path from the
second-to-last position has one edge, and a one-edge path both rises
and falls, so neither that position nor the sink starts an unbalanced
interval.  They go in chunks of ``_CHUNK`` consecutive positions from
position 0.  Source i of a chunk is seeded with ``1 << block*i`` along
its out-edges, so every count holds one ``block``-bit field per source,
and each addition of the sweep adds all the fields at once.  ``block``
is the bit length of the largest N(y) = 1 + the sum of N(t) over the
in-edges t -> y, the number of paths ending at y from any start, found
once per graph by the same prepass.  A field
counts paths from one source to y, fewer than N(y), so it stays below
``2**block`` and never carries into the next.  The XOR of the rising and
falling counts at a position has its lowest set bit in the field of the
lowest source that differs there; its first such position and the
smallest differing length, read from its fields, are the witness.
``check_balance_equivalence`` takes its per-length verdict from this
witness, and compares the same packed counts from the same sources at
even lengths, without stopping early.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence

from .ncpoly import AbPoly, CdPoly, IntPoly, NotInSpan, _BITS_TO_AB, ab_to_cd

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

    def ascent_masks(self, labels: Sequence[Hashable]) -> list[int]:
        """Bit i of entry j is set iff labels[i] ~ labels[j].

        Raises UnknownLabel when a label is missing from the order.
        """
        rank = self._rank
        missing = [label for label in labels if label not in rank]
        if missing:
            raise UnknownLabel(f"labels {sorted(map(str, missing))} missing from the linear order")
        masks = [0] * len(labels)
        below = 0
        for i in sorted(range(len(labels)), key=lambda i: rank[labels[i]]):
            below |= 1 << i
            masks[i] = below
        return masks

    def to_json(self) -> dict:
        return {"mode": "linear", "order": list(self._order)}

    def __repr__(self):
        return f"LinearRelation({list(self._order)})"


class PairsRelation:
    """Explicit relation: x ~ y iff the ordered pair (x, y) was listed."""

    def __init__(self, pairs: Iterable[tuple]):
        self._pairs = frozenset((x, y) for x, y in pairs)

    @property
    def labels(self) -> frozenset:
        return frozenset(x for pair in self._pairs for x in pair)

    def related(self, x, y) -> bool:
        return (x, y) in self._pairs

    def ascent_masks(self, labels: Sequence[Hashable]) -> list[int]:
        """Bit i of entry j is set iff labels[i] ~ labels[j], from one pass over the pairs."""
        get = {label: i for i, label in enumerate(labels)}.get
        masks = [0] * len(labels)
        for x, y in self._pairs:
            i = get(x)
            if i is not None:
                j = get(y)
                if j is not None:
                    masks[j] |= 1 << i
        return masks

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

# letters of an ab-word packed into the slot index of a sweep table; the
# rest ride in the table key (see _sweep)
_LOW = 10

# sources sharing one run-count sweep of the balance check (see _witness).
# On the whole S6 Bruhat graph and on a 15,942-vertex realized graph,
# chunks of 32, 64 and 128 took 0.25, 0.19 and 0.16 s and 0.73, 0.63 and
# 0.60 s (medians of 7, Python 3.11.7, 2 vCPUs); 256 gained no more
_CHUNK = 128

# paths turned into ab-words at a time by ab_index_by_paths, which holds
# one batch and its label and letter columns at once.  On the 162,482
# paths of S5 [e, w0], batches of 256, 1,024, 4,096 and 16,384 took 0.31,
# 0.30, 0.31 and 0.35 s; on the 65,536 of the realized c^16, 1,024 peaked
# at 6.5 MiB and 4,096 at 7.8 (Python 3.11.7, 2 vCPUs)
_PATH_BATCH = 1024


@lru_cache(maxsize=None)
def _low_words(m: int) -> tuple:
    """The m-letter ab-words by slot index: letter i is bit i, a = 0 and b = 1."""
    return tuple(bin(w | 1 << m)[:2:-1].translate(_BITS_TO_AB) for w in range(1 << m))


class _Letters(dict):
    """The descent letter of each (label, next label) pair, asking ``related`` once per pair."""

    def __init__(self, related):
        self.related = related

    def __missing__(self, pair):
        letter = self[pair] = "a" if self.related(*pair) else "b"
        return letter


def _find_cycle(vertices: tuple, out: list, order: list) -> list:
    """A directed cycle, read off the vertices Kahn's pass left out of ``order``.

    ``out[i]`` lists (head index, _, _) triples.  A leftover vertex keeps an
    in-edge from a leftover (itself, for a loop), else its in-degree would
    have reached zero; so stepping back along such in-edges from any
    leftover revisits a vertex, and that stretch, reversed, is a cycle.  It
    is returned closed, its first vertex repeated at the end.
    """
    done = set(order)
    # a leftover's out-edges lead to leftovers only: their in-degrees never reach zero
    back = {h: t for t, row in enumerate(out) if t not in done for h, _, _ in row}
    step = {}  # leftover -> its place in the walk back
    v = next(iter(back))
    while v not in step:
        step[v] = len(step)
        v = back[v]
    cycle = [*step][step[v]:][::-1]
    return [vertices[i] for i in cycle + cycle[:1]]


def _kahn(out: list) -> tuple[list, int]:
    """Kahn's topological order of vertex indices, and how many sources lead it.

    ``out[i]`` lists (head index, _, _) triples.  The sources come in index
    order, then each vertex as its last in-edge is removed; a cycle leaves
    the order short.
    """
    indeg = [0] * len(out)
    for row in out:
        for h, _, _ in row:
            indeg[h] += 1
    order = [i for i in range(len(out)) if not indeg[i]]
    nsources = len(order)
    for i in order:  # the list grows while it is read: a FIFO queue
        for h, _, _ in out[i]:
            indeg[h] -= 1
            if not indeg[h]:
                order.append(h)
    return order, nsources


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
    None for an unbalanced or unbounded graph.  A balanced graph whose
    ab-index is no cd-polynomial is a fault of the library, reported as
    InternalError (see :func:`_checked_cd`).
    """

    balanced: bool
    witness: BalanceWitness | None = None
    _graph: LabeledDigraph | None = field(default=None, repr=False, compare=False)

    @cached_property
    def cd_index(self) -> CdPoly | None:
        g = self._graph
        if not self.balanced or g is None or not g.is_bounded():
            return None
        # a balanced graph's ab-index is a cd-polynomial; [x, x]'s is 0
        psi = g.ab_index(g.zero_hat(), g.one_hat())
        g._ab = None  # nothing asks the report's copy for (r, f): it keeps no ab-index
        return _checked_cd(psi, "a graph found balanced has no cd-index")


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


def _checked_cd(psi: AbPoly, failure: str) -> CdPoly:
    """The cd-polynomial ``psi`` rewrites to, where it must; InternalError if it does not.

    Balance makes every ab-index of the graph a cd-polynomial, so a residual
    here is a fault of the library, not of its input.  The message is
    ``failure`` followed by the residual of the conversion in factored form.
    """
    try:
        return ab_to_cd(psi)
    except NotInSpan as exc:
        raise InternalError(f"{failure} (residual {exc.factored_residual})") from None


def _sweep(
    out: list, masks: list, start: int, width: int = 0, count: int = 1, block: int = 0
) -> Iterator[tuple]:
    """The (position, last label) states of paths from ``start``, one position at a time.

    ``out`` and ``masks`` are an int form (see the module docstring):
    positions in topological order, out-edges as (head position, label id,
    key).  A state holds a pair (asc, desc) of tables: the one read when the
    next edge makes an ascent and the one read at a descent.  With a slot
    ``width`` (in bits) the two are one ab-word table; with width 0 they
    are run-count tables.

    An ab-word table maps a key to one int that packs the counts of many
    words.  A path of k edges has k - 1 letters; the first ``_LOW`` of
    them pick the slot, letter i being bit i of the slot index (a = 0,
    b = 1), and slot w sits at bits ``w*width`` up to ``(w+1)*width``.
    The key is k + n*hi, with n the number of vertices (more than any
    path length) and bit j of hi the letter ``_LOW + j``; hi is 0, and
    the key just k, for paths of at most ``_LOW + 1`` edges.  An ascent
    maps key k to k + 1 and keeps the int.  A descent at letter position
    p = k - 1 < ``_LOW`` also shifts the int by ``width << p``, which
    moves every word's count to the slot with bit p set in one big-int
    operation; a descent at a later position sets bit p - ``_LOW`` of
    hi instead.  The cap keeps an int to at most ``2**_LOW`` slots, so a
    long chain costs one entry per length, not one slot per word.

    A slot counts paths from the start to one vertex, and coefficients
    never cancel, so no slot exceeds the number of paths from the start
    to any vertex.  A width at least that count's bit length therefore
    never carries one slot into the next: the caller's duty (see
    :func:`_path_counts`).

    A run-count table maps a path length to a count: asc counts the
    rising paths and desc the falling ones, and a one-edge path is in
    both.  Most paths neither rise nor fall, so a run-count state is made
    only once a rising or falling path reaches it, and a label whose
    table for the next edge is empty is skipped.  A reached position
    still gets its row, empty if no such path reaches it, and is yielded:
    zero counts there differ from a position never yielded, which no
    path reaches.  A run-count sweep may start from ``count`` sources at once:
    positions ``start`` up to ``start + count - 1``.  Source i owns bits
    ``block*i`` up to ``block*(i+1)`` of every count, seeded with
    ``1 << block*i`` along its out-edges at length 1, and the additions
    below then count every source's paths in one int.  A field counts
    paths from its source to one vertex, so a ``block`` at least the bit
    length of the number of paths ending at any vertex never carries one
    field into the next: the caller's duty (see :func:`_path_counts`).
    An ab-word sweep has one source.

    The sources are seeded before the walk; additions commute, so a
    state is the same as when each source is seeded on reaching it.
    Positions are taken in order, so when the sweep reaches position p
    its states are final: it yields (p, {last label id: (asc, desc)}),
    drops them, and only then extends p's paths along its out-edges.
    An edge with label id ``last`` continues a path whose last label id
    is ``label`` by an ascent iff bit ``label`` of ``masks[last]`` is
    set; the test and the choice of table are made once per (out-edge,
    last label).  Every position reachable from a source, and no other,
    is yielded, so a caller may stop early.
    """
    words = width > 0
    stride = len(out)
    state: list = [None] * stride
    for i in range(count):
        seed = 1 << block * i
        for h, last, _ in out[start + i]:
            row = state[h]
            if row is None:
                row = state[h] = {}
            pair = row.get(last)
            if pair is None:
                asc = {}
                pair = row[last] = (asc, asc if words else {})
            asc, desc = pair
            asc[1] = asc.get(1, 0) + seed
            if desc is not asc:
                desc[1] = desc.get(1, 0) + seed
    for p in range(start + 1, stride):
        table = state[p]
        if table is None:
            continue
        state[p] = None
        yield p, table
        for h, last, _ in out[p]:
            mask = masks[last]
            row = state[h]
            if row is None:
                row = state[h] = {}
            pair = row.get(last)
            if not words:
                # a pair is made once a rising or falling path reaches it
                for label, (asc, desc) in table.items():
                    rise = mask >> label & 1
                    src = asc if rise else desc
                    if not src:
                        continue
                    if pair is None:
                        pair = row[last] = ({}, {})
                    dst = pair[0] if rise else pair[1]
                    for k, c in src.items():
                        k += 1
                        dst[k] = dst.get(k, 0) + c
                continue
            if pair is None:
                pair = row[last] = ({},) * 2
            dst = pair[0]
            for label, (asc, _) in table.items():
                if mask >> label & 1:
                    for k, c in asc.items():
                        k += 1
                        dst[k] = dst.get(k, 0) + c
                    continue
                for key, n in asc.items():
                    # a key with high letters exceeds n > _LOW + 1, so
                    # key <= _LOW means hi = 0 and a letter at key - 1 < _LOW
                    if key <= _LOW:
                        n <<= width << (key - 1)
                        key += 1
                    else:
                        key += 1 + (stride << (key % stride - 1 - _LOW))
                    dst[key] = dst.get(key, 0) + n


def _sums(table: dict) -> tuple[dict, dict]:
    """A yielded position's (asc, desc) pair, each summed over its last labels."""
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


def _path_counts(out: list, start: int | None = None, end: int | None = None) -> tuple[list, int]:
    """Paths ending at every position of an int form, by one pass in order, and the largest count.

    Seeded 1 at position ``start``, a count is the number of paths from it
    (0 where unreachable); no slot of a packed ab-word table exceeds it, so
    a slot as wide as the largest count, in whole bytes, never carries.
    With an ``end`` position the pass ends there, and only the counts up
    to it, the ones feeding its table, are final and compared.  Seeded 1
    at every position (no start), a count is N(y), the number of paths
    ending at y from any start, the empty one included; a run-count field
    counts fewer, so a field as wide as the largest N(y) in bits never
    carries into the next.
    """
    if start is None:
        start, counts = 0, [1] * len(out)
    else:
        counts = [0] * len(out)
        counts[start] = 1
    largest = 1
    for p in range(start, len(out) if end is None else end + 1):
        c = counts[p]
        if c:
            if c > largest:
                largest = c
            for h, _, _ in out[p]:
                counts[h] += c
    return counts, largest


def _witness(out: list, masks: list) -> BalanceWitness | None:
    """The first source position with an unbalanced interval, and its first one, on an int form.

    The witness names positions; :meth:`LabeledDigraph._balance_witness`
    names vertices, and ``construct.conjecture_search`` reads the verdict
    off its draws before it builds a graph.  The sources are every
    position but the last two: a path from the second-to-last position
    is one edge, and one-edge paths both rise and fall, so neither it nor
    the sink starts an unbalanced interval.  They go ``_CHUNK`` at a time
    from position 0, in fields as wide as the bit length of the largest
    count of :func:`_path_counts`, computed once; a graph of two vertices
    has no source and sweeps nothing.  At each position a chunk's
    differing sources are the fields set in the XOR of the rising and
    falling counts over the lengths; the lowest set bit names the lowest
    such source.  Positions come in order, so the first position at which
    the lowest source differs is kept, and the sweep stops once the
    chunk's first source differs.
    """
    sources = len(out) - 2
    if sources < 1:
        return None
    block = _path_counts(out)[1].bit_length()
    for start in range(0, sources, _CHUNK):
        found = None  # (source, position, r, f) of the lowest differing source
        for p, table in _sweep(out, masks, start, 0, min(_CHUNK, sources - start), block):
            r, f = _sums(table)
            if r == f:
                continue
            diff = 0
            for k in r.keys() | f.keys():
                diff |= r.get(k, 0) ^ f.get(k, 0)
            i = ((diff & -diff).bit_length() - 1) // block
            if found is None or i < found[0]:
                found = i, p, r, f
                if not i:
                    break
        if found is not None:
            i, p, r, f = found
            shift, mask = block * i, (1 << block) - 1  # the lowest differing source's own counts
            r, f = ({k: c >> shift & mask for k, c in t.items()} for t in (r, f))
            k = min(k for k in r.keys() | f.keys() if r.get(k, 0) != f.get(k, 0))
            return BalanceWitness(start + i, p, k, r.get(k, 0), f.get(k, 0))
    return None


class LabeledDigraph:
    """Finite acyclic multidigraph with labeled edges and a label relation.

    Immutable after construction.  Vertices and labels may be any hashable
    values; parallel edges are allowed and distinguished by position.
    Construction validates that edge endpoints exist, that under a linear
    relation every edge label appears in the order, and that there are no
    directed cycles (a witness cycle is reported otherwise).

    Construction builds the int form described in the module docstring;
    each position's out-edges are listed in eid order.
    """

    def __init__(
        self,
        vertices: Iterable[Hashable],
        edges: Iterable[tuple],
        relation,
    ):
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphError("duplicate vertex identifier")
        ids: dict = {}
        out: list[list] = [[] for _ in vertices]
        for eid, (tail, head, label) in enumerate(edges):
            try:
                t, h = index[tail], index[head]
            except KeyError:
                raise DanglingVertex(f"edge {tail!r} -> {head!r} leaves the vertex set") from None
            lab = ids.get(label)
            if lab is None:
                lab = ids[label] = len(ids)
            out[t].append((h, lab, eid))
        labels = tuple(ids)
        self._build(vertices, out, labels, relation.ascent_masks(labels), relation)

    def _build(self, vertices: tuple, out: list, labels: tuple, masks: list, relation) -> None:
        """Fill the int form from out-lists indexed like ``vertices``.

        ``out[i]`` lists vertex i's out-edges as (head index, label id, key)
        in key order; positions are the topological order of ``_kahn``.
        """
        n = len(vertices)
        order, self._nsources = _kahn(out)
        if len(order) != n:
            raise CycleDetected(_find_cycle(vertices, out, order))
        self._vertices = vertices
        self._index = order  # the vertex index of each position
        if order == [*range(n)]:  # positions are the indices already
            self._topo = topo = vertices
            self._out = out
        else:
            position = [0] * n
            for p, i in enumerate(order):
                position[i] = p
            self._topo = topo = tuple([vertices[i] for i in order])
            self._out = [[(position[h], lab, key) for h, lab, key in out[i]] for i in order]
        self._pos = dict(zip(topo, range(n)))
        self._labels = labels
        self._masks = masks
        self.relation = relation
        self._frame = None  # kept by alexander._frame
        self._balance = None  # kept by is_balanced
        self._ab = None  # (start, end, ab-index) of the last ab_index sweep

    def _place(self, v) -> int:
        """The position of vertex v; GraphError names v when it is none."""
        try:
            return self._pos[v]
        except (KeyError, TypeError):  # an unhashable value is no vertex either
            raise GraphError(f"vertex {v!r} not in the graph") from None

    @cached_property
    def _view(self) -> tuple:
        """(edges, out-edges by position), built on first use.

        Each position's out-edges come out in the order of its int out-list.
        """
        topo, labels = self._topo, self._labels
        found = [(key, p, h, lab) for p, row in enumerate(self._out) for h, lab, key in row]
        found.sort()
        outs: list[list] = [[] for _ in topo]
        edges = []
        new = tuple.__new__  # the fields need no check: skip Edge's Python-level __new__
        for eid, (_, p, h, lab) in enumerate(found):
            e = new(Edge, (topo[p], topo[h], labels[lab], eid))
            edges.append(e)
            outs[p].append(e)
        return tuple(edges), outs

    @cached_property
    def _reach(self) -> tuple[list, list]:
        """(above, below) bitsets by position, bit i standing for ``vertices[i]``.

        above[p] holds the vertices reachable from p, below[p] those reaching p.
        """
        out, index = self._out, self._index
        above = [0] * len(out)
        below = [1 << i for i in index]
        for p in reversed(range(len(out))):
            bits = 1 << index[p]
            for h, _, _ in out[p]:
                bits |= above[h]
            above[p] = bits
        for p, row in enumerate(out):  # p's below is whole before its turn
            bits = below[p]
            for h, _, _ in row:
                below[h] |= bits
        return above, below

    def _members(self, bits: int) -> list:
        """The vertices whose bits are set, in vertex order."""
        vertices = self._vertices
        bits = bin(bits)[:1:-1]
        found = []
        i = bits.find("1")
        while i >= 0:
            found.append(vertices[i])
            i = bits.find("1", i + 1)
        return found

    # -- basic structure -------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        return self._view[0]

    @property
    def topological_order(self) -> tuple:
        return self._topo

    def out_edges(self, v) -> tuple:
        return tuple(self._view[1][self._place(v)])

    def sources(self) -> tuple:
        # Kahn's queue starts with the sources, in vertex order
        return self._topo[:self._nsources]

    def sinks(self) -> tuple:
        return self._sinks

    @cached_property
    def _sinks(self) -> tuple:
        """The vertices without out-edges, in vertex order, found on first use."""
        out, pos = self._out, self._pos
        return tuple(v for v in self._vertices if not out[pos[v]])

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

    def leq(self, x, y) -> bool:
        """The reachability order: x <= y iff a directed path runs from x to y.

        One bit test, but the first call of this or ``interval`` builds the
        reachability index: about V**2/8 bytes per direction for V
        vertices, 16 MB for 8,785.  ``paths`` does not build it.
        """
        return bool(self._reach[0][self._place(x)] >> self._index[self._place(y)] & 1)

    def interval(self, x, y) -> "LabeledDigraph":
        """Vertex-induced subgraph on {z : x <= z and z <= y}, same relation.

        Its vertices come in this graph's vertex order; it is empty unless x <= y.
        The first call builds the reachability index of about V**2/8 bytes
        per direction (see ``leq``).
        """
        above, below = self._reach
        return self.induced(self._members(above[self._place(x)] & below[self._place(y)]))

    def induced(self, members: Sequence[Hashable]) -> "LabeledDigraph":
        """The subgraph on ``members`` and every edge between two of them.

        Vertices keep the order given and edges the order of this graph, so
        members listed in vertex order give the subgraph that filtering
        ``vertices`` and ``edges`` would.  The int form is read off this
        graph's, sharing its label ids and ascent masks; endpoints, labels
        and acyclicity hold already and are not checked again.  Apart from
        one list of this graph's length, the work is proportional to the
        members' out-edges, not to the whole graph.
        """
        members = tuple(members)
        places = [*map(self._place, members)]
        local = [-1] * len(self._out)
        for i, p in enumerate(places):
            if local[p] >= 0:
                raise GraphError("duplicate vertex identifier")
            local[p] = i
        parent = self._out
        out = [
            [(local[h], lab, key) for h, lab, key in parent[p] if local[h] >= 0]
            for p in places
        ]
        sub = LabeledDigraph.__new__(LabeledDigraph)
        sub._build(members, out, self._labels, self._masks, self.relation)
        return sub

    # -- paths and descent words -----------------------------------------

    def paths(self, x, y) -> Iterator[Path]:
        """All directed paths from x to y, as tuples of edges (length >= 1).

        Exponential in general; the dynamic programming methods below avoid
        this, and enumeration is intended for small graphs and oracles.
        One backward scan from y down to x gives each position that reaches
        y its row: the (head position, Edge) pairs of its out-edges, in eid
        order, whose heads reach y.  There is none when x does not reach y,
        and then nothing is walked.  The walk reads rows only, so every edge
        it takes leads on to y, and it keeps an explicit stack, so path
        length is not bounded by the recursion limit.  The scan is linear
        and builds no reachability index of the kind ``leq`` and
        ``interval`` use.
        """
        start, end = self._place(x), self._place(y)
        if end <= start:
            return
        # by one backward scan down to x, the row of each position that
        # reaches y: its (head position, Edge) pairs whose head reaches y
        out, outs = self._out, self._view[1]
        rows: dict = {end: ()}
        for q in range(end - 1, start - 1, -1):
            row = [(h, e) for (h, _, _), e in zip(out[q], outs[q]) if h in rows]
            if row:
                rows[q] = row
        if start not in rows:
            return
        trail: list[Edge] = []
        pending = [iter(rows[start])]
        while pending:
            for h, e in pending[-1]:
                if h == end:
                    yield (*trail, e)
                else:
                    trail.append(e)
                    pending.append(iter(rows[h]))
                    break
            else:
                pending.pop()
                if trail:
                    trail.pop()

    def ab_index_by_paths(self, x, y) -> AbPoly:
        """The ab-index of [x, y] by enumerating its paths (zero if there are none).

        Exponential in general: the oracle for :meth:`ab_index`, and the
        enumeration behind the rising and falling quasisymmetric functions.
        The paths come ``_PATH_BATCH`` at a time, grouped by length.  A
        group's labels are read one position at a time as a column, and
        each pair of adjacent columns becomes a column of letters through a
        memo that asks ``relation.related`` once per distinct pair of
        labels; a path's word joins its letters across the columns.  No
        mask or label id of the int form is read, so the sweep is checked
        against the relation itself; besides the sum, memory holds one
        batch.
        """
        letter = _Letters(self.relation.related).__getitem__
        label = itemgetter(2)
        words: Counter = Counter()
        found = self.paths(x, y)
        while batch := list(islice(found, _PATH_BATCH)):
            groups: dict = {}
            for path in batch:
                groups.setdefault(len(path), []).append(path)
            for k, group in groups.items():
                if k == 1:
                    words[""] += len(group)
                    continue
                labels = [[*map(label, map(itemgetter(i), group))] for i in range(k)]
                letters = [map(letter, zip(a, b)) for a, b in zip(labels, labels[1:])]
                words.update(map("".join, zip(*letters)))
        return AbPoly._trusted(words)

    def is_rising(self, path: Path) -> bool:
        rel = self.relation.related
        return all(rel(e.label, f.label) for e, f in zip(path, path[1:]))

    def is_falling(self, path: Path) -> bool:
        rel = self.relation.related
        return not any(rel(e.label, f.label) for e, f in zip(path, path[1:]))

    # -- dynamic programming ----------------------------------------------

    def _ab_sweep(self, start: int, end: int | None = None) -> Iterator[tuple]:
        """(p, ab-index of [x, v]) for the position p of every v that x, at ``start``, reaches.

        The one reader of packed ab-word tables: it sizes their slots from
        :func:`_path_counts` and decodes each table under its path count.
        With an ``end`` position, the slots are sized by the counts up to
        it, and the sweep yields ``end`` alone, if it reaches it, and stops
        at the first position it reaches at or past ``end``: positions come
        in order, so one past it means ``end`` is out of reach.
        """
        counts, largest = _path_counts(self._out, start, end)
        width = (largest.bit_length() + 7) & -8
        for p, table in _sweep(self._out, self._masks, start, width):
            if end is None or p == end:
                yield p, self._decode(_sums(table)[0], width, counts[p])
            if end is not None and p >= end:
                return

    def _decode(self, table: dict, width: int, paths: int) -> AbPoly:
        """The AbPoly of a packed ab-word table, checked against its number of paths."""
        size = width >> 3
        stride = len(self._vertices)
        terms = {}
        total = 0
        for key, packed in table.items():
            if key <= _LOW + 1:  # every letter is in the slot index
                k, tail = key, ""
            else:
                hi, k = divmod(key, stride)
                tail = bin(hi | 1 << (k - 1 - _LOW))[:2:-1].translate(_BITS_TO_AB)
            low = min(k - 1, _LOW)
            try:
                raw = packed.to_bytes(size << low, "little")
            except OverflowError:
                raise InternalError("a packed ab-word table overflowed its slots") from None
            counts = raw if size == 1 else [
                int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)
            ]
            total += sum(counts)
            for head, c in zip(_low_words(low), counts):
                if c:
                    terms[head + tail] = c
        if total != paths:
            raise InternalError(
                f"ab-word coefficients sum to {total}, but {paths} paths were counted"
            )
        return AbPoly._trusted(terms)

    def ab_index_from(self, x) -> dict:
        """ab-indexes of [x, v] for every v, by one pass in topological order."""
        topo = self._topo
        psi = dict.fromkeys(self._vertices, AbPoly.zero())
        psi.update((topo[p], poly) for p, poly in self._ab_sweep(self._place(x)))
        return psi

    def ab_index(self, x, y) -> AbPoly:
        """Sum of descent words over all paths from x to y.

        Raises NoPath when y is not reachable from x; returns the zero
        polynomial for x == y (an empty sum).  The result is kept with its
        two positions, replacing the last one kept, and the rising and
        falling polynomials of the same pair are read off it with no second
        sweep (see ``_run_polys``).
        """
        start, end = self._place(x), self._place(y)
        if start == end:
            return AbPoly.zero()
        for _, psi in self._ab_sweep(start, end):
            self._ab = start, end, psi
            return psi
        raise NoPath(f"no directed path from {x!r} to {y!r}")

    @staticmethod
    def _poly(counts: dict, shift: int) -> IntPoly:
        """The polynomial summing q^(len - shift) over a length -> count table."""
        return IntPoly._trusted({k - shift: c for k, c in counts.items()})

    def _run_polys(self, x, y, shift: int, empty: IntPoly) -> tuple[IntPoly, IntPoly]:
        """(rising, falling) polynomials of [x, y] by q^(len - shift); ``empty`` twice for x == y.

        A rising path of k edges has the descent word a^(k-1) and a falling
        one b^(k-1), the empty word counting both at k = 1.  So when
        ``ab_index(x, y)`` was the last ab-index swept, the counts are those
        words' coefficients in it, read in one pass over its words.
        Otherwise the run-count sweep from x stops at the first position at
        or past y's; NoPath is raised when that position is not y's.
        """
        start, end = self._place(x), self._place(y)
        if start == end:
            return empty, empty
        kept = self._ab
        if kept is not None and kept[:2] == (start, end):
            terms = kept[2]._terms
            r, f = ({len(w) + 1: c for w, c in terms.items() if other not in w} for other in "ba")
            return self._poly(r, shift), self._poly(f, shift)
        for p, table in _sweep(self._out, self._masks, start):
            if p == end:
                r, f = _sums(table)
                return self._poly(r, shift), self._poly(f, shift)
            if p > end:
                break
        raise NoPath(f"no directed path from {x!r} to {y!r}")

    def rising_falling(self, x, y) -> tuple[IntPoly, IntPoly]:
        """(r, f) where r sums q^(len-1) over rising x->y paths and f over falling ones."""
        return self._run_polys(x, y, 1, IntPoly.zero())

    def capital_rising_falling(self, x, y) -> tuple[IntPoly, IntPoly]:
        """(R, F) with R = q*r and F = q*f for x < y; both 1 when x == y."""
        return self._run_polys(x, y, 0, IntPoly.one())

    # -- balance -----------------------------------------------------------

    def is_balanced(self) -> BalanceReport:
        """Check that every interval has r = f; report a witness or the cd-index.

        The witness names the first interval (in topological order) and the
        first path length at which rising and falling counts differ.  The
        cd-index of [source, sink] is available when the graph is balanced
        and bounded, computed when the report's ``cd_index`` is first read.
        The graph is immutable, so the report is computed once and returned
        again on every later call.
        """
        report = self._balance
        if report is None:
            witness = self._balance_witness()
            # a shallow copy, made before the report is kept, shares this
            # graph's immutable tables but not the report, so graph and
            # report form no reference cycle and are freed by reference counting
            report = self._balance = BalanceReport(
                witness is None, witness, copy.copy(self) if witness is None else None
            )
        return report

    def _balance_witness(self) -> BalanceWitness | None:
        """The witness of :func:`_witness` on this graph's int form, with vertices for positions."""
        witness = _witness(self._out, self._masks)
        if witness is None:
            return None
        topo = self._topo
        return witness._replace(x=topo[witness.x], y=topo[witness.y])

    def check_balance_equivalence(self) -> BalanceEquivalenceReport:
        """Evaluate the three balance characterizations independently.

        (per length) rising count equals falling count for every interval
        and every path length; (even length) same restricted to even
        lengths; (cd span) the ab-index of every interval is a
        cd-polynomial.  Raises InternalError if the three disagree, since
        they are provably equivalent.  The per-length verdict is the one
        :meth:`is_balanced` reports, from the early-stopping :func:`_witness`,
        so the check cross-checks it.  The sources are those of
        :func:`_witness`, every position but the last two.  The even-length
        verdict compares the packed counts of run-count sweeps from
        ``_CHUNK`` sources each, every source's field at once, with the
        field width of :func:`_path_counts`; the cd-span verdict decodes
        one ab-word sweep per source.
        """
        out = self._out
        per_length = self.is_balanced().balanced
        even_length = True
        sources = len(out) - 2
        block = _path_counts(out)[1].bit_length()
        for start in range(0, sources, _CHUNK):
            count = min(_CHUNK, sources - start)
            for _, table in _sweep(out, self._masks, start, 0, count, block):
                r, f = _sums(table)
                if any(r.get(k, 0) != f.get(k, 0) for k in r.keys() | f.keys() if k % 2 == 0):
                    even_length = False
        cd_span = True
        for start in range(sources):
            for _, psi in self._ab_sweep(start):
                try:
                    ab_to_cd(psi)
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
            f"{sum(map(len, self._out))} edges, {self.relation!r})"
        )


def _pairs_on_used_labels(edges: list, related) -> PairsRelation:
    """The relation ``related`` restricted to the labels the edges carry, as pairs."""
    labels = {lab for _, _, lab in edges}
    return PairsRelation((l, m) for l in labels for m in labels if related(l, m))


def stanley_product(g: LabeledDigraph, h: LabeledDigraph) -> LabeledDigraph:
    """Glue the sink of g to the source of h through paired edges.

    Edges into the sink of g and out of the source of h are fused into
    single edges carrying label pairs, listed after g's other edges and
    before h's.  The relation has one rule: a g-label before a g-label or a
    pair compares g-labels, a pair or an h-label before an h-label compares
    h-labels, and nothing else is related.  The ab-index of the result is
    the product of the factors' ab-indexes.
    """
    for graph in (g, h):
        if not graph.is_bounded():
            raise Unbounded("stanley product requires bounded factors")
        if graph.zero_hat() == graph.one_hat():
            raise Unbounded("stanley product requires source != sink")
    g_top, h_bot = g.one_hat(), h.zero_hat()
    vertices = [("G", v) for v in g.vertices if v != g_top]
    vertices += [("H", v) for v in h.vertices if v != h_bot]
    edges = [(("G", e.tail), ("G", e.head), ("G", e.label)) for e in g.edges if e.head != g_top]
    edges += [
        (("G", e.tail), ("H", f.head), ("GH", e.label, f.label))
        for e in g.edges if e.head == g_top
        for f in h.edges if f.tail == h_bot
    ]
    edges += [(("H", f.tail), ("H", f.head), ("H", f.label)) for f in h.edges if f.tail != h_bot]

    def related(l, m) -> bool:
        if l[0] == "G":
            return m[0] != "H" and g.relation.related(l[1], m[1])
        return m[0] == "H" and h.relation.related(l[-1], m[1])  # l[-1]: l's h-label

    return LabeledDigraph(vertices, edges, _pairs_on_used_labels(edges, related))


def cartesian_product(g: LabeledDigraph, h: LabeledDigraph) -> LabeledDigraph:
    """Box product: vertices are pairs, each edge moves in one coordinate.

    Labels keep their origin.  Two labels of one origin compare in that
    factor; a g-label relates to every h-label but never the other way
    around, so rising paths must exhaust their g-steps first.
    """
    vertices = [(x, z) for x in g.vertices for z in h.vertices]
    edges = [((x, f.tail), (x, f.head), ("H", f.label)) for x in g.vertices for f in h.edges]
    edges += [((e.tail, z), (e.head, z), ("G", e.label)) for e in g.edges for z in h.vertices]

    def related(l, m) -> bool:
        if l[0] != m[0]:
            return l[0] == "G"
        return (g if l[0] == "G" else h).relation.related(l[1], m[1])

    return LabeledDigraph(vertices, edges, _pairs_on_used_labels(edges, related))


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
    except KeyError as exc:
        raise GraphError(f"malformed graph description: missing {exc}") from None
    except TypeError:  # a list, a string or a number where an object belongs
        what = "its relation" if isinstance(data, dict) else "it"
        raise GraphError(f"malformed graph description: {what} is not a JSON object") from None
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
        except RecursionError:
            raise GraphError(f"{path}: JSON nested too deeply to read") from None
    return from_json_dict(data)
