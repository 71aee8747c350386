"""Small reference digraphs shipped with the package, plus their JSON files.

The five graphs are the standing examples used across the test suite and
the command line:

* ``fig1_left`` -- six vertices; three direct source-to-sink edges and two
  rising plus two falling two-step routes.  Balanced, cd-index 2*c + 3.
* ``fig1_right`` -- twelve vertices in four ranks; ten middle edges split
  into five ascending and five descending routes.  Balanced, cd-index 5*d.
* ``fig2_relation_i`` / ``fig2_relation_ii`` -- one diamond-with-stem graph
  under two different label relations; the first (a linear order) gives
  cd-index d, the second (an explicit pair relation) gives cc - d, showing
  that a balanced graph may have a negative cd-coefficient.
* ``fig3_b3`` -- the Boolean lattice on three atoms with the labeling that
  tags each cover step by the element it adds.  The standing example for
  restricted digraphs and Alexander duality.

``write_fixture_files`` regenerates the JSON files byte-for-byte, so the
shipped files are reproducible from code.
"""

from __future__ import annotations

from pathlib import Path

from .digraph import LabeledDigraph, LinearRelation, PairsRelation, to_json_dict
from .jsontext import json_text

__all__ = [
    "FIXTURE_BUILDERS",
    "fig1_left",
    "fig1_right",
    "fig2_relation_i",
    "fig2_relation_ii",
    "fig3_b3",
    "fixture_bytes",
    "write_fixture_files",
]


def fig1_left() -> LabeledDigraph:
    vertices = ["0", "m1", "m2", "m3", "m4", "1"]
    edges = [
        ("0", "m1", "1"),
        ("0", "m2", "1"),
        ("0", "m3", "2"),
        ("0", "m4", "2"),
        ("m1", "1", "2"),
        ("m2", "1", "2"),
        ("m3", "1", "1"),
        ("m4", "1", "1"),
        ("0", "1", "1"),
        ("0", "1", "2"),
        ("0", "1", "3"),
    ]
    return LabeledDigraph(vertices, edges, LinearRelation(["1", "2", "3"]))


def fig1_right() -> LabeledDigraph:
    lower = [f"p{i}" for i in range(1, 6)]
    upper = [f"q{i}" for i in range(1, 6)]
    vertices = ["0"] + lower + upper + ["1"]
    edges = [("0", p, "2") for p in lower]
    # each lower vertex climbs by label 1, and by label 3 to the next column
    edges += [(p, q, "1") for p, q in zip(lower, upper)]
    edges += [(lower[i], upper[i + 1], "3") for i in range(4)]
    edges += [("p5", "q1", "3")]
    edges += [(q, "1", "2") for q in upper]
    return LabeledDigraph(vertices, edges, LinearRelation(["1", "2", "3"]))


def _fig2_graph(relation) -> LabeledDigraph:
    vertices = ["0", "x", "y", "1"]
    edges = [
        ("0", "x", "beta"),
        ("x", "y", "alpha"),
        ("x", "y", "gamma"),
        ("y", "1", "beta"),
    ]
    return LabeledDigraph(vertices, edges, relation)


def fig2_relation_i() -> LabeledDigraph:
    return _fig2_graph(LinearRelation(["alpha", "beta", "gamma"]))


def fig2_relation_ii() -> LabeledDigraph:
    return _fig2_graph(
        PairsRelation([("alpha", "beta"), ("beta", "alpha")])
    )


def fig3_b3() -> LabeledDigraph:
    """The Boolean lattice B_3; a cover I -> I + {i} carries label i."""
    vertices = ["0", "1", "2", "3", "12", "13", "23", "123"]
    edges = [
        ("0", "1", "1"),
        ("0", "2", "2"),
        ("0", "3", "3"),
        ("1", "12", "2"),
        ("1", "13", "3"),
        ("2", "12", "1"),
        ("2", "23", "3"),
        ("3", "13", "1"),
        ("3", "23", "2"),
        ("12", "123", "3"),
        ("13", "123", "2"),
        ("23", "123", "1"),
    ]
    return LabeledDigraph(vertices, edges, LinearRelation(["1", "2", "3"]))


FIXTURE_BUILDERS = {
    "fig1_left": fig1_left,
    "fig1_right": fig1_right,
    "fig2_relation_i": fig2_relation_i,
    "fig2_relation_ii": fig2_relation_ii,
    "fig3_b3": fig3_b3,
}


def fixture_bytes(name: str) -> bytes:
    """Canonical file contents for a named fixture graph."""
    graph = FIXTURE_BUILDERS[name]()
    return (json_text(to_json_dict(graph)) + "\n").encode("ascii")


def write_fixture_files(directory) -> list[Path]:
    """Write every fixture file into `directory`; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_BUILDERS:
        path = directory / f"{name}.json"
        path.write_bytes(fixture_bytes(name))
        written.append(path)
    return written
