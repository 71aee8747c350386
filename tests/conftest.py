"""Shared fixtures and independent oracles for the test suite."""

import random

import pytest

from cdindex.digraph import LabeledDigraph, LinearRelation
from cdindex.fixtures import (
    fig1_left,
    fig1_right,
    fig2_relation_i,
    fig2_relation_ii,
    fig3_b3,
)


def run_compositions(labels, relation) -> tuple[tuple, tuple]:
    """Oracle: rising-run and falling-run compositions of a nonempty label sequence.

    The rising runs extend while consecutive labels are related, the
    falling runs while they are not; the two are complements of each other.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("label sequence must be nonempty")

    def runs(extend) -> tuple:
        parts = []
        current = 1
        for prev, cur in zip(labels, labels[1:]):
            if extend(prev, cur):
                current += 1
            else:
                parts.append(current)
                current = 1
        parts.append(current)
        return tuple(parts)

    rel = relation.related
    return runs(rel), runs(lambda x, y: not rel(x, y))


def chain(labels, order=None) -> LabeledDigraph:
    """A path graph v0 -> v1 -> ... with the given edge labels."""
    n = len(labels)
    vertices = [f"v{i}" for i in range(n + 1)]
    edges = [(f"v{i}", f"v{i+1}", lab) for i, lab in enumerate(labels)]
    if order is None:
        order = sorted(set(labels))
    return LabeledDigraph(vertices, edges, LinearRelation(order))


@pytest.fixture
def graph_fig1_left():
    return fig1_left()


@pytest.fixture
def graph_fig1_right():
    return fig1_right()


@pytest.fixture
def graph_fig2_i():
    return fig2_relation_i()


@pytest.fixture
def graph_fig2_ii():
    return fig2_relation_ii()


@pytest.fixture
def graph_b3():
    return fig3_b3()


@pytest.fixture
def all_fixture_graphs(
    graph_fig1_left, graph_fig1_right, graph_fig2_i, graph_fig2_ii, graph_b3
):
    return {
        "fig1_left": graph_fig1_left,
        "fig1_right": graph_fig1_right,
        "fig2_relation_i": graph_fig2_i,
        "fig2_relation_ii": graph_fig2_ii,
        "fig3_b3": graph_b3,
    }


@pytest.fixture
def rng():
    return random.Random(20240811)
