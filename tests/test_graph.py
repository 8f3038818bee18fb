"""Graph container invariants and the collapsed undirected simple view."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

from conftest import make_graph, make_vertex
from confront_net.errors import DuplicateId, MalformedRecord
from confront_net.graph import (ConfrontGraph, Edge, EdgeOrigin,
                                connected_components, unique_edges)
from confront_net.relation_types import NormalizedType

R = NormalizedType.RELATED_TO
N = NormalizedType.NORTH_OF
ART = NormalizedType.ARTIFICIAL_ADJACENCY


def test_rejects_duplicate_vertices():
    with pytest.raises(DuplicateId):
        ConfrontGraph([make_vertex("a"), make_vertex("a")], [])


def test_rejects_self_loops():
    with pytest.raises(MalformedRecord):
        ConfrontGraph([make_vertex("a")], [Edge("a", "a", R)])


def test_rejects_dangling_edges():
    with pytest.raises(MalformedRecord):
        ConfrontGraph([make_vertex("a")], [Edge("a", "ghost", R)])


def test_rejects_duplicate_typed_edges():
    vs = [make_vertex("a"), make_vertex("b")]
    with pytest.raises(DuplicateId):
        ConfrontGraph(vs, [Edge("a", "b", R), Edge("a", "b", R)])
    # Same endpoints under a different type are two distinct edges.
    g = ConfrontGraph(vs, [Edge("a", "b", R), Edge("a", "b", N)])
    assert g.m == 2


def test_artificial_edges_must_join_sibling_segments():
    vs = [make_vertex("x#1", source_object="x", source_segment="1"),
          make_vertex("x#2", source_object="x", source_segment="2"),
          make_vertex("y#1", source_object="y", source_segment="1")]
    ConfrontGraph(vs, [Edge("x#1", "x#2", ART, EdgeOrigin.ARTIFICIAL)])
    with pytest.raises(MalformedRecord):
        ConfrontGraph(vs, [Edge("x#1", "y#1", ART, EdgeOrigin.ARTIFICIAL)])


def test_undirected_pairs_collapse_parallel_and_antiparallel():
    vs = [make_vertex(v) for v in "abc"]
    g = ConfrontGraph(vs, [Edge("a", "b", R), Edge("b", "a", N),
                           Edge("a", "b", N), Edge("b", "c", R)])
    assert g.m == 4
    assert g.undirected_pairs() == [(0, 1), (1, 2)]


def test_components_follow_insertion_order():
    g = make_graph([(3, 4), (0, 1)], n=6)
    assert g.components() == [["v0", "v1"], ["v2"], ["v3", "v4"], ["v5"]]


@st.composite
def index_graphs(draw):
    """n >= 1 vertices and up to 3n index pairs, loops and repeats
    included."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


@given(index_graphs())
def test_connected_components_match_scipy(graph):
    n, pairs = graph
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    _, labels = scipy_components(
        coo_matrix(([1] * len(pairs), (rows, cols)), shape=(n, n)),
        directed=False)
    expected: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        expected.setdefault(label, []).append(i)
    # Ascending members, components ordered by their first member.
    assert connected_components(n, pairs) == list(expected.values())


def test_connected_components_of_nothing():
    assert connected_components(0, []) == []


def test_induced_subgraph_keeps_orders():
    g = make_graph([(0, 1), (1, 2), (2, 3), (0, 3)])
    sub = g.induced_subgraph(["v3", "v0", "v1"])
    assert sub.vertex_ids() == ["v0", "v1", "v3"]
    assert [(e.source, e.target) for e in sub.edges] == [
        ("v0", "v1"), ("v0", "v3")]


def test_structural_equality_ignores_meta():
    a = make_graph([(0, 1)])
    b = make_graph([(0, 1)])
    b.meta["note"] = "x"
    assert a == b
    assert a != make_graph([(0, 1), (1, 2)])


def test_structural_equality_includes_vertex_order():
    edges = [Edge("a", "b", R)]
    ab = ConfrontGraph([make_vertex("a"), make_vertex("b")], edges)
    ba = ConfrontGraph([make_vertex("b"), make_vertex("a")], edges)
    assert ab != ba
    assert ab == ConfrontGraph([make_vertex("a"), make_vertex("b")], edges)


def test_unique_edges_keep_first_and_adopt_bindings():
    edges = [Edge("a", "b", R, target_segment=None),
             Edge("a", "b", R, target_segment="s2"),
             Edge("a", "b", N),
             Edge("a", "b", R, target_segment="s3")]
    out = unique_edges(edges)
    assert [(e.source, e.target, e.type) for e in out] == [
        ("a", "b", R), ("a", "b", N)]
    # The surviving edge adopts the first explicit binding among its
    # dropped duplicates, later ones change nothing.
    assert out[0].target_segment == "s2"
