"""Modularity, the seeded Louvain, and the community reports.

Hand-computed modularity values: two triangles joined by a bridge under
the natural split give Q = 5/14; one community over everything gives 0;
all-singleton K3 gives -1/3; two K5 cliques with one bridge give 19/42."""

import math
import random

import pytest

from conftest import make_graph, make_vertex, random_graph, synthetic_database
from confront_net.community import (CommunityPartition, community_network,
                                    community_stats, louvain, modularity,
                                    size_gini)
from confront_net.data_model import ObjectKind
from confront_net.errors import UncoveredVertex
from confront_net.extract import ExtractionMethod, extract
from confront_net.graph import ConfrontGraph, Edge
from confront_net.normalize import merge_equal_objects
from confront_net.relation_types import NormalizedType

R = NormalizedType.RELATED_TO


def partition(assignment, q=0.0):
    return CommunityPartition(assignment=assignment, modularity=q,
                              algorithm="fixed", seed=None)


def two_triangles():
    return make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                       (2, 3)])


TRIANGLE_SPLIT = {"v0": 1, "v1": 1, "v2": 1, "v3": 2, "v4": 2, "v5": 2}


def test_modularity_hand_values():
    g = two_triangles()
    assert modularity(g, partition(TRIANGLE_SPLIT)) == pytest.approx(
        5 / 14, abs=1e-12)
    one = {v: 1 for v in g.vertex_ids()}
    assert modularity(g, partition(one)) == pytest.approx(0.0, abs=1e-12)


def test_modularity_of_singletons_on_k3():
    g = make_graph([(0, 1), (1, 2), (0, 2)])
    singletons = {"v0": 1, "v1": 2, "v2": 3}
    assert modularity(g, partition(singletons)) == pytest.approx(
        -1 / 3, abs=1e-12)


def test_modularity_edgeless_graph_is_zero():
    g = make_graph([], n=4)
    assert modularity(g, partition({f"v{i}": 1 for i in range(4)})) == 0.0


def test_modularity_uses_the_simple_view():
    vs = [make_vertex(v) for v in "abcd"]
    plain = ConfrontGraph(vs, [Edge("a", "b", R), Edge("c", "d", R)])
    doubled = ConfrontGraph(vs, [Edge("a", "b", R), Edge("b", "a", R),
                                 Edge("a", "b", NormalizedType.NORTH_OF),
                                 Edge("c", "d", R)])
    p = partition({"a": 1, "b": 1, "c": 2, "d": 2})
    assert modularity(plain, p) == modularity(doubled, p)


def test_modularity_requires_full_coverage():
    g = make_graph([(0, 1)])
    with pytest.raises(UncoveredVertex):
        modularity(g, partition({"v0": 1}))


def test_louvain_recovers_the_triangle_split():
    p = louvain(two_triangles(), seed=0)
    assert p.assignment == TRIANGLE_SPLIT
    assert p.modularity == pytest.approx(5 / 14, abs=1e-12)
    assert p.algorithm == "louvain"
    assert p.seed == 0


def test_louvain_recovers_bridged_cliques_for_any_seed():
    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = clique + [(i + 5, j + 5) for i, j in clique] + [(4, 5)]
    g = make_graph(edges)
    for seed in range(5):
        p = louvain(g, seed=seed)
        assert p.community_count() == 2
        assert p.modularity == pytest.approx(19 / 42, abs=1e-12)
        assert len({p.assignment[f"v{i}"] for i in range(5)}) == 1
        assert len({p.assignment[f"v{i}"] for i in range(5, 10)}) == 1


def test_louvain_is_deterministic_per_seed():
    g = random_graph(random.Random(17), max_n=40)
    first = louvain(g, seed=3)
    again = louvain(g, seed=3)
    assert first == again


@pytest.mark.parametrize("seed", range(6))
def test_louvain_labels_are_contiguous_in_graph_order(seed):
    g = random_graph(random.Random(40 + seed), max_n=35)
    p = louvain(g, seed=seed)
    assert set(p.assignment) == set(g.vertex_ids())
    c = p.community_count()
    assert set(p.assignment.values()) == set(range(1, c + 1))
    seen_max = 0
    for vid in g.vertex_ids():
        label = p.assignment[vid]
        # A label may only be introduced as the next unused integer.
        assert label <= seen_max + 1
        seen_max = max(seen_max, label)


@pytest.mark.parametrize("seed", range(6))
def test_louvain_level_modularities_never_decrease(seed):
    g = random_graph(random.Random(60 + seed), max_n=35)
    p = louvain(g, seed=0)
    levels = list(p.level_modularities)
    assert levels == sorted(levels)
    if levels:
        assert p.modularity == levels[-1]
    assert modularity(g, p) == p.modularity


def test_louvain_isolates_become_singletons():
    g = make_graph([(0, 1), (0, 2)], n=5)
    p = louvain(g, seed=0)
    assert p.assignment["v3"] != p.assignment["v0"]
    assert p.assignment["v4"] != p.assignment["v3"]


def test_louvain_on_edgeless_graph():
    p = louvain(make_graph([], n=3), seed=0)
    assert p.assignment == {"v0": 1, "v1": 2, "v2": 3}
    assert p.modularity == 0.0
    assert p.level_modularities == ()


# --- reports --------------------------------------------------------------

def test_community_stats_rows():
    g = two_triangles()
    rows = community_stats(g, partition(TRIANGLE_SPLIT)).rows
    assert [r.community for r in rows] == [1, 2]
    assert sum(r.n for r in rows) == g.n
    for r in rows:
        assert r.n == 3
        assert r.m == 3
        assert r.delta == pytest.approx(0.5)
        assert r.property_count == 3  # conftest vertices are properties
        assert r.property_share == 1.0
        assert r.d_max == 1
        assert r.d_harm == 1.0


def test_community_network_conserves_directed_edges():
    g = two_triangles()
    net = community_network(g, partition(TRIANGLE_SPLIT))
    assert [n.community for n in net.nodes] == [1, 2]
    assert [n.size for n in net.nodes] == [3, 3]
    assert [n.intra_edges for n in net.nodes] == [3, 3]
    assert [(l.a, l.b, l.weight) for l in net.links] == [(1, 2, 1)]
    assert (sum(n.intra_edges for n in net.nodes)
            + sum(l.weight for l in net.links)) == g.m


@pytest.mark.parametrize("seed", range(4))
def test_community_network_conservation_on_extracted_graphs(seed):
    db = merge_equal_objects(synthetic_database(seed))
    g = extract(db, ExtractionMethod.from_code("EFS_all",
                                               component_threshold=4))
    p = louvain(g, seed=0)
    net = community_network(g, p)
    assert (sum(n.intra_edges for n in net.nodes)
            + sum(l.weight for l in net.links)) == g.m
    assert sum(n.size for n in net.nodes) == g.n
    for node in net.nodes:
        assert sum(node.kind_counts.values()) == node.size
        props = sum(1 for vid, c in p.assignment.items()
                    if c == node.community and g.vertices[vid].is_property)
        assert sum(node.parish_counts.values()) == props
        assert (node.walls_inside + node.walls_outside
                + node.walls_unknown) == props
    for link in net.links:
        assert link.a < link.b


def test_community_network_counts_antiparallel_edges_in_one_link():
    vs = [make_vertex(v) for v in "abcd"]
    g = ConfrontGraph(vs, [Edge("a", "b", R), Edge("c", "a", R),
                           Edge("a", "c", NormalizedType.SOUTH_OF),
                           Edge("d", "b", R)])
    p = partition({"a": 1, "b": 1, "c": 2, "d": 2})
    net = community_network(g, p)
    assert [(l.a, l.b, l.weight) for l in net.links] == [(1, 2, 3)]


def test_size_gini_values():
    assert size_gini(partition({"a": 1, "b": 2})) == 0.0
    assert size_gini(partition({"a": 1, "b": 2, "c": 2, "d": 2})) == 0.25
    assert size_gini(partition({})) == 0.0


def test_size_gini_grows_with_imbalance():
    balanced = partition({f"v{i}": i % 4 + 1 for i in range(20)})
    skewed = partition({f"v{i}": (1 if i else 2) for i in range(20)})
    assert size_gini(balanced) < size_gini(skewed)
