"""The GraphML and GEXF line writers against the ElementTree oracle.

`serialize` writes XML line by line; `elementtree_oracle` keeps the
ElementTree renderers it replaced. For every graph the two must give the
same bytes: the declaration, the indentation, the attribute order, the
escaping, the `<tag />` of an empty element and the character references
of text UTF-8 cannot encode."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elementtree_oracle as oracle
from conftest import make_graph, make_vertex, synthetic_database
from confront_net import serialize
from confront_net.community import (CommunityLink, CommunityNetwork,
                                    CommunityNode, community_network,
                                    louvain)
from confront_net.data_model import Dimensionality, ObjectKind
from confront_net.extract import (METHOD_CODES, ExtractionMethod,
                                  build_full_graph, extract)
from confront_net.graph import ConfrontGraph, Edge
from confront_net.normalize import merge_equal_objects
from confront_net.relation_types import NormalizedType
from test_golden_graphs import CASES

HASH = "a" * 64
WRITERS = ("graphml_bytes", "gexf_bytes")


def assert_writers_match(g, manifest_hash=HASH):
    for name in WRITERS:
        assert getattr(serialize, name)(g, manifest_hash) == getattr(
            oracle, name)(g, manifest_hash), name


@pytest.mark.parametrize("seed,k,threshold", CASES)
def test_every_golden_graph_matches_the_oracle(seed, k, threshold):
    db = merge_equal_objects(synthetic_database(seed))
    full = build_full_graph(db)
    assert_writers_match(full)
    for code in METHOD_CODES:
        assert_writers_match(extract(db, ExtractionMethod.from_code(
            code, k=k, component_threshold=threshold), full))


@pytest.mark.parametrize("manifest_hash", [HASH, None])
@pytest.mark.parametrize("g", [ConfrontGraph([], []), make_graph([], n=3)],
                         ids=["empty", "edgeless"])
def test_empty_and_edgeless_graphs_match_the_oracle(g, manifest_hash):
    assert_writers_match(g, manifest_hash)
    assert b"<edges />" in serialize.gexf_bytes(g, manifest_hash)


AWKWARD = ["a&b", "<tag>", 'say "hi"', "it's", "tab\there", "new\nline",
           "carriage\rreturn", "Notre-Dame-la-Principale",
           "ça ‘va’ – 中文 🏰", "lone \ud800 surrogate", "\x01control", ""]


def awkward_graph() -> ConfrontGraph:
    vertices = [make_vertex(
        vid, coord=(float(i), -0.1 * i) if i % 2 else None,
        kind=ObjectKind.PROPERTY if i % 3 else ObjectKind.STREET,
        dim=Dimensionality.PUNCTUAL, parish=AWKWARD[-1 - i],
        walls=(None, True, False)[i % 3], source_object=f"src {vid}",
        source_segment=vid if i % 4 == 0 else None)
        for i, vid in enumerate(AWKWARD)]
    edges = [Edge(AWKWARD[i], AWKWARD[i + 1], NormalizedType.NORTH_OF,
                  origin=AWKWARD[-1 - i]) for i in range(len(AWKWARD) - 1)]
    return ConfrontGraph(vertices, edges)


def test_awkward_text_matches_the_oracle():
    g = awkward_graph()
    assert_writers_match(g, "manifest & <hash>")
    graphml = serialize.graphml_bytes(g)
    assert b'<node id="lone &#55296; surrogate">' in graphml
    assert b'<node id="tab&#09;here">' in graphml
    assert b'<data key="k8" />' in graphml  # the empty parish


def community_networks():
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    g = make_graph(triangles, n=7)
    yield "louvain", community_network(g, louvain(g, seed=0))
    edgeless = make_graph([], n=3)
    yield "no-links", community_network(edgeless, louvain(edgeless))
    yield "empty", CommunityNetwork(nodes=(), links=())
    yield "built", CommunityNetwork(
        nodes=(CommunityNode(0, 4, 3, {"Property": 4}, {"p": 2, "": 1},
                             1, 2, 1),
               CommunityNode(7, 1, 0, {}, {}, 0, 0, 1)),
        links=(CommunityLink(0, 7, 5),))


@pytest.mark.parametrize("manifest_hash", [HASH, None])
@pytest.mark.parametrize("net", [net for _, net in community_networks()],
                         ids=[name for name, _ in community_networks()])
def test_community_gexf_matches_the_oracle(net, manifest_hash):
    assert serialize.community_gexf_bytes(net, manifest_hash) == (
        oracle.community_gexf_bytes(net, manifest_hash))


TEXT = st.text(st.characters(exclude_categories=()), max_size=8)


@st.composite
def random_graphs(draw):
    ids = draw(st.lists(TEXT, min_size=0, max_size=6, unique=True))
    vertices = [make_vertex(
        vid, coord=draw(st.none() | st.tuples(st.floats(), st.floats())),
        parish=draw(st.none() | TEXT), walls=draw(st.none() | st.booleans()),
        source_object=draw(TEXT) or vid,
        source_segment=draw(st.none() | TEXT)) for vid in ids]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                          .filter(lambda p: p[0] != p[1]), unique=True,
                          max_size=8)) if len(ids) > 1 else []
    edges = [Edge(a, b, draw(st.sampled_from(list(NormalizedType)[:-1])),
                  origin=draw(TEXT)) for a, b in pairs]
    return ConfrontGraph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(g=random_graphs(), manifest_hash=st.none() | TEXT)
def test_random_text_matches_the_oracle(g, manifest_hash):
    assert_writers_match(g, manifest_hash)


def test_cli_import_leaves_out_elementtree():
    src = str(Path(serialize.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, confront_net.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('xml.etree')))"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "[]"
