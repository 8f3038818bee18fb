"""Deterministic serialization: stable bytes, faithful cache
round-trips, and XML output free of run-dependent content."""

import gzip
import json
import os
import stat
import xml.etree.ElementTree as ET

import pytest

from conftest import synthetic_database
from confront_net.community import community_network, louvain
from confront_net.errors import MalformedRecord
from confront_net.extract import ExtractionMethod, extract
from confront_net.normalize import merge_equal_objects
from confront_net.serialize import (atomic_write_bytes, cache_bytes,
                                    community_gexf_bytes, gexf_bytes,
                                    graphml_bytes, read_cache)

HASH = "a" * 64


@pytest.fixture(scope="module")
def graph():
    db = merge_equal_objects(synthetic_database(4))
    return extract(db, ExtractionMethod.from_code("EFS_k", k=1,
                                                  component_threshold=4))


def test_renderings_are_byte_stable(graph):
    assert graphml_bytes(graph, HASH) == graphml_bytes(graph, HASH)
    assert gexf_bytes(graph, HASH) == gexf_bytes(graph, HASH)
    assert cache_bytes(graph, HASH) == cache_bytes(graph, HASH)


def test_cache_gzip_header_is_timeless(graph):
    data = cache_bytes(graph)
    # gzip stores mtime in bytes 4..8; zero means reruns cannot differ.
    assert data[4:8] == b"\x00\x00\x00\x00"


def test_cache_round_trip(graph, tmp_path):
    path = tmp_path / "g.graph.json.gz"
    atomic_write_bytes(path, cache_bytes(graph, HASH))
    back = read_cache(path)
    assert back == graph
    assert back.method == graph.method
    assert back.meta == graph.meta
    assert list(back.vertices) == list(graph.vertices)
    v = next(iter(graph.vertices.values()))
    assert back.vertices[v.id] == v


def test_cache_round_trip_preserves_bindings(graph, tmp_path):
    path = tmp_path / "g.graph.json.gz"
    atomic_write_bytes(path, cache_bytes(graph))
    back = read_cache(path)
    assert [e.target_segment for e in back.edges] == [
        e.target_segment for e in graph.edges]
    assert [e.origin for e in back.edges] == [e.origin for e in graph.edges]


def test_read_cache_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.graph.json.gz"
    path.write_bytes(gzip.compress(json.dumps({"format": "other"}).encode()))
    with pytest.raises(MalformedRecord):
        read_cache(path)
    path.write_bytes(b"plainly not gzip")
    with pytest.raises(MalformedRecord):
        read_cache(path)


def test_read_cache_rejects_unknown_versions(tmp_path, graph):
    payload = json.loads(gzip.decompress(cache_bytes(graph)))
    payload["version"] = 99
    path = tmp_path / "x.graph.json.gz"
    path.write_bytes(gzip.compress(json.dumps(payload).encode()))
    with pytest.raises(MalformedRecord) as exc:
        read_cache(path)
    assert "99" in str(exc.value)


def test_graphml_is_valid_and_complete(graph):
    root = ET.fromstring(graphml_bytes(graph, HASH))
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = root.findall(".//g:node", ns)
    edges = root.findall(".//g:edge", ns)
    assert len(nodes) == graph.n
    assert len(edges) == graph.m
    assert HASH in ET.tostring(root, encoding="unicode")


def test_gexf_is_valid_and_undated(graph):
    text = gexf_bytes(graph, HASH).decode()
    root = ET.fromstring(text)
    assert "lastmodifieddate" not in text
    ns = {"g": "http://gexf.net/1.3"}
    assert len(root.findall(".//g:node", ns)) == graph.n
    assert len(root.findall(".//g:edge", ns)) == graph.m
    assert HASH in text


def test_community_gexf_structure(graph):
    p = louvain(graph, seed=0)
    net = community_network(graph, p)
    text = community_gexf_bytes(net, HASH).decode()
    root = ET.fromstring(text)
    ns = {"g": "http://gexf.net/1.3"}
    assert len(root.findall(".//g:node", ns)) == len(net.nodes)
    assert len(root.findall(".//g:edge", ns)) == len(net.links)
    assert "lastmodifieddate" not in text


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    atomic_write_bytes(target, b"first")
    atomic_write_bytes(target, b"second")
    assert target.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002],
                         ids=["022", "077", "002"])
def test_written_files_follow_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "out.bin", b"data")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == (
        0o666 & ~umask)
