"""Deterministic graph serialization: GraphML, GEXF, and the internal
cache format.

Byte-identical output for identical graphs is a hard requirement, so
everything renders to bytes through fixed-order writers and the gzip
header is written with mtime=0. The cache format is versioned
JSON-in-gzip and is the only format this package reads back.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any

from .community import CommunityNetwork
from .data_model import Dimensionality, ObjectKind, _check_coord
from .errors import ConfrontNetError, MalformedRecord
from .extract import ExtractionMethod
from .graph import ConfrontGraph, Edge, Vertex
from .relation_types import TABLE_VERSION, NormalizedType

CACHE_FORMAT = "confront-net-graph"
CACHE_VERSION = 1

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
_GEXF_NS = "http://gexf.net/1.3"


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, creating missing parent
    directories; readers never see a partial file. The file gets the
    mode open() would give a new file, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0)  # read it back: there is no getter
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _xml_bytes(root: ET.Element) -> bytes:
    tree = ET.ElementTree(root)
    ET.indent(tree)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --- GraphML --------------------------------------------------------------

_NODE_KEYS = (
    ("kind", "string"), ("dim", "string"), ("property", "boolean"),
    ("x", "double"), ("y", "double"), ("parish", "string"),
    ("inside_old_walls", "boolean"), ("source_object", "string"),
    ("source_segment", "string"),
)
_EDGE_KEYS = (("type", "string"), ("origin", "string"))


def _vertex_data(v: Vertex) -> list[tuple[str, Any]]:
    items: list[tuple[str, Any]] = [("kind", v.kind.value),
                                    ("dim", v.dim.value),
                                    ("property", v.is_property)]
    if v.coord is not None:
        items.append(("x", v.coord[0]))
        items.append(("y", v.coord[1]))
    if v.parish is not None:
        items.append(("parish", v.parish))
    if v.inside_old_walls is not None:
        items.append(("inside_old_walls", v.inside_old_walls))
    items.append(("source_object", v.source_object))
    if v.source_segment is not None:
        items.append(("source_segment", v.source_segment))
    return items


def graphml_bytes(g: ConfrontGraph, manifest_hash: str | None = None) -> bytes:
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    key_ids: dict[tuple[str, str], str] = {}
    for domain, names in (("graph", (("method", "string"),
                                     ("manifest", "string"),
                                     ("table_version", "string"))),
                          ("node", _NODE_KEYS), ("edge", _EDGE_KEYS)):
        for name, attr_type in names:
            key_id = f"k{len(key_ids)}"
            key_ids[(domain, name)] = key_id
            ET.SubElement(root, "key", id=key_id, attrib={
                "for": domain, "attr.name": name, "attr.type": attr_type})
    graph = ET.SubElement(root, "graph", id="G", edgedefault="directed")

    def data(parent: ET.Element, domain: str, name: str, value: Any) -> None:
        el = ET.SubElement(parent, "data", key=key_ids[(domain, name)])
        el.text = _fmt(value)

    if g.method is not None:
        data(graph, "graph", "method", g.method.code)
    if manifest_hash is not None:
        data(graph, "graph", "manifest", manifest_hash)
    data(graph, "graph", "table_version", TABLE_VERSION)
    for v in g.vertices.values():
        node = ET.SubElement(graph, "node", id=v.id)
        for name, value in _vertex_data(v):
            data(node, "node", name, value)
    for e in g.edges:
        edge = ET.SubElement(graph, "edge", source=e.source, target=e.target)
        data(edge, "edge", "type", e.type.value)
        data(edge, "edge", "origin", e.origin)
    return _xml_bytes(root)


# --- GEXF -----------------------------------------------------------------

def gexf_bytes(g: ConfrontGraph, manifest_hash: str | None = None) -> bytes:
    root = ET.Element("gexf", xmlns=_GEXF_NS, version="1.3")
    meta = ET.SubElement(root, "meta")
    ET.SubElement(meta, "creator").text = "confront-net"
    description = []
    if g.method is not None:
        description.append(f"method={g.method.code}")
    if manifest_hash is not None:
        description.append(f"manifest={manifest_hash}")
    description.append(f"table_version={TABLE_VERSION}")
    ET.SubElement(meta, "description").text = " ".join(description)
    graph = ET.SubElement(root, "graph", defaultedgetype="directed")

    node_attrs = ET.SubElement(graph, "attributes", attrib={"class": "node"})
    node_attr_id: dict[str, str] = {}
    for name, attr_type in _NODE_KEYS:
        node_attr_id[name] = str(len(node_attr_id))
        ET.SubElement(node_attrs, "attribute", id=node_attr_id[name],
                      title=name, type=attr_type)
    edge_attrs = ET.SubElement(graph, "attributes", attrib={"class": "edge"})
    edge_attr_id: dict[str, str] = {}
    for name, attr_type in _EDGE_KEYS:
        edge_attr_id[name] = str(len(edge_attr_id))
        ET.SubElement(edge_attrs, "attribute", id=edge_attr_id[name],
                      title=name, type=attr_type)

    nodes = ET.SubElement(graph, "nodes")
    for v in g.vertices.values():
        node = ET.SubElement(nodes, "node", id=v.id, label=v.id)
        values = ET.SubElement(node, "attvalues")
        for name, value in _vertex_data(v):
            ET.SubElement(values, "attvalue", attrib={
                "for": node_attr_id[name], "value": _fmt(value)})
    edges = ET.SubElement(graph, "edges")
    for pos, e in enumerate(g.edges):
        edge = ET.SubElement(edges, "edge", id=str(pos), source=e.source,
                             target=e.target)
        values = ET.SubElement(edge, "attvalues")
        ET.SubElement(values, "attvalue", attrib={
            "for": edge_attr_id["type"], "value": e.type.value})
        ET.SubElement(values, "attvalue", attrib={
            "for": edge_attr_id["origin"], "value": e.origin})
    return _xml_bytes(root)


def community_gexf_bytes(net: CommunityNetwork,
                         manifest_hash: str | None = None) -> bytes:
    """Quotient graph: community nodes sized by membership, links
    weighted by cross-community edge counts."""
    root = ET.Element("gexf", xmlns=_GEXF_NS, version="1.3")
    meta = ET.SubElement(root, "meta")
    ET.SubElement(meta, "creator").text = "confront-net"
    if manifest_hash is not None:
        ET.SubElement(meta, "description").text = f"manifest={manifest_hash}"
    graph = ET.SubElement(root, "graph", defaultedgetype="undirected")
    attrs = ET.SubElement(graph, "attributes", attrib={"class": "node"})
    for pos, name in enumerate(("size", "intra_edges", "properties")):
        ET.SubElement(attrs, "attribute", id=str(pos), title=name,
                      type="long")
    nodes = ET.SubElement(graph, "nodes")
    for node in net.nodes:
        el = ET.SubElement(nodes, "node", id=str(node.community),
                           label=f"community {node.community}")
        values = ET.SubElement(el, "attvalues")
        properties = node.parish_counts  # property members only
        for pos, value in enumerate((node.size, node.intra_edges,
                                     sum(properties.values()))):
            ET.SubElement(values, "attvalue", attrib={
                "for": str(pos), "value": str(value)})
    edges = ET.SubElement(graph, "edges")
    for pos, link in enumerate(net.links):
        ET.SubElement(edges, "edge", id=str(pos), source=str(link.a),
                      target=str(link.b), weight=str(link.weight))
    return _xml_bytes(root)


# --- internal cache -------------------------------------------------------

def cache_bytes(g: ConfrontGraph, manifest_hash: str | None = None) -> bytes:
    method: dict[str, Any] | None = None
    if g.method is not None:
        method = {"code": g.method.code, "k": g.method.k,
                  "component_threshold": g.method.component_threshold}
    payload = {
        "format": CACHE_FORMAT,
        "version": CACHE_VERSION,
        "table_version": TABLE_VERSION,
        "manifest": manifest_hash,
        "method": method,
        "meta": g.meta,
        "vertices": [[v.id, v.kind.value, v.dim.value, v.is_property,
                      list(v.coord) if v.coord else None, v.parish,
                      v.inside_old_walls, v.source_object, v.source_segment]
                     for v in g.vertices.values()],
        "edges": [[e.source, e.target, e.type.value, e.origin,
                   e.target_segment] for e in g.edges],
    }
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    buf = io.BytesIO()
    # mtime=0 keeps the gzip header constant across runs.
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as zf:
        zf.write(text.encode("utf-8"))
    return buf.getvalue()


def write_cache(g: ConfrontGraph, path: str | Path,
                manifest_hash: str | None = None) -> None:
    atomic_write_bytes(path, cache_bytes(g, manifest_hash))


def read_cache(path: str | Path) -> ConfrontGraph:
    path = Path(path)
    try:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedRecord(f"unreadable graph cache: {exc}",
                              path=str(path)) from None
    if (not isinstance(payload, dict)
            or payload.get("format") != CACHE_FORMAT):
        raise MalformedRecord("not a graph cache file", path=str(path))
    if payload.get("version") != CACHE_VERSION:
        raise MalformedRecord(
            f"unsupported cache version {payload.get('version')!r} "
            f"(expected {CACHE_VERSION})", path=str(path))
    try:
        vertices = [
            Vertex(id=vid, kind=ObjectKind(kind), dim=Dimensionality(dim),
                   is_property=is_prop,
                   coord=_check_coord(coord, f"vertex {vid!r}"), parish=parish,
                   inside_old_walls=walls, source_object=source,
                   source_segment=segment)
            for vid, kind, dim, is_prop, coord, parish, walls, source,
            segment in payload["vertices"]]
        edges = [Edge(source, target, NormalizedType(etype), origin, binding)
                 for source, target, etype, origin, binding
                 in payload["edges"]]
        method = None
        if payload.get("method") is not None:
            method = ExtractionMethod.from_code(
                payload["method"]["code"], k=payload["method"]["k"],
                component_threshold=payload["method"]["component_threshold"])
        meta = payload.get("meta") or {}
        if not isinstance(meta, dict):
            raise TypeError("meta is not an object")
        return ConfrontGraph(vertices, edges, method=method, meta=meta)
    except (ConfrontNetError, KeyError, ValueError, TypeError) as exc:
        raise MalformedRecord(f"corrupt graph cache: {exc}",
                              path=str(path)) from None
