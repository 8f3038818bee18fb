"""Deterministic graph serialization: GraphML, GEXF, and the internal
cache format.

Byte-identical output for identical graphs is a hard requirement, so
XML is written line by line exactly as ElementTree indents it, and the
gzip header is written with mtime=0. The cache format is versioned
JSON-in-gzip and is the only format this package reads back.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
import tempfile
import zlib
from pathlib import Path
from typing import Any

from .community import CommunityNetwork
from .data_model import Dimensionality, ObjectKind, _check_coord
from .errors import ConfrontNetError, MalformedRecord
from .extract import ExtractionMethod
from .graph import ConfrontGraph, Edge, EdgeOrigin, Vertex
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


# What ElementTree's _escape_cdata and _escape_attrib replace.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTRIB_ESCAPES = {**_TEXT_ESCAPES, **str.maketrans({
    '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})}
_NEEDS_ESCAPE = re.compile('[&<>"\r\n\t]').search


def _escape(text: str, table: dict[int, str] = _ATTRIB_ESCAPES) -> str:
    return text.translate(table) if _NEEDS_ESCAPE(text) else text


def _text(start: str, tag: str, text: str) -> str:
    """An element holding only `text`, from its start `<tag attr="...`."""
    if not text:
        return start + " />"
    return f"{start}>{_escape(text, _TEXT_ESCAPES)}</{tag}>"


def _block(pad: str, tag: str, inner: list[str], attrs: str = "") -> list[str]:
    """An element around its children's lines, `attrs` already rendered."""
    if not inner:
        return [f"{pad}<{tag}{attrs} />"]
    return [f"{pad}<{tag}{attrs}>", *inner, f"{pad}</{tag}>"]


def _document(lines: list[str]) -> bytes:
    text = "\n".join(["<?xml version='1.0' encoding='utf-8'?>", *lines, ""])
    return text.encode("utf-8", "xmlcharrefreplace")


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _graph_data(g: ConfrontGraph, manifest_hash: str | None) -> list[tuple]:
    return [(name, value) for name, value in (
        ("method", None if g.method is None else g.method.code),
        ("manifest", manifest_hash), ("table_version", TABLE_VERSION))
        if value is not None]


# --- GraphML --------------------------------------------------------------

_GRAPH_KEYS = (("method", "string"), ("manifest", "string"),
               ("table_version", "string"))
_NODE_KEYS = (("kind", "string"), ("dim", "string"), ("property", "boolean"),
              ("x", "double"), ("y", "double"), ("parish", "string"),
              ("inside_old_walls", "boolean"), ("source_object", "string"),
              ("source_segment", "string"))
_EDGE_KEYS = (("type", "string"), ("origin", "string"))


def _vertex_data(v: Vertex) -> list[tuple[str, Any]]:
    """The node keys that `v` has a value for, in `_NODE_KEYS` order."""
    x, y = (None, None) if v.coord is None else v.coord
    return [(name, value) for (name, _), value in zip(_NODE_KEYS, (
        v.kind.value, v.dim.value, v.is_property, x, y, v.parish,
        v.inside_old_walls, v.source_object, v.source_segment))
        if value is not None]


def graphml_bytes(g: ConfrontGraph, manifest_hash: str | None = None) -> bytes:
    lines = [f'<graphml xmlns="{_GRAPHML_NS}">']
    data: dict[tuple[str, str], str] = {}  # the start of each key's <data>
    for domain, pad, names in (("graph", "    ", _GRAPH_KEYS),
                               ("node", "      ", _NODE_KEYS),
                               ("edge", "      ", _EDGE_KEYS)):
        for name, attr_type in names:
            key_id = f"k{len(data)}"
            lines.append(f'  <key for="{domain}" attr.name="{name}" '
                         f'attr.type="{attr_type}" id="{key_id}" />')
            data[domain, name] = f'{pad}<data key="{key_id}"'
    lines.append('  <graph id="G" edgedefault="directed">')
    lines += [_text(data["graph", name], "data", value)
              for name, value in _graph_data(g, manifest_hash)]
    for v in g.vertices.values():
        lines.append(f'    <node id="{_escape(v.id)}">')
        lines += [_text(data["node", name], "data", _fmt(value))
                  for name, value in _vertex_data(v)]
        lines.append("    </node>")
    for e in g.edges:
        lines += [f'    <edge source="{_escape(e.source)}" '
                  f'target="{_escape(e.target)}">',
                  _text(data["edge", "type"], "data", e.type.value),
                  _text(data["edge", "origin"], "data", _fmt(e.origin)),
                  "    </edge>"]
    return _document(lines + ["  </graph>", "</graphml>"])


# --- GEXF -----------------------------------------------------------------

def _gexf(description: str | None, edge_type: str,
          keys: dict[str, tuple[tuple[str, str], ...]],
          nodes: list[tuple[str, list[tuple[str, str]]]],
          edges: list[tuple[str, list[tuple[str, str]]]]) -> bytes:
    """`keys` declares each class's attributes, numbered by position. A
    node or edge is its rendered attributes and its (attribute id, value)
    pairs; one without values has no <attvalues>."""
    lines = [f'<gexf xmlns="{_GEXF_NS}" version="1.3">', "  <meta>",
             "    <creator>confront-net</creator>"]
    if description is not None:
        lines.append(_text("    <description", "description", description))
    lines += ["  </meta>", f'  <graph defaultedgetype="{edge_type}">']
    for domain, names in keys.items():
        lines += _block("    ", "attributes", [
            f'      <attribute id="{pos}" title="{name}" type="{kind}" />'
            for pos, (name, kind) in enumerate(names)], f' class="{domain}"')
    for tag, items in (("node", nodes), ("edge", edges)):
        inner: list[str] = []
        for attrs, values in items:
            attvalues = [f'          <attvalue for="{attr_id}" value="'
                         f'{_escape(value)}" />' for attr_id, value in values]
            inner += _block("      ", tag, attvalues and _block(
                "        ", "attvalues", attvalues), attrs)
        lines += _block("    ", tag + "s", inner)
    return _document(lines + ["  </graph>", "</gexf>"])


def gexf_bytes(g: ConfrontGraph, manifest_hash: str | None = None) -> bytes:
    ids = {name: str(pos) for keys in (_NODE_KEYS, _EDGE_KEYS)
           for pos, (name, _) in enumerate(keys)}  # the names are distinct
    return _gexf(" ".join(f"{name}={value}" for name, value
                          in _graph_data(g, manifest_hash)), "directed",
                 {"node": _NODE_KEYS, "edge": _EDGE_KEYS},
                 [(' id="{0}" label="{0}"'.format(_escape(v.id)),
                   [(ids[name], _fmt(val)) for name, val in _vertex_data(v)])
                  for v in g.vertices.values()],
                 [(f' id="{pos}" source="{_escape(e.source)}" '
                   f'target="{_escape(e.target)}"',
                   [(ids["type"], e.type.value), (ids["origin"], e.origin)])
                  for pos, e in enumerate(g.edges)])


def community_gexf_bytes(net: CommunityNetwork,
                         manifest_hash: str | None = None) -> bytes:
    """Quotient graph: community nodes sized by membership, links
    weighted by cross-community edge counts."""
    return _gexf(
        None if manifest_hash is None else f"manifest={manifest_hash}",
        "undirected", {"node": (("size", "long"), ("intra_edges", "long"),
                                ("properties", "long"))},
        [(' id="{0}" label="community {0}"'.format(node.community),
          [(str(pos), str(value)) for pos, value in enumerate((
              node.size, node.intra_edges,
              sum(node.parish_counts.values())))])  # property members only
         for node in net.nodes],
        [(f' id="{i}" source="{link.a}" target="{link.b}" '
          f'weight="{link.weight}"', []) for i, link in enumerate(net.links)])


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


_ORIGINS = (EdgeOrigin.PRIMARY, EdgeOrigin.ADDITIONAL, EdgeOrigin.ARTIFICIAL)


def _cached_vertex(row: Any) -> Vertex:
    """A cache row as a vertex: each field of its type, and the property
    flag the one its kind decides."""
    vid, kind, dim, flag, coord, parish, walls, source, segment = row
    for name, value, types in (
            ("id", vid, str), ("parish", parish, (str, type(None))),
            ("inside_old_walls", walls, (bool, type(None))),
            ("source_object", source, str),
            ("source_segment", segment, (str, type(None)))):
        if not isinstance(value, types):
            raise MalformedRecord(f"vertex {vid!r} has {name} {value!r}")
    v = Vertex(id=vid, kind=ObjectKind(kind), dim=Dimensionality(dim),
               coord=_check_coord(coord, f"vertex {vid!r}"), parish=parish,
               inside_old_walls=walls, source_object=source,
               source_segment=segment)
    if flag is not v.is_property:
        raise MalformedRecord(f"vertex {vid!r} has property flag {flag!r} "
                              f"but kind {v.kind.value!r}")
    return v


def _cached_edge(row: Any) -> Edge:
    source, target, etype, origin, binding = row
    if origin not in _ORIGINS:
        raise MalformedRecord(
            f"edge {source!r}->{target!r} has origin {origin!r}")
    if not isinstance(binding, (str, type(None))):
        raise MalformedRecord(
            f"edge {source!r}->{target!r} has target_segment {binding!r}")
    return Edge(source, target, NormalizedType(etype), origin, binding)


def read_cache(path: str | Path) -> ConfrontGraph:
    path = Path(path)
    try:
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
    # A truncated stream ends in EOFError, a damaged one in zlib.error;
    # JSON nested past the recursion limit raises RecursionError.
    except (OSError, EOFError, zlib.error, ValueError,
            RecursionError) as exc:
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
        vertices = [_cached_vertex(row) for row in payload["vertices"]]
        edges = [_cached_edge(row) for row in payload["edges"]]
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
