"""The GraphML and GEXF renderers as they were written with ElementTree,
kept as the test oracle of `serialize`'s line writer: for every graph,
the writer's bytes must equal these."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from confront_net.community import CommunityNetwork
from confront_net.graph import ConfrontGraph, Vertex
from confront_net.relation_types import TABLE_VERSION

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
_GEXF_NS = "http://gexf.net/1.3"


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
