"""Non-punctual handling as it was written with a worklist pruning pass,
kept as the test oracle of `extract.handle_nonpunctual`'s span rule:
for every graph, database and method, the two must give equal graphs.

Here the whole chain of a split object is built first; then every vertex
whose only incident edge is one artificial link is dropped, repeatedly,
until none is left.
"""

from __future__ import annotations

from confront_net.data_model import Database, Dimensionality
from confront_net.extract import ExtractionMethod, _plan, segment_vertex_id
from confront_net.graph import (ConfrontGraph, Edge, EdgeOrigin, Vertex,
                                unique_edges)
from confront_net.relation_types import NormalizedType


def handle_nonpunctual(g: ConfrontGraph, db: Database,
                       method: ExtractionMethod) -> ConfrontGraph:
    remove, split = _plan(g, db, method)
    if not remove and not split:
        return g

    vertices: list[Vertex] = []
    first_segment: dict[str, str] = {}
    for v in g.vertices.values():
        if v.id in remove:
            continue
        if v.id not in split:
            vertices.append(v)
            continue
        obj = db.objects[v.id]
        first_segment[v.id] = segment_vertex_id(v.id, obj.segments[0].id)
        for seg in obj.segments:
            vertices.append(Vertex(
                id=segment_vertex_id(v.id, seg.id), kind=v.kind,
                dim=Dimensionality.PUNCTUAL, is_property=v.is_property,
                coord=seg.coord, parish=v.parish,
                inside_old_walls=v.inside_old_walls, source_object=v.id,
                source_segment=seg.id))

    edges: list[Edge] = []
    for e in g.edges:
        if e.source in remove or e.target in remove:
            continue
        source = e.source
        target = e.target
        segment = e.target_segment
        if source in split:
            source = first_segment[source]
        if target in split:
            if segment is not None:
                target = segment_vertex_id(target, segment)
            else:
                target = first_segment[target]
            segment = None
        edges.append(Edge(source, target, e.type, e.origin, segment))
    edges = unique_edges(edges)
    for v in g.vertices.values():
        if v.id not in split:
            continue
        obj = db.objects[v.id]
        for a, b in zip(obj.segments, obj.segments[1:]):
            edges.append(Edge(segment_vertex_id(v.id, a.id),
                              segment_vertex_id(v.id, b.id),
                              NormalizedType.ARTIFICIAL_ADJACENCY,
                              EdgeOrigin.ARTIFICIAL))

    vertices, edges = prune_artificial_leaves(vertices, edges)
    return ConfrontGraph(vertices, edges, method=g.method, meta=g.meta)


def prune_artificial_leaves(
        vertices: list[Vertex],
        edges: list[Edge]) -> tuple[list[Vertex], list[Edge]]:
    """Drop vertices whose only incident edge is one artificial link,
    repeatedly, until stable."""
    incident: dict[str, list[int]] = {v.id: [] for v in vertices}
    for pos, e in enumerate(edges):
        incident[e.source].append(pos)
        incident[e.target].append(pos)
    dead_edges: set[int] = set()
    dropped: set[str] = set()

    def prunable(vid: str) -> bool:
        live = [p for p in incident[vid] if p not in dead_edges]
        return (len(live) == 1
                and edges[live[0]].type is NormalizedType.ARTIFICIAL_ADJACENCY)

    queue = [v.id for v in vertices if prunable(v.id)]
    while queue:
        vid = queue.pop()
        if vid in dropped or not prunable(vid):
            continue
        dropped.add(vid)
        live = [p for p in incident[vid] if p not in dead_edges]
        edge_pos = live[0]
        dead_edges.add(edge_pos)
        e = edges[edge_pos]
        neighbour = e.target if e.source == vid else e.source
        if prunable(neighbour):
            queue.append(neighbour)
    if not dropped:
        return vertices, edges
    vertices = [v for v in vertices if v.id not in dropped]
    edges = [e for pos, e in enumerate(edges) if pos not in dead_edges]
    return vertices, edges
