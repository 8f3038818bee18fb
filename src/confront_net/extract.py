"""Graph extraction pipeline.

A method code is three flags plus a scope: R/E (inject additional
street-adjacency data or not), H/F (keep or drop hierarchical edges),
W/S (keep non-punctual objects whole or split them into segments), and
the scope of non-punctual handling (all objects, streets only, or only
the k longest streets). Pipelines always end by dropping components
smaller than a threshold, which may leave the empty graph.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum

from .data_model import (Database, Dimensionality, RelationOrigin,
                         SpatialObject)
from .errors import (MalformedRecord, MissingLength, MissingSegments,
                     TakenVertexId, UnmappableType)
from .graph import ConfrontGraph, Edge, EdgeOrigin, Vertex, unique_edges
from .normalize import normalize_relation_type
from .relation_types import (EGAL, HierarchyClass, NormalizedType,
                             hierarchy_class)

DEFAULT_COMPONENT_THRESHOLD = 25


class Scope(Enum):
    ALL = "all"
    STREETS_ONLY = "streets"
    TOP_K = "k"


@dataclass(frozen=True)
class ExtractionMethod:
    use_additional: bool
    keep_hierarchy: bool
    split: bool
    scope: Scope
    k: int = 0
    component_threshold: int = DEFAULT_COMPONENT_THRESHOLD

    def __post_init__(self) -> None:
        for name in ("k", "component_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise MalformedRecord(
                    f"{name} must be an integer, got {value!r}")
        if self.k < 0:
            raise MalformedRecord(f"k must be >= 0, got {self.k}")
        if self.component_threshold < 1:
            raise MalformedRecord(
                f"component_threshold must be >= 1, got "
                f"{self.component_threshold}")

    @property
    def code(self) -> str:
        flags = (("E" if self.use_additional else "R")
                 + ("H" if self.keep_hierarchy else "F")
                 + ("S" if self.split else "W"))
        return f"{flags}_{self.scope.value}"

    @classmethod
    def from_code(cls, code: str, *, k: int = 0,
                  component_threshold: int = DEFAULT_COMPONENT_THRESHOLD,
                  ) -> "ExtractionMethod":
        try:
            flags, scope_name = code.split("_", 1)
            if len(flags) != 3:
                raise ValueError
            use_additional = {"R": False, "E": True}[flags[0]]
            keep_hierarchy = {"H": True, "F": False}[flags[1]]
            split = {"W": False, "S": True}[flags[2]]
            scope = Scope(scope_name)
        except (AttributeError, KeyError, ValueError):  # a non-string too
            raise MalformedRecord(f"unknown method code {code!r}") from None
        return cls(use_additional=use_additional,
                   keep_hierarchy=keep_hierarchy, split=split, scope=scope,
                   k=k, component_threshold=component_threshold)


#: The sixteen named methods, in presentation order.
METHOD_CODES: tuple[str, ...] = (
    "RHW_all", "RFW_all", "RFW_streets", "RFW_k",
    "EHW_all", "EFW_all", "EFW_streets", "EFW_k",
    "RHS_all", "RFS_all", "RFS_streets", "RFS_k",
    "EHS_all", "EFS_all", "EFS_streets", "EFS_k",
)


def _vertex_from_object(obj: SpatialObject) -> Vertex:
    return Vertex(
        id=obj.id, kind=obj.kind, dim=obj.dim, coord=obj.coord,
        parish=obj.parish, inside_old_walls=obj.inside_old_walls,
        source_object=obj.id)


def build_full_graph(db: Database) -> ConfrontGraph:
    """All primary relations, normalized; no filtering of any kind.

    Vertices are the objects incident to at least one primary relation;
    objects nobody ever confronts with never enter any graph. A register
    where a vertex's segment would take an id already in use is refused,
    whatever the method: some method splits every segmented vertex.
    """
    edges: list[Edge] = []
    incident: set[str] = set()
    for rel in db.relations:
        if rel.origin is not RelationOrigin.PRIMARY:
            continue
        if rel.raw_type == EGAL:
            raise UnmappableType(
                f"relation {rel.id!r} is 'Egal'; merge the database before "
                f"extraction")
        ntype = normalize_relation_type(rel.raw_type,
                                        db.objects[rel.target_id])
        edges.append(Edge(rel.source_id, rel.target_id, ntype,
                          EdgeOrigin.PRIMARY, rel.target_segment))
        incident.add(rel.source_id)
        incident.add(rel.target_id)
    vertices = [_vertex_from_object(o) for o in db.objects.values()
                if o.id in incident]
    owners = {vid: vid for vid in incident}
    for v in vertices:
        for seg in db.objects[v.id].segments:
            vid = segment_vertex_id(v.id, seg.id)
            if vid in owners:
                raise TakenVertexId(
                    f"segment {seg.id!r} of object {v.id!r} would have "
                    f"vertex id {vid!r}, already used by object "
                    f"{owners[vid]!r}")
            owners[vid] = v.id
    return ConfrontGraph(vertices, unique_edges(edges))


def filter_hierarchy(g: ConfrontGraph) -> ConfrontGraph:
    """Drop InsideOf/OutsideOf edges; vertices stay (attributes keep the
    membership information)."""
    edges = [e for e in g.edges
             if hierarchy_class(e.type) is not HierarchyClass.HIERARCHICAL]
    return ConfrontGraph(g.vertices.values(), edges, meta=g.meta)


def _rank_streets(db: Database) -> list[str]:
    """Non-punctual streets by decreasing length, ties by id."""
    streets = [o for o in db.objects.values() if o.is_rankable_street]
    for obj in streets:
        if obj.length_m is None:
            raise MissingLength(
                f"street {obj.id!r} has no length_m; cannot rank streets")
    streets.sort(key=lambda o: (-o.length_m, o.id))
    return [o.id for o in streets]


def segment_vertex_id(object_id: str, segment_id: str) -> str:
    return f"{object_id}#{segment_id}"


def _stand_in(obj: SpatialObject, binding: str | None) -> str:
    """The segment vertex that stands for split object `obj` at an edge
    end: the bound segment, else the first."""
    return segment_vertex_id(
        obj.id, binding if binding is not None else obj.segments[0].id)


def _plan(g: ConfrontGraph, db: Database,
          method: ExtractionMethod) -> tuple[set[str], set[str]]:
    """The vertices to remove and to split; the rest stay whole, punctual
    ones always. Under the streets and k scopes a non-street is removed,
    and under k a street outside the k longest stays whole. Under W the k
    longest are removed under k. Under S an object with segments is split;
    without, one of the k longest is refused, a non-street under all is
    removed, and a street stays whole: it has no recorded decomposition."""
    remove: set[str] = set()
    split: set[str] = set()
    top_k = (set(_rank_streets(db)[:method.k])
             if method.scope is Scope.TOP_K else set())
    for v in g.vertices.values():
        if v.dim is Dimensionality.PUNCTUAL:
            continue
        obj = db.objects[v.id]
        if method.scope is not Scope.ALL and not obj.is_street:
            remove.add(v.id)
        elif method.scope is Scope.TOP_K and v.id not in top_k:
            continue
        elif not method.split:
            if method.scope is Scope.TOP_K:
                remove.add(v.id)
        elif obj.segments:
            split.add(v.id)
        elif method.scope is Scope.TOP_K:
            raise MissingSegments(f"street {v.id!r} is among the {method.k} "
                                  f"longest but has no segments to split into")
        elif not obj.is_street:
            remove.add(v.id)
    return remove, split


def handle_nonpunctual(g: ConfrontGraph, db: Database,
                       method: ExtractionMethod) -> ConfrontGraph:
    """Remove, keep, or split non-punctual vertices per the method.

    Splitting replaces an object vertex by its chain of segment vertices,
    linked by ArtificialAdjacency edges; incoming relations re-point to
    their bound segment (first segment when unbound), outgoing ones leave
    from the first segment. A split object keeps only the span of its
    chain from the first to the last segment that ends one of these
    relations, or its first segment alone when none does: chain ends
    nobody refers to carry no information.
    """
    remove, split = _plan(g, db, method)
    if not remove and not split:
        return g

    # No two edges of `g` share (source, target, type), and an edge end
    # moves only onto a segment of its own object: keys stay distinct.
    # An edge with neither end split is handed on as it is.
    edges: list[Edge] = []
    for e in g.edges:
        if e.source in remove or e.target in remove:
            continue
        if e.source in split:
            e = replace(e, source=_stand_in(db.objects[e.source], None))
        if e.target in split:
            e = replace(e, target=_stand_in(db.objects[e.target],
                                            e.target_segment),
                        target_segment=None)
        edges.append(e)
    referenced = {vid for e in edges for vid in (e.source, e.target)}

    vertices: list[Vertex] = []
    for v in g.vertices.values():
        if v.id in remove:
            continue
        if v.id not in split:
            vertices.append(v)
            continue
        segments = db.objects[v.id].segments
        ids = [segment_vertex_id(v.id, seg.id) for seg in segments]
        ends = [i for i, vid in enumerate(ids) if vid in referenced] or [0]
        span = range(ends[0], ends[-1] + 1)
        for i in span:
            # Segments are small enough to count as punctual vertices.
            vertices.append(Vertex(
                id=ids[i], kind=v.kind, dim=Dimensionality.PUNCTUAL,
                coord=segments[i].coord,
                parish=v.parish, inside_old_walls=v.inside_old_walls,
                source_object=v.id, source_segment=segments[i].id))
        edges.extend(Edge(ids[i], ids[i + 1],
                          NormalizedType.ARTIFICIAL_ADJACENCY,
                          EdgeOrigin.ARTIFICIAL) for i in span[:-1])
    return ConfrontGraph(vertices, edges, meta=g.meta)


def inject_additional(g: ConfrontGraph, db: Database) -> ConfrontGraph:
    """Add street-adjacency and edifice-position relations as RelatedTo
    edges wherever both endpoints survived extraction so far."""
    def resolve(object_id: str, binding: str | None) -> str | None:
        if object_id in g.vertices:
            return object_id
        obj = db.objects.get(object_id)
        if obj is None or not obj.segments:
            return None
        vid = _stand_in(obj, binding)
        return vid if vid in g.vertices else None

    candidates: list[Edge] = []
    unresolved = 0
    for rel in db.relations:
        if rel.origin is not RelationOrigin.ADDITIONAL:
            continue
        source = resolve(rel.source_id, None)
        target = resolve(rel.target_id, rel.target_segment)
        if source is None or target is None or source == target:
            unresolved += 1
        else:
            candidates.append(Edge(source, target, NormalizedType.RELATED_TO,
                                   EdgeOrigin.ADDITIONAL))
    # Candidates carry no binding, so `g`'s edges are handed on as they are.
    edges = unique_edges([*g.edges, *candidates])
    added = len(edges) - g.m
    meta = {**g.meta, "additional_added": added,
            "additional_skipped": unresolved + len(candidates) - added}
    return ConfrontGraph(g.vertices.values(), edges, meta=meta)


def filter_components(g: ConfrontGraph, threshold: int) -> ConfrontGraph:
    """Keep only weakly connected components of at least `threshold`
    vertices; the empty graph, without meta, when none is that large."""
    if threshold < 1:
        raise MalformedRecord(f"threshold must be >= 1, got {threshold}")
    if threshold == 1:
        return g
    keep = {vid for component in g.components()
            if len(component) >= threshold for vid in component}
    if not keep:
        return ConfrontGraph([], [])
    if len(keep) == g.n:
        return g
    return g.induced_subgraph(keep)


def extract_each(db: Database, methods: Sequence[ExtractionMethod]
                 ) -> Iterator[ConfrontGraph]:
    """The full graph, then each method's variant in order, one at a
    time, all from that graph or its one hierarchy-free copy, neither
    modified. A method keeping no component gives the empty graph."""
    full = build_full_graph(db)
    yield full
    flat = (None if all(m.keep_hierarchy for m in methods)
            else filter_hierarchy(full))
    for method in methods:
        g = full if method.keep_hierarchy else flat
        g = handle_nonpunctual(g, db, method)
        if method.use_additional:
            g = inject_additional(g, db)
        g = filter_components(g, method.component_threshold)
        # The stages may hand back a shared graph: label a copy.
        g = copy.copy(g)
        g.method = method
        yield g


def extract(db: Database, method: ExtractionMethod) -> ConfrontGraph:
    """Run the pipeline for one method (see `extract_each`)."""
    _, g = extract_each(db, [method])
    return g
