"""Directed multigraph of spatial objects and object segments.

Edges are directed and typed; all connectivity-style computations
(components, distances, communities) run on the collapsed undirected
simple view, which merges parallel edges of distinct types and ignores
direction. A graph is immutable after construction and keeps vertices
and edges in deterministic insertion order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .data_model import Dimensionality, ObjectKind, unique_by
from .errors import DuplicateId, MalformedRecord
from .relation_types import NormalizedType

if TYPE_CHECKING:
    from .extract import ExtractionMethod


class EdgeOrigin:
    PRIMARY = "Primary"
    ADDITIONAL = "Additional"
    ARTIFICIAL = "Artificial"


@dataclass(frozen=True)
class Vertex:
    """An object, or one segment of a split object."""

    id: str
    kind: ObjectKind
    dim: Dimensionality
    coord: tuple[float, float] | None
    parish: str | None
    inside_old_walls: bool | None
    source_object: str
    source_segment: str | None = None

    @property
    def is_property(self) -> bool:
        return self.kind is ObjectKind.PROPERTY


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    type: NormalizedType
    origin: str = EdgeOrigin.PRIMARY
    # Segment the underlying relation designates on a splittable target.
    # Consumed (and cleared) when the target gets split.
    target_segment: str | None = None

    def key(self) -> tuple[str, str, str]:
        return (self.source, self.target, self.type.value)


class ConfrontGraph:
    """Validated immutable graph; see module docstring for conventions."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge],
                 method: "ExtractionMethod | None" = None,
                 meta: Mapping[str, Any] | None = None) -> None:
        self._vertices: dict[str, Vertex] = {}
        for v in vertices:
            if v.id in self._vertices:
                raise DuplicateId(f"duplicate vertex id {v.id!r}")
            self._vertices[v.id] = v
        self._edges: tuple[Edge, ...] = tuple(edges)
        seen: set[tuple[str, str, str]] = set()
        for e in self._edges:
            if e.source == e.target:
                raise MalformedRecord(f"self-loop on {e.source!r}")
            for endpoint in (e.source, e.target):
                if endpoint not in self._vertices:
                    raise MalformedRecord(
                        f"edge references missing vertex {endpoint!r}")
            if e.key() in seen:
                raise DuplicateId(
                    f"duplicate edge {e.source!r}->{e.target!r} "
                    f"({e.type.value})")
            seen.add(e.key())
            if e.type is NormalizedType.ARTIFICIAL_ADJACENCY:
                s = self._vertices[e.source]
                t = self._vertices[e.target]
                if (s.source_segment is None or t.source_segment is None
                        or s.source_object != t.source_object):
                    raise MalformedRecord(
                        f"artificial edge {e.source!r}->{e.target!r} must "
                        f"join two segments of one object")
        self.method = method
        self.meta: dict[str, Any] = dict(meta or {})
        self._index: dict[str, int] | None = None
        self._pairs: list[tuple[int, int]] | None = None

    # --- basic accessors --------------------------------------------------

    @property
    def vertices(self) -> Mapping[str, Vertex]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertex_ids(self) -> list[str]:
        return list(self._vertices)

    def property_count(self) -> int:
        return sum(1 for v in self._vertices.values() if v.is_property)

    def __eq__(self, other: object) -> bool:
        """The same vertices and edges in the same order; meta aside."""
        if not isinstance(other, ConfrontGraph):
            return NotImplemented
        return (list(self._vertices.items()) == list(other._vertices.items())
                and self._edges == other._edges)

    def __hash__(self) -> int:  # identity hashing; equality is structural
        return id(self)

    # --- collapsed undirected simple view ---------------------------------

    def vertex_index(self) -> dict[str, int]:
        """Vertex id -> position in insertion order."""
        if self._index is None:
            self._index = {vid: i for i, vid in enumerate(self._vertices)}
        return self._index

    def undirected_pairs(self) -> list[tuple[int, int]]:
        """Distinct unordered adjacent index pairs (i < j), first-seen order.

        Parallel edges of different types and anti-parallel edges all
        collapse onto one pair; this is the simple view every distance,
        component, and community computation runs on.
        """
        if self._pairs is None:
            index = self.vertex_index()
            seen: set[tuple[int, int]] = set()
            pairs: list[tuple[int, int]] = []
            for e in self._edges:
                i, j = index[e.source], index[e.target]
                pair = (i, j) if i < j else (j, i)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
            self._pairs = pairs
        return self._pairs

    def components(self) -> list[list[str]]:
        """Weakly connected components, vertices in insertion order.

        Components are ordered by their first vertex.
        """
        ids = self.vertex_ids()
        return [[ids[i] for i in members] for members in
                connected_components(self.n, self.undirected_pairs())]

    # --- derived graphs ---------------------------------------------------

    def induced_subgraph(self, vertex_ids: Iterable[str]) -> "ConfrontGraph":
        keep = set(vertex_ids)
        vertices = [v for v in self._vertices.values() if v.id in keep]
        edges = [e for e in self._edges
                 if e.source in keep and e.target in keep]
        return ConfrontGraph(vertices, edges, meta=self.meta)

    def with_edges(self, edges: Iterable[Edge],
                   meta: Mapping[str, Any] | None = None) -> "ConfrontGraph":
        return ConfrontGraph(self._vertices.values(), edges,
                             meta=meta if meta is not None else self.meta)


def connected_components(n: int, pairs: Iterable[tuple[int, int]]
                         ) -> list[list[int]]:
    """Connected components of the undirected graph on 0..n-1 whose
    edges are `pairs`: each lists its members in ascending order, and
    components are ordered by their first member."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        members.sort()
        components.append(members)
    return components


def unique_edges(edges: Iterable[Edge]) -> list[Edge]:
    """Collapse duplicate (source, target, type) edges through
    ``unique_by``: the first wins, a later one may supply its binding."""
    return unique_by(edges, Edge.key)
