"""Community detection (Louvain), modularity, and per-community reporting.

All of it runs on the collapsed undirected simple view; the typed
directed multigraph only comes back for the quotient-network edge
counts. Louvain is seeded: the vertex visiting order is a seeded
shuffle and every tie-break is deterministic, so a (graph, seed) pair
always yields the same partition.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import UncoveredVertex
from .graph import ConfrontGraph
from .metrics import GraphSummary, summarize

#: Minimum gain for a Louvain move; guards against oscillation on
#: floating-point noise.
_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class CommunityPartition:
    assignment: dict[str, int]  # vertex id -> community id, 1..C contiguous
    modularity: float
    level_modularities: tuple[float, ...] = ()

    def community_count(self) -> int:
        return max(self.assignment.values(), default=0)

    def members(self) -> dict[int, list[str]]:
        """Community id -> member vertex ids, in assignment order."""
        out: dict[int, list[str]] = {}
        for vid, c in self.assignment.items():
            out.setdefault(c, []).append(vid)
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class CommunityNode:
    community: int
    size: int
    intra_edges: int
    kind_counts: dict[str, int]
    parish_counts: dict[str, int]  # property members only
    walls_inside: int
    walls_outside: int
    walls_unknown: int


@dataclass(frozen=True)
class CommunityLink:
    a: int
    b: int  # a < b
    weight: int  # directed multigraph edges between the two, either way


@dataclass(frozen=True)
class CommunityNetwork:
    nodes: tuple[CommunityNode, ...]
    links: tuple[CommunityLink, ...]


def _labels_for(g: ConfrontGraph,
                assignment: Mapping[str, int]) -> list[int]:
    labels = []
    for vid in g.vertices:
        c = assignment.get(vid)
        if c is None:
            raise UncoveredVertex(f"vertex {vid!r} has no community")
        labels.append(c)
    return labels


def _modularity_labels(g: ConfrontGraph, labels: Sequence[int]) -> float:
    pairs = g.undirected_pairs()
    m = len(pairs)
    if m == 0:
        return 0.0
    intra: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for i, j in pairs:
        if labels[i] == labels[j]:
            intra[labels[i]] = intra.get(labels[i], 0) + 1
        degree_sum[labels[i]] = degree_sum.get(labels[i], 0) + 1
        degree_sum[labels[j]] = degree_sum.get(labels[j], 0) + 1
    q = 0.0
    for c, d_c in degree_sum.items():
        q += intra.get(c, 0) / m - (d_c / (2 * m)) ** 2
    return q


def modularity(g: ConfrontGraph, p: CommunityPartition) -> float:
    """Q = sum over communities of [L_c/m - (d_c/2m)^2], simple view."""
    return _modularity_labels(g, _labels_for(g, p.assignment))


def _one_level(neighbors: list[dict[int, float]], self_w: list[float],
               rng: random.Random) -> tuple[list[int], bool]:
    """Local moving phase; returns (community per node, any move made)."""
    n = len(neighbors)
    k = [sum(nb.values()) + 2.0 * sw for nb, sw in zip(neighbors, self_w)]
    two_m = sum(k)
    comm = list(range(n))
    sigma = k[:]  # total degree per community
    order = list(range(n))
    rng.shuffle(order)
    moved_any = False
    improved = True
    while improved:
        improved = False
        for i in order:
            ci = comm[i]
            sigma[ci] -= k[i]
            link_to: dict[int, float] = {}
            for j, w in neighbors[i].items():
                cj = comm[j]
                link_to[cj] = link_to.get(cj, 0.0) + w
            best_c = ci
            best_gain = link_to.get(ci, 0.0) - sigma[ci] * k[i] / two_m
            for c in sorted(link_to):
                if c == ci:
                    continue
                gain = link_to[c] - sigma[c] * k[i] / two_m
                if gain > best_gain + _GAIN_EPS:
                    best_gain = gain
                    best_c = c
            sigma[best_c] += k[i]
            if best_c != ci:
                comm[i] = best_c
                improved = True
                moved_any = True
    return comm, moved_any


def _aggregate(comm: list[int], neighbors: list[dict[int, float]],
               self_w: list[float],
               ) -> tuple[list[dict[int, float]], list[float], dict[int, int]]:
    """Collapse communities into nodes of the next-level graph."""
    remap = {c: pos for pos, c in enumerate(sorted(set(comm)))}
    count = len(remap)
    new_neighbors: list[dict[int, float]] = [{} for _ in range(count)]
    new_self = [0.0] * count
    for i, nb in enumerate(neighbors):
        ci = remap[comm[i]]
        new_self[ci] += self_w[i]
        for j, w in nb.items():
            if j < i:
                continue
            cj = remap[comm[j]]
            if ci == cj:
                new_self[ci] += w
            else:
                new_neighbors[ci][cj] = new_neighbors[ci].get(cj, 0.0) + w
                new_neighbors[cj][ci] = new_neighbors[cj].get(ci, 0.0) + w
    return new_neighbors, new_self, remap


def louvain(g: ConfrontGraph, seed: int = 0) -> CommunityPartition:
    """Two-phase Louvain to a modularity local optimum.

    Vertex visiting order comes from one seeded shuffle per level; tie
    gains resolve to the current community first, then the lowest
    community id. Community labels are renumbered 1..C by each
    community's first vertex in graph order.
    """
    ids = g.vertex_ids()
    n = g.n
    pairs = g.undirected_pairs()
    rng = random.Random(seed)
    node_comm = list(range(n))
    levels: list[float] = []
    if pairs:
        neighbors: list[dict[int, float]] = [{} for _ in range(n)]
        for i, j in pairs:
            neighbors[i][j] = 1.0
            neighbors[j][i] = 1.0
        self_w = [0.0] * n
        while True:
            comm, moved = _one_level(neighbors, self_w, rng)
            if not moved:
                break
            neighbors, self_w, remap = _aggregate(comm, neighbors, self_w)
            node_comm = [remap[comm[c]] for c in node_comm]
            levels.append(_modularity_labels(g, node_comm))
            if len(self_w) == 1:
                break

    renumber: dict[int, int] = {}
    assignment: dict[str, int] = {}
    for vid, c in zip(ids, node_comm):
        assignment[vid] = renumber.setdefault(c, len(renumber) + 1)
    # Renumbered, each label is met in the same order: the same Q's bits.
    q = levels[-1] if levels else _modularity_labels(g, node_comm)
    return CommunityPartition(assignment=assignment, modularity=q,
                              level_modularities=tuple(levels))


def community_stats(g: ConfrontGraph,
                    p: CommunityPartition) -> list[GraphSummary]:
    """The summary of each community's induced subgraph; community c is
    at position c - 1."""
    _labels_for(g, p.assignment)  # coverage check
    return [summarize(g.induced_subgraph(members))
            for members in p.members().values()]


def community_network(g: ConfrontGraph, p: CommunityPartition) -> CommunityNetwork:
    """Quotient graph: one node per community, links weighted by the
    count of original directed edges between the two communities."""
    labels = dict(zip(g.vertices, _labels_for(g, p.assignment)))
    intra: dict[int, int] = {}
    cross: dict[tuple[int, int], int] = {}
    for e in g.edges:
        ca, cb = labels[e.source], labels[e.target]
        if ca == cb:
            intra[ca] = intra.get(ca, 0) + 1
        else:
            key = (ca, cb) if ca < cb else (cb, ca)
            cross[key] = cross.get(key, 0) + 1

    nodes = []
    for c, members in p.members().items():
        kinds: dict[str, int] = {}
        parishes: dict[str, int] = {}
        inside = outside = unknown = 0
        for vid in members:
            v = g.vertices[vid]
            kinds[v.kind.value] = kinds.get(v.kind.value, 0) + 1
            if not v.is_property:
                continue
            parish = v.parish if v.parish is not None else "unknown"
            parishes[parish] = parishes.get(parish, 0) + 1
            if v.inside_old_walls is None:
                unknown += 1
            elif v.inside_old_walls:
                inside += 1
            else:
                outside += 1
        nodes.append(CommunityNode(
            community=c, size=len(members), intra_edges=intra.get(c, 0),
            kind_counts=dict(sorted(kinds.items())),
            parish_counts=dict(sorted(parishes.items())),
            walls_inside=inside, walls_outside=outside,
            walls_unknown=unknown))
    links = tuple(CommunityLink(a=a, b=b, weight=w)
                  for (a, b), w in sorted(cross.items()))
    return CommunityNetwork(nodes=tuple(nodes), links=links)


def size_gini(p: CommunityPartition) -> float:
    """Gini coefficient of community sizes; 0 = perfectly uniform."""
    sizes = sorted(len(ms) for ms in p.members().values())
    n = len(sizes)
    total = sum(sizes)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((pos + 1) * s for pos, s in enumerate(sizes))
    return (2.0 * weighted) / (n * total) - (n + 1) / n
