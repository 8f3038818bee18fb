"""Topological and spatial statistics of a confront graph.

Everything runs on the collapsed undirected simple view except density,
which uses the directed edge count. Distances are unweighted hops,
held from the search to the last statistic as unsigned integers whose
type's maximum (`_unreachable`) marks an unreachable pair; that mark
counts as an infinite distance. One hop pass per graph; every statistic
derives from it: `pair_distances` runs the all-pairs search once and
keeps only the pair vectors that d_max, d_harm, rho_d and the distance
profile read. The search is a breadth-first search from every source at
once over packed bitsets (Then et al., "The More the Merrier: Efficient
Multi-Source Graph Traversal", PVLDB 8(4), 2014), in numpy alone.
Spatial statistics (rank correlation, distance profile) consider only
vertex pairs where both ends carry coordinates. Hops and metres are
ranked by the one average-rank function `_average_ranks`, in which the
unreachable mark sorts last as one tied block;
`rank_correlation` is the one Spearman correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCoordinates, NoFinitePairs
from .graph import ConfrontGraph


@dataclass(frozen=True)
class GraphSummary:
    n: int
    m: int
    delta: float
    property_count: int
    property_coverage: float
    components: int
    d_max: int
    d_harm: float
    rho_d: float


@dataclass(frozen=True)
class ProfileBucket:
    graph_distance: float  # hop count, math.inf for the disconnected bucket
    count: int
    mean_spatial: float
    std_spatial: float


@dataclass(frozen=True)
class DistanceProfile:
    buckets: tuple[ProfileBucket, ...]  # finite ascending, infinite last

    def pair_count(self) -> int:
        return sum(b.count for b in self.buckets)


@dataclass(frozen=True)
class PairDistances:
    """The result of one hop pass, over unordered pairs i < j in vertex
    order (the row-major upper triangle)."""

    hops: np.ndarray  # every pair, in the type of the hop matrix
    # (hops, Euclidean metres) over pairs of located vertices; None when
    # fewer than two vertices carry coordinates.
    located: tuple[np.ndarray, np.ndarray] | None


def density(g: ConfrontGraph) -> float:
    if g.n < 2:
        return 0.0
    return g.m / (g.n * (g.n - 1))


def _unreachable(hops: np.ndarray) -> int:
    """The mark of an unreachable pair: the maximum of the hops' type."""
    return int(np.iinfo(hops.dtype).max)


def all_pairs_graph_distance(g: ConfrontGraph) -> np.ndarray:
    """The (n, n) hop matrix in vertex order, from a breadth-first search
    that runs from every source at once. Its type is the smallest
    unsigned one holding d_max + 1 (`uint8`, or `uint16` once
    d_max >= 255), and the type's maximum marks unreachable pairs.

    Row v of `seen` and `frontier` is a bitset over the sources, packed
    in uint64 words: bit s is set once source s has reached v. Each level
    ORs the frontier rows of every vertex's neighbours (one `reduceat`
    over the CSR neighbour lists of the vertices of nonzero degree) and
    keeps the bits not yet seen. Bit b of a pair's hop count is kept in
    `planes[b]`, so the n x n matrix is unpacked once per bit, not once
    per level; pairs never reached get every bit, the unreachable mark.
    """
    n = g.n
    words = -(-n // 64)
    pairs = np.array(g.undirected_pairs(), dtype=np.intp).reshape(-1, 2)
    ends = np.concatenate([pairs, pairs[:, ::-1]])
    ends = ends[np.argsort(ends[:, 0])]
    active, starts = np.unique(ends[:, 0], return_index=True)
    nbr = ends[:, 1]
    # Bits are set and read by byte, so the word order of the machine
    # does not matter.
    diagonal = np.arange(n)
    frontier = np.zeros((n, 8 * words), np.uint8)
    frontier[diagonal, diagonal >> 3] = 1 << (diagonal & 7)
    frontier = frontier.view(np.uint64)
    seen = frontier.copy()
    planes: list[np.ndarray] = []
    level = 0
    while nbr.size:  # without edges no source gets past level 0
        reached = np.bitwise_or.reduceat(frontier[nbr], starts, axis=0)
        reached &= ~seen[active]
        if not reached.any():
            break
        level += 1
        seen[active] |= reached
        frontier[active] = reached
        if level >> len(planes):
            planes.append(np.zeros_like(seen))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane[active] |= reached
    dtype = np.min_scalar_type(level + 1)

    def unpacked(bitsets: np.ndarray) -> np.ndarray:
        return np.unpackbits(bitsets.view(np.uint8), axis=1, count=n,
                             bitorder="little").astype(dtype, copy=False)

    hops = unpacked(~seen) * np.iinfo(dtype).max
    for b, plane in enumerate(planes):
        hops |= unpacked(plane) << b
    return hops


def pair_distances(g: ConfrontGraph) -> PairDistances:
    """Run the all-pairs hop search once and keep the pair vectors.

    Vectors are filled row by row from the hop matrix and keep its type,
    so no index arrays, float matrix, located-vertex submatrix or
    coordinate-difference cube is built, and the n x n matrix is released
    when this returns.
    """
    matrix = all_pairs_graph_distance(g)
    n = matrix.shape[0]
    hops = np.empty(n * (n - 1) // 2, matrix.dtype)
    pos = 0
    for i in range(n - 1):
        hops[pos:pos + n - 1 - i] = matrix[i, i + 1:]
        pos += n - 1 - i
    index = g.vertex_index()
    located = [(index[v.id], v.coord) for v in g.vertices.values()
               if v.coord is not None]
    if len(located) < 2:
        return PairDistances(hops, None)
    idx = np.array([i for i, _ in located])
    xy = np.array([c for _, c in located], dtype=float)
    size = len(idx) * (len(idx) - 1) // 2
    located_hops = np.empty(size, matrix.dtype)
    metres = np.empty(size)
    pos = 0
    for k in range(len(idx) - 1):
        end = pos + len(idx) - 1 - k
        located_hops[pos:end] = matrix[idx[k], idx[k + 1:]]
        diff = xy[k] - xy[k + 1:]
        metres[pos:end] = np.hypot(diff[:, 0], diff[:, 1])
        pos = end
    return PairDistances(hops, (located_hops, metres))


def _finite_max(hops: np.ndarray) -> int:
    finite = hops[hops != _unreachable(hops)]
    if finite.size == 0:
        raise NoFinitePairs("every vertex pair is disconnected")
    return int(finite.max())


def _harmonic_mean(hops: np.ndarray) -> float:
    if hops.size == 0:
        return math.inf
    # Distinct vertices are never 0 hops apart.
    inv = np.where(hops != _unreachable(hops),
                   np.divide(1.0, hops, dtype=np.float64), 0.0)
    total = float(inv.sum())
    if total == 0.0:
        return math.inf
    return hops.size / total


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie block sharing the mean of its positions.
    Unsigned values (hops) are their own codes, counted by `bincount`, so
    the unreachable mark ranks last as infinity would. Other values go
    through `np.unique`: infinities rank as tied extreme blocks, and one
    NaN makes every rank NaN. Ranks are exact half-integers built from
    integer counts."""
    if values.dtype.kind == "u":
        codes, counts = values, np.bincount(values)
    elif np.isnan(values).any():
        return np.full(values.shape, np.nan)
    else:
        _, codes, counts = np.unique(values, return_inverse=True,
                                     return_counts=True)
    return ((2 * (np.cumsum(counts) - counts) + counts + 1) * 0.5)[codes]


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rho with average ranks for ties; infinite values and the
    unreachable mark of unsigned hops rank as one tied maximal block. NaN
    when either side is constant."""
    rx = _average_ranks(np.asarray(x))
    ry = _average_ranks(np.asarray(y))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    if denom == 0.0:
        return math.nan
    return float((rx * ry).sum() / denom)


def distance_profile(g: ConfrontGraph,
                     pairs: PairDistances | None = None) -> DistanceProfile:
    """Mean and std of the spatial distance per hop count; `pairs`, when
    given, is the graph's `pair_distances` result, reused as is."""
    if pairs is None:
        pairs = pair_distances(g)
    if pairs.located is None:
        have = sum(1 for v in g.vertices.values() if v.coord is not None)
        raise InsufficientCoordinates(
            f"need at least 2 located vertices, have {have}")
    graph_d, spatial = pairs.located
    # One stable sort makes each bucket a slice of the metres in the
    # pairs' own order, so its sums, means and stds are those of the
    # bucket picked out by a mask. numpy sorts the small unsigned hops
    # stably by radix; ascending, so the unreachable bucket is last.
    order = np.argsort(graph_d, kind="stable")
    graph_d, spatial = graph_d[order], spatial[order]
    cuts = np.flatnonzero(graph_d[1:] != graph_d[:-1]) + 1
    mark = _unreachable(graph_d)
    return DistanceProfile(tuple(
        ProfileBucket(graph_distance=(math.inf if graph_d[start] == mark
                                      else float(graph_d[start])),
                      count=int(sel.size), mean_spatial=float(sel.mean()),
                      std_spatial=float(sel.std()))
        for start, sel in zip(np.concatenate(([0], cuts)),
                              np.split(spatial, cuts))))


def summarize(g: ConfrontGraph, baseline: int | None = None,
              pairs: PairDistances | None = None) -> GraphSummary:
    """The full statistic row for one graph, from one hop pass (`pairs`,
    when given, is the graph's `pair_distances` result, reused as is).

    Degenerate cases collapse to zeros: a graph with no finite pair has
    d_max 0, fewer than two vertices give d_harm 0, fewer than two
    located vertices give rho_d NaN.
    """
    properties = g.property_count()
    coverage = properties / baseline if baseline else 0.0
    if g.n < 2:
        return GraphSummary(
            n=g.n, m=g.m, delta=0.0, property_count=properties,
            property_coverage=coverage, components=len(g.components()),
            d_max=0, d_harm=0.0, rho_d=math.nan)
    if pairs is None:
        pairs = pair_distances(g)
    try:
        d_max = _finite_max(pairs.hops)
    except NoFinitePairs:
        d_max = 0
    rho = (math.nan if pairs.located is None
           else rank_correlation(*pairs.located))
    return GraphSummary(
        n=g.n, m=g.m, delta=density(g), property_count=properties,
        property_coverage=coverage, components=len(g.components()),
        d_max=d_max, d_harm=_harmonic_mean(pairs.hops), rho_d=rho)
