"""Topological and spatial statistics of a confront graph.

Everything runs on the collapsed undirected simple view except density,
which uses the directed edge count. Distances are unweighted hops,
held from the search to the last statistic as unsigned integers whose
type's maximum (`_unreachable`) marks an unreachable pair; that mark
counts as an infinite distance. One hop pass per graph; every statistic
derives from it: `pair_distances` runs the all-pairs search once and
keeps the hop histogram of every pair, from which d_max and d_harm
come, and the (hops, metres) vectors of the located pairs, from which
rho_d and the distance profile come. The search is a breadth-first
search from every source at once over packed bitsets (Then et al., "The
More the Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4),
2014), in numpy alone. Spatial statistics (rank correlation, distance
profile) consider only vertex pairs where both ends carry coordinates.

d_harm and rho_d are computed from exact integer sums and rounded once:
d_harm over the hop buckets, rho_d from doubled average ranks, whose
sums are integers. `rank_correlation` codes hops by their bucket (the
unreachable mark is the last, tied block) and splits the metres, sorted
once, into tie blocks; its result does not depend on the order of the
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCoordinates, NoFinitePairs
from .graph import ConfrontGraph

#: Values per `np.bincount` call (its intp copy takes 512 KiB).
_BLOCK = 1 << 16


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
    """The result of one hop pass, over unordered pairs i < j; the
    located vectors follow the row-major upper triangle of the located
    vertices, in vertex order."""

    # histogram[h] counts the pairs h hops apart; its last bucket, at the
    # unreachable mark, counts the disconnected pairs.
    histogram: np.ndarray
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


def _blocked_bincount(values: np.ndarray, minlength: int,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """`np.bincount` of a 1-d array as int64, summed over blocks of
    `_BLOCK` values: bincount copies its input to intp, so one call on
    the whole array would cost 8 bytes per value. `minlength` exceeds
    every value. Weighted blocks are exact while their sums stay below
    2^53, which holds for weights that are integers below 2^32."""
    counts = np.zeros(minlength, np.int64)
    for start in range(0, values.size, _BLOCK):
        stop = start + _BLOCK
        counts += np.bincount(
            values[start:stop], minlength=minlength,
            weights=None if weights is None else weights[start:stop]
        ).astype(np.int64, copy=False)
    return counts


def pair_distances(g: ConfrontGraph) -> PairDistances:
    """Run the all-pairs hop search once and keep what the statistics
    read: the hop histogram of every pair and the located pair vectors.

    The located vectors are filled row by row from the hop matrix and
    keep its type, so no index arrays, float matrix, located-vertex
    submatrix or coordinate-difference cube is built, and the n x n
    matrix is released when this returns.
    """
    matrix = all_pairs_graph_distance(g)
    n = matrix.shape[0]
    # The matrix is symmetric with a zero diagonal.
    histogram = _blocked_bincount(matrix.ravel(), _unreachable(matrix) + 1)
    histogram[0] -= n
    histogram //= 2
    index = g.vertex_index()
    located = [(index[v.id], v.coord) for v in g.vertices.values()
               if v.coord is not None]
    if len(located) < 2:
        return PairDistances(histogram, None)
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
    return PairDistances(histogram, (located_hops, metres))


def _finite_max(histogram: np.ndarray) -> int:
    """The largest hop count with a pair: the last nonzero bucket below
    the unreachable mark."""
    finite = np.flatnonzero(histogram[1:-1])
    if finite.size == 0:
        raise NoFinitePairs("every vertex pair is disconnected")
    return int(finite[-1]) + 1


def _harmonic_mean(histogram: np.ndarray) -> float:
    """P / sum(1/h) over the P pairs, unreachable ones adding nothing to
    the sum; inf when no pair is connected. The sum is taken exactly, over
    the least common multiple of the hop counts, and the quotient of the
    two integers is rounded once."""
    hops = (np.flatnonzero(histogram[1:-1]) + 1).tolist()
    if not hops:
        return math.inf
    common = math.lcm(*hops)
    total = sum(count * (common // h)
                for h, count in zip(hops, histogram[hops].tolist()))
    return int(histogram.sum()) * common / total


def _tie_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, lengths): `codes[i]` numbers the tie block of `values[i]`
    in ascending order and `lengths` counts each block. Unsigned values
    (hops) are their own codes, counted by `bincount`, so the unreachable
    mark ranks last as infinity would; other values go through
    `np.unique`, where infinities are tied extreme blocks."""
    if values.dtype.kind == "u":
        return values, _blocked_bincount(values, _unreachable(values) + 1)
    _, codes, lengths = np.unique(values, return_inverse=True,
                                  return_counts=True)
    return codes, lengths


def _tie_lengths(ascending: np.ndarray) -> np.ndarray:
    """The lengths of the tie blocks of an ascending array: the steps
    between the blocks' last positions, taken in place."""
    last = np.flatnonzero(np.append(ascending[1:] != ascending[:-1],
                                    ascending.size > 0))
    last[1:] -= last[:-1].copy()
    last[:1] += 1
    return last


def _doubled_ranks(lengths: np.ndarray) -> np.ndarray:
    """Twice the average 1-based rank of each tie block, given the block
    lengths in ascending order: the block's first plus last position, an
    integer."""
    return 2 * np.cumsum(lengths) - lengths + 1


def _doubled_rank_squares(lengths: np.ndarray) -> int:
    """The sum of the squared doubled ranks over the tie blocks:
    4 * sum(r^2) for P untied ranks, less (c^3 - c) / 3 per tie block of
    c, as Python ints."""
    size = int(lengths.sum())
    ties = sum(c ** 3 - c for c in lengths[lengths > 1].tolist())
    return (2 * size * (size + 1) * (2 * size + 1) - ties) // 3


def _ratio_to_root(num: int, square: int) -> float:
    """num / sqrt(square), rounded once. The quotient, scaled by 2^k, is
    taken to an integer of at least 56 bits by `math.isqrt`; an inexact
    root adds a sticky bit, so the one rounding of the division of two
    integers is correct."""
    if num == 0:
        return 0.0
    k = max(0, 58 + (square.bit_length() + 1) // 2 - abs(num).bit_length())
    scaled = (num * num) << (2 * k)
    root = math.isqrt(scaled // square)
    if root * root * square != scaled:
        root, k = 2 * root + 1, k + 1
    return math.copysign(root / (1 << k), num)


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rho with average ranks for ties; infinite values and the
    unreachable mark of unsigned hops rank as tied extreme blocks. NaN
    when either side holds a NaN or is constant.

    The rank sums are exact integers on doubled ranks, so rho is the
    correctly rounded coefficient, whatever the order of the pairs. x is
    coded by tie block; y is sorted once, unstably, and split into tie
    blocks. Every pair in x block h has the same doubled rank A_h, so the
    cross sum is sum_h A_h * S_h, where S_h sums the doubled y ranks over
    that block; the x codes are carried into y order for it, so no rank
    is scattered back to pair order.
    """
    x, y = np.asarray(x), np.asarray(y)
    size = x.size
    if size < 2 or any(v.dtype.kind == "f" and np.isnan(v).any()
                       for v in (x, y)):
        return math.nan
    # Each array of P values is dropped as soon as it has been read, which
    # keeps the peak near 25 bytes per pair beyond x and y.
    codes, x_lengths = _tie_codes(x)
    order = np.argsort(y)
    codes = codes[order]
    y_sorted = y[order]
    del order
    y_lengths = _tie_lengths(y_sorted)
    del y_sorted
    y_ranks = np.repeat(_doubled_ranks(y_lengths), y_lengths)
    sums = _blocked_bincount(codes, x_lengths.size, y_ranks)
    del codes, y_ranks
    present = np.flatnonzero(x_lengths)
    cross = sum(a * s for a, s in zip(
        _doubled_ranks(x_lengths)[present].tolist(), sums[present].tolist()))
    # P times the centred sums: the doubled ranks on each side sum to
    # P(P + 1).
    square_of_sum = (size * (size + 1)) ** 2
    var_x = size * _doubled_rank_squares(x_lengths) - square_of_sum
    var_y = size * _doubled_rank_squares(y_lengths) - square_of_sum
    if var_x == 0 or var_y == 0:
        return math.nan
    return _ratio_to_root(size * cross - square_of_sum, var_x * var_y)


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
        d_max = _finite_max(pairs.histogram)
    except NoFinitePairs:
        d_max = 0
    rho = (math.nan if pairs.located is None
           else rank_correlation(*pairs.located))
    return GraphSummary(
        n=g.n, m=g.m, delta=density(g), property_count=properties,
        property_coverage=coverage, components=len(g.components()),
        d_max=d_max, d_harm=_harmonic_mean(pairs.histogram), rho_d=rho)
