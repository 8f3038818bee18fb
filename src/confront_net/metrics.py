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
sums are integers. `rank_correlation` codes hops by their present
buckets (the unreachable mark is the last, tied block) and packs each
pair into one uint64 key: from the top, the dense index of the sign and
exponent bits of an order-preserving image of the metre (-0.0 folded to
+0.0), its 52 mantissa bits, then the hop code. The key array is sorted
in place. The image is one-to-one and keeps order, and the dense index
keeps the order of the classes present, so keys without their code bits
are equal exactly when their metres are, and the metre tie runs are the
runs of equal `key >> code_bits`. When the two indices need more than
the 12 bits the sign and exponent took (long paths with uint16 hops),
an `argsort` of the images orders the pairs instead, and the rank pass
is the same. No order, sorted copy or rank array of the pairs is built,
and the result does not depend on the order of the pairs.
`distance_profile` picks each hop bucket's metres with a mask, in pair
order, so its means and stds sum the same values in the same order as
the stable hop sort of earlier versions did.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCoordinates, NoFinitePairs
from .graph import ConfrontGraph

#: Values per `np.bincount` call (its intp copy takes 512 KiB).
_BLOCK = 1 << 16
#: Pairs per block of the rank passes, whose temporaries take a few
#: bytes per value each.
_KEY_BLOCK = 1 << 13
#: The layout of a float64's bits: sign and exponent above the mantissa.
_MANTISSA_BITS = np.uint64(52)
_MANTISSA = np.uint64((1 << 52) - 1)
_CLASS_BITS = 12  # the sign and exponent bits
_SIGN = np.uint64(1 << 63)
_SIGN_SHIFT = np.int64(63)


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


def _blocked_bincount(values: np.ndarray, minlength: int) -> np.ndarray:
    """`np.bincount` of a 1-d array as int64, summed over blocks of
    `_BLOCK` values: bincount copies its input to intp, so one call on
    the whole array would cost 8 bytes per value. `minlength` exceeds
    every value."""
    counts = np.zeros(minlength, np.int64)
    for start in range(0, values.size, _BLOCK):
        counts += np.bincount(values[start:start + _BLOCK],
                              minlength=minlength)
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
    # Coordinates a float64 difference overflows give an infinite metre,
    # which ranks as a tied extreme value.
    with np.errstate(over="ignore", invalid="ignore"):
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


def _doubled_ranks(lengths: np.ndarray) -> np.ndarray:
    """Twice the average 1-based rank of each tie block, given the block
    lengths in ascending order: the block's first plus last position, an
    integer."""
    return 2 * np.cumsum(lengths) - lengths + 1


def _tie_excess(lengths: np.ndarray) -> int:
    """The sum of c^3 - c over tie blocks of lengths c, as a Python int."""
    return sum(c ** 3 - c for c in lengths[lengths > 1].tolist())


def _doubled_rank_squares(size: int, excess: int) -> int:
    """The sum of the squared doubled ranks of `size` values whose tie
    blocks have the given `_tie_excess`: 4 * sum(r^2) for untied ranks,
    less excess / 3."""
    return (2 * size * (size + 1) * (2 * size + 1) - excess) // 3


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


def _order_image(values: np.ndarray) -> np.ndarray:
    """uint64 images of non-NaN values that keep their order and their
    ties. A float is taken to float64 and -0.0 folded to +0.0; its bits
    get the sign bit set when it is non-negative and are all flipped when
    it is negative. A signed integer is offset by 2^63."""
    kind = values.dtype.kind
    if kind in "ub":
        return values.astype(np.uint64)
    if kind == "i":
        return values.astype(np.int64).view(np.uint64) ^ _SIGN
    bits = np.add(values, 0.0, dtype=np.float64).view(np.uint64)
    flip = (bits.view(np.int64) >> _SIGN_SHIFT).view(np.uint64)
    flip |= _SIGN
    bits ^= flip
    return bits


def _argsort_keys(image: np.ndarray,
                  codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The y images in ascending order, with the x codes carried along:
    one unstable `argsort`, for keys too wide to pack."""
    order = np.argsort(image)
    return image[order], codes[order]


def _sorted_keys(y: np.ndarray, x_codes: Callable[[int, int], np.ndarray],
                 blocks: int
                 ) -> tuple[np.ndarray, np.uint64, np.ndarray | None]:
    """(keys, shift, codes): the pairs in ascending y order, as uint64
    keys whose values `>> shift` are equal exactly when the y values are.
    `x_codes(start, stop)` gives the x blocks of those pairs as uint64
    codes below `blocks`.

    A packed key holds, from the top: the dense index of the sign and
    exponent bits of the y image, the 52 low bits of that image, and the
    x code in `shift` bits. It orders as y does and, among equal y, as
    the code does, so one in-place sort orders the pairs and `codes` is
    None. When the two indices need more than the 12 bits that the sign
    and exponent took, the y images are ordered by `_argsort_keys`,
    `shift` is 0 and `codes` holds the x codes in that order.
    """
    size = y.size
    keys = np.empty(size, np.uint64)
    classes = np.zeros(1 << _CLASS_BITS, bool)
    for start in range(0, size, _KEY_BLOCK):
        image = keys[start:start + _KEY_BLOCK]
        image[:] = _order_image(y[start:start + _KEY_BLOCK])
        classes[(image >> _MANTISSA_BITS).view(np.int64)] = True
    code_bits = (blocks - 1).bit_length()
    if (int(classes.sum()) - 1).bit_length() + code_bits > _CLASS_BITS:
        keys, codes = _argsort_keys(keys, x_codes(0, size))
        return keys, np.uint64(0), codes
    dense = (np.cumsum(classes) - 1).astype(np.uint64)
    shift = np.uint64(code_bits)
    # With one class its index is 0, and a shift by 64 leaves 0 in numpy.
    top = np.uint64(_MANTISSA_BITS + shift)
    for start in range(0, size, _KEY_BLOCK):
        key = keys[start:start + _KEY_BLOCK]
        high = dense[(key >> _MANTISSA_BITS).view(np.int64)]
        high <<= top
        key &= _MANTISSA
        key <<= shift
        key |= high
        key |= x_codes(start, start + key.size)
    keys.sort()
    return keys, shift, None


def _rank_sums(keys: np.ndarray, shift: np.uint64, codes: np.ndarray | None,
               blocks: int) -> tuple[np.ndarray, int]:
    """(sums, excess) over the pairs in `_sorted_keys` order: `sums[h]`
    adds the doubled y ranks of the pairs in x block h, and `excess` is
    the `_tie_excess` of the y tie runs, the runs of equal `keys >> shift`.

    Position i holds doubled rank 2i + 2 unless it lies in a tie run; a
    run from position f to l gives each of its pairs f + l + 2. Each
    block looks one key past either edge, so a run cut by an edge is
    seen from both blocks; its far end comes from a `searchsorted` in the
    sorted keys, and it is counted in the block where it starts. A
    block's weighted `bincount` adds at most 2^13 doubled ranks of at
    most 2P each, so its float sums are exact while P < 2^39.
    """
    size = keys.size
    mask = (np.uint64(1) << shift) - np.uint64(1)
    sums = np.zeros(blocks, np.int64)
    excess = 0
    for start in range(0, size, _KEY_BLOCK):
        stop = min(start + _KEY_BLOCK, size)
        lo, hi = max(start - 1, 0), min(stop + 1, size)
        values = keys[lo:hi] >> shift
        doubled = np.arange(2 * start + 2, 2 * stop + 2, 2, dtype=np.float64)
        # Positions i and i + 1 tie for each i in `tied`.
        tied = np.flatnonzero(values[1:] == values[:-1]) + lo
        if tied.size:
            cuts = np.flatnonzero(np.diff(tied) != 1) + 1
            first = tied[np.concatenate(([0], cuts))]
            last = tied[np.append(cuts - 1, -1)] + 1
            if first[0] < start:
                first[0] = np.searchsorted(keys, values[0] << shift)
            if last[-1] == stop:
                last[-1] = np.searchsorted(keys, values[-1] << shift | mask,
                                           "right") - 1
            runs = (last - first + 1)[first >= start]
            if last[-1] >= stop and first[-1] >= start:
                # The one run long enough for its cube to pass 2^63.
                excess += _tie_excess(runs[-1:])
                runs = runs[:-1]
            excess += int((runs ** 3 - runs).sum())
            # Each run's positions in this block take its doubled rank.
            begin = np.maximum(first, start) - start
            lengths = np.minimum(last, stop - 1) - start + 1 - begin
            offsets = np.arange(lengths.sum()) + np.repeat(
                begin - (np.cumsum(lengths) - lengths), lengths)
            doubled[offsets] = np.repeat(first + last + 2, lengths)
        block = keys[start:stop]
        block_codes = block & mask if codes is None else codes[start:stop]
        sums += np.bincount(block_codes.astype(np.intp), weights=doubled,
                            minlength=blocks).astype(np.int64)
    return sums, excess


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rho with average ranks for ties; infinite values and the
    unreachable mark of unsigned hops rank as tied extreme blocks. NaN
    when either side holds a NaN or is constant.

    The rank sums are exact integers on doubled ranks, so rho is the
    correctly rounded coefficient, whatever the order of the pairs. x is
    coded by its present tie blocks, and each pair becomes one uint64 key
    of its y order and its x code (`_sorted_keys`), sorted in place; no
    order, sorted copy or rank array of the pairs is built. Every pair in
    x block h has the same doubled rank A_h, so the cross sum is
    sum_h A_h * S_h, where S_h sums the doubled y ranks over that block
    (`_rank_sums`).
    """
    x, y = np.asarray(x), np.asarray(y)
    size = x.size
    if size < 2 or any(v.dtype.kind == "f" and np.isnan(v).any()
                       for v in (x, y)):
        return math.nan
    codes, x_lengths = _tie_codes(x)
    present = np.flatnonzero(x_lengths)
    if present.size < 2:
        return math.nan
    x_lengths = x_lengths[present]
    if codes is x:  # hops: the dense index of each present hop count
        dense = np.zeros(_unreachable(x) + 1, np.uint64)
        dense[present] = np.arange(present.size, dtype=np.uint64)

        def x_codes(start: int, stop: int) -> np.ndarray:
            return dense[x[start:stop]]
    else:
        def x_codes(start: int, stop: int) -> np.ndarray:
            return codes[start:stop].astype(np.uint64)
    keys, shift, sorted_codes = _sorted_keys(y, x_codes, present.size)
    sums, y_excess = _rank_sums(keys, shift, sorted_codes, present.size)
    cross = sum(a * s for a, s in zip(_doubled_ranks(x_lengths).tolist(),
                                      sums.tolist()))
    # P times the centred sums: the doubled ranks on each side sum to
    # P(P + 1).
    square_of_sum = (size * (size + 1)) ** 2
    var_x = (size * _doubled_rank_squares(size, _tie_excess(x_lengths))
             - square_of_sum)
    var_y = size * _doubled_rank_squares(size, y_excess) - square_of_sum
    if var_y == 0:
        return math.nan
    return _ratio_to_root(size * cross - square_of_sum, var_x * var_y)


def distance_profile(g: ConfrontGraph,
                     pairs: PairDistances | None = None) -> DistanceProfile:
    """Mean and std of the spatial distance per hop count; `pairs`, when
    given, is the graph's `pair_distances` result, reused as is.

    Each bucket's metres are picked by a mask, `spatial[hops == h]`, in
    the pairs' own order, ascending in h, so the unreachable bucket is
    last. Only one mask and one bucket are held at a time.
    """
    if pairs is None:
        pairs = pair_distances(g)
    if pairs.located is None:
        have = sum(1 for v in g.vertices.values() if v.coord is not None)
        raise InsufficientCoordinates(
            f"need at least 2 located vertices, have {have}")
    graph_d, spatial = pairs.located
    mark = _unreachable(graph_d)
    buckets = []
    for h in np.flatnonzero(_blocked_bincount(graph_d, mark + 1)).tolist():
        sel = spatial[graph_d == h]
        with np.errstate(over="ignore", invalid="ignore"):  # infinite metres
            mean, std = float(sel.mean()), float(sel.std())
        buckets.append(ProfileBucket(
            graph_distance=math.inf if h == mark else float(h),
            count=int(sel.size), mean_spatial=mean, std_spatial=std))
    return DistanceProfile(tuple(buckets))


def summarize(g: ConfrontGraph, baseline: int | None = None,
              pairs: PairDistances | None = None) -> GraphSummary:
    """The full statistic row for one graph, from one hop pass (`pairs`,
    when given, is the graph's `pair_distances` result, reused as is).

    `baseline`, the coverage denominator, is the property count of the
    register's full graph; without one, coverage reads 0.

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
