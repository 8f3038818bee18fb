"""Topological and spatial statistics of a confront graph.

Everything runs on the collapsed undirected simple view except density,
which uses the directed edge count. Distances are unweighted hops,
held from the search to the last statistic as unsigned integers whose
type's maximum (`_unreachable`) marks an unreachable pair; that mark
counts as an infinite distance. One hop pass per graph, in `measure`;
every statistic derives from it: `pair_distances` runs the all-pairs
search once and keeps the hop histogram of every pair, from which
d_max and d_harm come, and the (hops, metres) vectors of the located
pairs, from which rho_d and the distance profile come. The search is a
breadth-first search from every source at once over packed bitsets
(Then et al., "The More the Merrier: Efficient Multi-Source Graph
Traversal", PVLDB 8(4), 2014), in numpy alone. Spatial statistics
(rank correlation, distance profile) consider only vertex pairs where
both ends carry coordinates.

d_harm and rho_d are computed from exact integer sums and rounded once:
d_harm over the hop buckets, rho_d from doubled average ranks, whose
sums are integers. `rank_correlation` codes x, hop counts (the
unreachable mark last) or `np.unique` codes, by the dense index of its
present tie blocks and packs each pair into one uint64 key: from the
top, the dense index of the exponent bits of the metre, its 52 mantissa
bits, then the x code. A metre is non-negative float64, +inf allowed,
so its bits order as its value does, and the dense index keeps the
order of the exponents present: keys without their code bits are equal
exactly when their metres are, and the metre tie runs are the runs of
equal `key >> code_bits`. When the two indices need more than the 12
bits of the sign and exponent (long paths with uint16 hops), an
`argsort` of the metre bits orders the pairs instead, and the rank pass
is the same. The result does not depend on the order of the pairs.

A located pair costs 1 hop byte plus 8 bytes that hold its metre and
then its key. `pair_distances` fills the hops, releases the n x n hop
matrix and only then fills the metres; `measure` takes the distance
profile first, and `rank_correlation` then writes the keys over the
metres. No rank array of the pairs is built, and an order of them only
by the argsort step. `distance_profile` fills each hop bucket's metres
into a buffer of the bucket's size, block by block in pair order, so its
means and stds sum the same values in the same order as the stable hop
sort of earlier versions did.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import GraphTooLarge
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

    Row v of `seen` and `reached` is a bitset over the sources, packed
    in uint64 words: bit s is set once source s has reached v. Each level
    ORs the `reached` rows of every vertex's neighbours (one `reduceat`
    over CSR lists; an isolated vertex is its own neighbour and reaches
    nothing) and keeps the bits not yet seen. Bit b of a pair's hop count
    is kept in `planes[b]`, so the n x n matrix is unpacked once per bit,
    not once per level; pairs never reached get every bit, the
    unreachable mark.
    """
    n = g.n
    words = -(-n // 64)
    pairs = np.array(g.undirected_pairs(), dtype=np.intp).reshape(-1, 2)
    isolated = np.flatnonzero(np.bincount(pairs.ravel(), minlength=n) == 0)
    ends = np.concatenate([pairs, pairs[:, ::-1],
                           np.column_stack([isolated, isolated])])
    ends = ends[np.argsort(ends[:, 0])]
    starts = np.searchsorted(ends[:, 0], np.arange(n))
    nbr = ends[:, 1]
    # Bits are set and read by byte, so the word order of the machine
    # does not matter.
    diagonal = np.arange(n)
    reached = np.zeros((n, 8 * words), np.uint8)
    reached[diagonal, diagonal >> 3] = 1 << (diagonal & 7)
    reached = reached.view(np.uint64)
    seen = reached.copy()
    planes: list[np.ndarray] = []
    level = 0
    while True:
        reached = np.bitwise_or.reduceat(reached[nbr], starts, axis=0)
        reached &= ~seen
        if not reached.any():
            break
        level += 1
        seen |= reached
        if level >> len(planes):
            planes.append(np.zeros_like(seen))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= reached
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

    The located vectors are filled row by row: the hops from the hop
    matrix, in its type, then, once the matrix is released, the metres,
    which `np.hypot` writes in place from two coordinate columns. No
    index array, float matrix or coordinate-difference array is built.
    """
    matrix = all_pairs_graph_distance(g)
    n = matrix.shape[0]
    # The matrix is symmetric with a zero diagonal.
    histogram = _blocked_bincount(matrix.ravel(), _unreachable(matrix) + 1)
    histogram[0] -= n
    histogram //= 2
    located = [(i, v.coord) for i, v in enumerate(g.vertices.values())
               if v.coord is not None]
    if len(located) < 2:
        return PairDistances(histogram, None)
    idx = np.array([i for i, _ in located])
    x, y = np.array([c for _, c in located], dtype=float).T.copy()
    # Row k holds the pairs (k, k + 1), ..., (k, last).
    starts = [0, *itertools.accumulate(range(len(idx) - 1, 0, -1))]
    rows = [slice(a, b) for a, b in zip(starts, starts[1:])]
    located_hops = np.empty(starts[-1], matrix.dtype)
    for k, row in enumerate(rows):
        located_hops[row] = matrix[idx[k], idx[k + 1:]]
    del matrix
    metres = np.empty(starts[-1])
    # Coordinates a float64 difference overflows give an infinite metre,
    # which ranks as a tied extreme value.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, row in enumerate(rows):
            np.hypot(x[k] - x[k + 1:], y[k] - y[k + 1:], out=metres[row])
    return PairDistances(histogram, (located_hops, metres))


def _finite_max(histogram: np.ndarray) -> int:
    """The largest hop count with a pair: the last nonzero bucket below
    the unreachable mark; 0 when no pair is connected."""
    finite = np.flatnonzero(histogram[1:-1])
    return int(finite[-1]) + 1 if finite.size else 0


def _harmonic_mean(histogram: np.ndarray) -> float:
    """P / sum(1/h) over the P pairs, unreachable ones adding nothing to
    the sum; inf when no pair is connected, 0.0 without a pair. The sum
    is taken exactly, over the least common multiple of the hop counts,
    and the quotient of the two integers is rounded once."""
    hops = (np.flatnonzero(histogram[1:-1]) + 1).tolist()
    if not hops:
        return math.inf if histogram.any() else 0.0
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


def _argsort_keys(keys: np.ndarray,
                  codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The metre bits in ascending order, with the x codes carried along:
    one unstable `argsort`, for keys too wide to pack."""
    order = np.argsort(keys)
    return keys[order], codes[order]


def _sorted_keys(y: np.ndarray, x_codes: Callable[[int, int], np.ndarray],
                 blocks: int
                 ) -> tuple[np.ndarray, np.uint64, np.ndarray | None] | None:
    """(keys, shift, codes): the pairs in ascending y order, as uint64
    keys whose values `>> shift` are equal exactly when the y values are;
    None when y holds a NaN. y is the metres, a contiguous float64 array,
    which the keys are built over. `x_codes(start, stop)` gives the x
    blocks of those pairs as uint64 codes below `blocks`.

    A packed key holds, from the top: the dense index of the exponent
    bits of the metre, its 52 mantissa bits, and the x code in `shift`
    bits. It orders as y does and, among equal y, as the code does, so
    one in-place sort orders the pairs and `codes` is None. When the two
    indices need more than the 12 bits that the sign and exponent took,
    the metre bits are ordered into a new array by `_argsort_keys`,
    `shift` is 0 and `codes` holds the x codes in that order.
    """
    size = y.size
    keys = y.view(np.uint64)
    classes = np.zeros(1 << _CLASS_BITS, bool)
    for start in range(0, size, _KEY_BLOCK):
        classes[(keys[start:start + _KEY_BLOCK] >> _MANTISSA_BITS)
                .view(np.int64)] = True
    # A NaN has every exponent bit set: class 2047, or 4095 with the sign
    # bit, which puts a negative metre or -0.0 in class 2048 or above.
    if classes[[2047, 4095]].any() and np.isnan(y).any():
        return None
    if classes[2048:].any():
        raise ValueError("a metre is negative or -0.0")
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

    y, the metres (non-negative float64, +inf allowed), is consumed: the
    keys are built over it; another type goes to a float64 copy. A
    negative metre or -0.0 raises `ValueError` unless x gave NaN first.

    The rank sums are exact integers on doubled ranks, so rho is the
    correctly rounded coefficient, whatever the order of the pairs. x is
    coded by its present tie blocks, and each pair becomes one uint64 key
    of its metre and its x code (`_sorted_keys`), sorted in place; no
    order, sorted copy or rank array of the pairs is built. Every pair in
    x block h has the same doubled rank A_h, so the cross sum is
    sum_h A_h * S_h, where S_h sums the doubled y ranks over that block
    (`_rank_sums`).
    """
    x, y = np.asarray(x), np.ascontiguousarray(y, dtype=np.float64)
    size = x.size
    if size < 2 or x.dtype.kind == "f" and np.isnan(x).any():
        return math.nan
    codes, x_lengths = _tie_codes(x)
    present = x_lengths > 0
    x_lengths = x_lengths[present]
    blocks = x_lengths.size
    if blocks < 2:
        return math.nan
    dense = (np.cumsum(present) - 1).astype(np.uint64)
    ranked = _sorted_keys(y, lambda i, j: dense[codes[i:j]], blocks)
    if ranked is None:
        return math.nan
    sums, y_excess = _rank_sums(*ranked, blocks)
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


def distance_profile(hops: np.ndarray, metres: np.ndarray) -> DistanceProfile:
    """Mean and std of the spatial distance per hop count, over the
    located pair vectors of `pair_distances`.

    The buckets go in ascending h, so the unreachable bucket is last.
    Each is filled, block by block in the pairs' own order, into a
    buffer sized from the hop histogram, so only one bucket and one
    block mask are held at a time.
    """
    mark = _unreachable(hops)
    histogram = _blocked_bincount(hops, mark + 1)
    buckets = []
    for h in np.flatnonzero(histogram).tolist():
        sel = np.empty(histogram[h])
        pos = 0
        for start in range(0, hops.size, _BLOCK):
            picked = metres[start:start + _BLOCK][hops[start:start + _BLOCK]
                                                  == h]
            sel[pos:pos + picked.size] = picked
            pos += picked.size
        with np.errstate(over="ignore", invalid="ignore"):  # infinite metres
            mean, std = float(sel.mean()), float(sel.std())
        buckets.append(ProfileBucket(
            graph_distance=math.inf if h == mark else float(h),
            count=int(sel.size), mean_spatial=mean, std_spatial=std))
    return DistanceProfile(tuple(buckets))


def measure(g: ConfrontGraph, baseline: int | None = None,
            profile: bool = False
            ) -> tuple[GraphSummary, DistanceProfile | None]:
    """The full statistic row for one graph and, with `profile`, its
    distance profile, from one hop pass. The profile is None without
    `profile` or with fewer than two located vertices.

    `baseline`, the coverage denominator, is the property count of the
    register's full graph; without one, coverage reads 0.

    Every graph takes this one path: a graph with no connected pair has
    d_max 0, one with no pair at all (fewer than two vertices) d_harm 0,
    and fewer than two located vertices give rho_d NaN.

    The profile is taken first; rho_d then consumes the metres, which
    nothing reads afterwards. Out of memory raises `GraphTooLarge`.
    """
    properties = g.property_count()
    coverage = properties / baseline if baseline else 0.0
    spread, rho = None, math.nan
    try:
        pairs = pair_distances(g)
        if pairs.located is not None:
            spread = distance_profile(*pairs.located) if profile else None
            rho = rank_correlation(*pairs.located)
    except MemoryError:
        count = sum(v.coord is not None for v in g.vertices.values())
        raise GraphTooLarge(f"out of memory at n={g.n} with "
                            f"{math.comb(count, 2)} located pairs") from None
    summary = GraphSummary(
        n=g.n, m=g.m, delta=density(g), property_count=properties,
        property_coverage=coverage, components=len(g.components()),
        d_max=_finite_max(pairs.histogram),
        d_harm=_harmonic_mean(pairs.histogram), rho_d=rho)
    return summary, spread


def summarize(g: ConfrontGraph, baseline: int | None = None) -> GraphSummary:
    """The statistic row of `measure`, without a profile."""
    return measure(g, baseline)[0]
