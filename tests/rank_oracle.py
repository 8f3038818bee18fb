"""The earlier `rank_correlation` of `confront_net.metrics`, kept as an
oracle: it sorts the metres once with an unstable `argsort`, carries the
hop codes into that order and ranks both sides with exact integer sums.
The tests compare the package's packed-key version with it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

#: Values per `np.bincount` call (its intp copy takes 512 KiB).
_BLOCK = 1 << 16


def _unreachable(hops: np.ndarray) -> int:
    """The mark of an unreachable pair: the maximum of the hops' type."""
    return int(np.iinfo(hops.dtype).max)


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
