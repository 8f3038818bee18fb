"""Distance, density, correlation and profile statistics.

The implementations are checked against plain-Python oracles: a deque
BFS for distances and a sort-based average-rank Spearman. Hand-computed
cases pin the conventions (harmonic mean with infinite pairs, population
standard deviation, tie handling). d_harm and rho_d are also checked
for exact equality against oracles summed as `Fraction`s and rounded to
the nearest float, and against the earlier matrix formulas
(`triu_indices`, `np.ix_`, an n x n x 2 `hypot`, `rankdata` on both
sides) to 1e-12; the rest of the single-pass statistics equal those
formulas exactly, and one hop pass is made per graph. The bitset hop
engine is checked against scipy's `shortest_path` across word
boundaries, on disconnected graphs and on paths long enough to need
16-bit hops; scipy is a test-only dependency, and the package runs
without it."""

import dataclasses
import math
import random
import struct
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import rank_oracle as argsort_oracle

from conftest import (finite_diameter, float_hops, harmonic_mean_distance,
                      hop_matrix, make_graph, make_vertex, property_baseline,
                      random_graph, run_python,
                      spearman_distance_correlation, synthetic_database)
from register_writer import save_database
from confront_net import cli, metrics
from confront_net.extract import ExtractionMethod, extract
from confront_net.graph import ConfrontGraph, Edge
from confront_net.metrics import (DistanceProfile, GraphSummary, ProfileBucket,
                                  all_pairs_graph_distance, density,
                                  distance_profile, rank_correlation,
                                  summarize)
from confront_net.normalize import merge_equal_objects
from confront_net.relation_types import NormalizedType
from confront_net.serialize import read_cache

R = NormalizedType.RELATED_TO
N = NormalizedType.NORTH_OF


# --- oracles --------------------------------------------------------------

def bfs_oracle(g):
    adj = {v: set() for v in g.vertex_ids()}
    for e in g.edges:
        adj[e.source].add(e.target)
        adj[e.target].add(e.source)
    out = {}
    for start in adj:
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out[start] = dist
    return out


def rank_oracle(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and values[order[j + 1]] == values[order[i]]):
            j += 1
        avg = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = avg
        i = j + 1
    return ranks


def spearman_oracle(x, y):
    rx, ry = rank_oracle(x), rank_oracle(y)
    n = len(x)
    mx, my = math.fsum(rx) / n, math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return math.nan
    return cov / math.sqrt(vx * vy)


def nearest_root(square: Fraction) -> float:
    """The float nearest to sqrt(square), found by comparing the square
    exactly with the squared midpoints between neighbouring floats."""
    root = math.sqrt(square)
    while True:
        below = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2
        above = (Fraction(root)
                 + Fraction(math.nextafter(root, math.inf))) / 2
        if square < below * below:
            root = math.nextafter(root, 0.0)
        elif square > above * above:
            root = math.nextafter(root, math.inf)
        else:
            return root


def exact_harmonic_mean(dists) -> float:
    """P / sum(1/d) over P distances (inf adds nothing to the sum), summed
    as a Fraction and rounded once."""
    total = sum(Fraction(count) / Fraction(d)
                for d, count in Counter(np.asarray(dists).tolist()).items()
                if math.isfinite(d))
    return math.inf if total == 0 else float(Fraction(len(dists)) / total)


def exact_spearman(x, y) -> float:
    """Spearman rho over `rankdata`'s average ranks, from exact sums,
    rounded to the nearest float."""
    rx = [Fraction(r) for r in rankdata(x)]
    ry = [Fraction(r) for r in rankdata(y)]
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return math.nan
    if cov == 0:
        return 0.0
    return math.copysign(nearest_root(cov * cov / (vx * vy)), cov)


# --- distances ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_all_pairs_distance_matches_bfs(seed):
    g = random_graph(random.Random(seed))
    matrix, index = hop_matrix(g), g.vertex_index()
    oracle = bfs_oracle(g)
    for u in g.vertex_ids():
        for v in g.vertex_ids():
            expected = oracle[u].get(v, math.inf)
            assert matrix[index[u], index[v]] == expected


def test_distances_ignore_direction_and_multiplicity():
    vs = [make_vertex(v) for v in "abc"]
    g = ConfrontGraph(vs, [Edge("b", "a", R), Edge("a", "b", N),
                           Edge("b", "c", R)])
    matrix, index = hop_matrix(g), g.vertex_index()
    assert matrix[index["a"], index["c"]] == 2
    assert matrix[index["c"], index["a"]] == 2


def test_finite_diameter_on_path():
    assert finite_diameter(make_graph([(0, 1), (1, 2), (2, 3)])) == 3


def test_finite_diameter_skips_disconnected_pairs():
    g = make_graph([(0, 1)], n=4)
    assert finite_diameter(g) == 1


def test_finite_diameter_requires_a_finite_pair():
    assert finite_diameter(make_graph([], n=3)) == 0


def test_harmonic_mean_on_path_of_three():
    # pairs: two at hop 1, one at hop 2 -> 3 / (1 + 1 + 1/2) = 1.2
    assert harmonic_mean_distance(make_graph([(0, 1), (1, 2)])) == 1.2


def test_harmonic_mean_counts_disconnected_pairs_in_numerator():
    # one edge plus an isolate: 3 pairs, reciprocals 1 + 0 + 0 -> 3.0
    assert harmonic_mean_distance(make_graph([(0, 1)], n=3)) == 3.0


def test_harmonic_mean_fully_disconnected_is_infinite():
    assert harmonic_mean_distance(make_graph([], n=3)) == math.inf


def test_density_uses_directed_edge_count():
    vs = [make_vertex(v) for v in "ab"]
    g = ConfrontGraph(vs, [Edge("a", "b", R), Edge("b", "a", N)])
    assert density(g) == 1.0
    assert density(make_graph([(0, 1)], n=3)) == pytest.approx(1 / 6)
    assert density(make_graph([], n=1)) == 0.0


# --- rank correlation -----------------------------------------------------

def random_pairs(rnd, n):
    x = [math.inf if rnd.random() < 0.15 else float(rnd.randint(1, 12))
         for _ in range(n)]
    y = [rnd.choice((0.5, 1.0, 2.5, 40.0, 41.0, 300.0)) * rnd.randint(1, 4)
         for _ in range(n)]
    return x, y


@pytest.mark.parametrize("seed", range(25))
def test_rank_correlation_matches_oracle(seed):
    rnd = random.Random(seed)
    x, y = random_pairs(rnd, rnd.randint(3, 200))
    got = rank_correlation(np.array(x), np.array(y))
    want = spearman_oracle(x, y)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_rank_correlation_against_scipy_on_finite_data():
    from scipy.stats import spearmanr
    rnd = random.Random(99)
    x = [float(rnd.randint(1, 9)) for _ in range(120)]
    y = [float(rnd.randint(1, 9)) for _ in range(120)]
    got = rank_correlation(np.array(x), np.array(y))
    assert got == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


def test_rank_correlation_is_invariant_under_monotone_transforms():
    rnd = random.Random(5)
    x, y = random_pairs(rnd, 80)
    base = rank_correlation(np.array(x), np.array(y))
    squared = rank_correlation(np.array(x), np.array([v * v for v in y]))
    assert base == squared  # identical ranks, identical arithmetic


def test_rank_correlation_extremes_and_degenerates():
    up = np.array([1.0, 2.0, 3.0, 4.0])
    down = np.array([9.0, 7.0, 5.0, 3.0])
    assert rank_correlation(up, up) == 1.0
    assert rank_correlation(up, down) == -1.0
    assert math.isnan(rank_correlation(up, np.full(4, 7.0)))


def test_rank_correlation_treats_infinite_as_tied_maximum():
    x = [1.0, math.inf, math.inf, 2.0]
    y = [1.0, 10.0, 20.0, 2.0]
    got = rank_correlation(np.array(x), np.array(y))
    # Both infinities share rank 3.5; replacing them by any equal large
    # finite value must give the same result.
    same = rank_correlation(np.array([1.0, 99.0, 99.0, 2.0]), np.array(y))
    assert got == same


# --- spatial statistics ---------------------------------------------------

def test_spearman_distance_perfect_alignment():
    g = make_graph([(0, 1), (1, 2)],
                   coords={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)})
    assert spearman_distance_correlation(g) == 1.0


def test_spearman_distance_ignores_unlocated_vertices():
    g = make_graph([(0, 1), (1, 2), (2, 3)],
                   coords={0: (0.0, 0.0), 1: (1.0, 0.0), 3: (3.0, 0.0)})
    # Only three located vertices take part; the result matches the
    # oracle on that restriction.
    matrix = hop_matrix(g)
    x = [matrix[0, 1], matrix[0, 3], matrix[1, 3]]
    y = [1.0, 3.0, 2.0]
    assert spearman_distance_correlation(g) == pytest.approx(
        spearman_oracle(x, y), abs=1e-12)


def test_spearman_distance_needs_two_located_vertices():
    g = make_graph([(0, 1)], coords={0: (0.0, 0.0)})
    assert math.isnan(summarize(g).rho_d)
    assert metrics.measure(g, profile=True)[1] is None


@pytest.mark.parametrize("seed", range(10))
def test_spearman_distance_matches_oracle_on_random_graphs(seed):
    g = random_graph(random.Random(seed), max_n=30, with_coords=True)
    located = [v for v in g.vertices.values() if v.coord is not None]
    if len(located) < 2:
        pytest.skip("degenerate draw")
    matrix, index = hop_matrix(g), g.vertex_index()
    x, y = [], []
    for i, a in enumerate(located):
        for b in located[i + 1:]:
            x.append(matrix[index[a.id], index[b.id]])
            y.append(math.dist(a.coord, b.coord))
    want = spearman_oracle(x, y)
    got = spearman_distance_correlation(g)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-12)


def test_distance_profile_hand_case():
    # A(0,0) - B(3,0) - C(3,4), D isolated far away.
    g = make_graph([(0, 1), (1, 2)], n=4,
                   coords={0: (0.0, 0.0), 1: (3.0, 0.0), 2: (3.0, 4.0),
                           3: (10.0, 10.0)})
    profile = metrics.measure(g, profile=True)[1]
    assert [b.graph_distance for b in profile.buckets] == [1.0, 2.0, math.inf]
    h1, h2, hinf = profile.buckets
    assert h1.count == 2 and h1.mean_spatial == 3.5 and h1.std_spatial == 0.5
    assert h2.count == 1 and h2.mean_spatial == 5.0 and h2.std_spatial == 0.0
    assert hinf.count == 3
    assert sum(b.count for b in profile.buckets) == 6


def test_distance_profile_spatial_mean_grows_with_hops_on_a_line():
    n = 12
    g = make_graph([(i, i + 1) for i in range(n - 1)],
                   coords={i: (float(3 * i), 0.0) for i in range(n)})
    profile = metrics.measure(g, profile=True)[1]
    means = [b.mean_spatial for b in profile.buckets]
    assert means == sorted(means)
    assert all(b.std_spatial == 0.0 for b in profile.buckets)


# --- summary --------------------------------------------------------------

def test_summarize_full_row():
    g = make_graph([(0, 1), (1, 2)],
                   coords={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)})
    s = summarize(g, baseline=6)
    assert (s.n, s.m) == (3, 2)
    assert s.delta == pytest.approx(2 / 6)
    assert s.property_count == 3
    assert s.property_coverage == 0.5
    assert s.components == 1
    assert s.d_max == 2
    assert s.d_harm == 1.2
    assert s.rho_d == 1.0


def test_summarize_without_baseline_reports_zero_coverage():
    s = summarize(make_graph([(0, 1)]))
    assert s.property_coverage == 0.0


def test_summarize_degenerate_graphs():
    empty = summarize(ConfrontGraph([], []))
    assert (empty.n, empty.m, empty.components, empty.d_max) == (0, 0, 0, 0)
    assert empty.d_harm == 0.0 and math.isnan(empty.rho_d)
    single = summarize(make_graph([], n=1), baseline=2)
    assert (single.n, single.m, single.delta, single.property_count,
            single.property_coverage, single.components, single.d_max,
            single.d_harm) == (1, 0, 0.0, 1, 0.5, 1, 0, 0.0)
    assert math.isnan(single.rho_d)

    no_finite = summarize(make_graph([], n=3))
    assert no_finite.d_max == 0
    assert no_finite.d_harm == math.inf

    no_coords = summarize(make_graph([(0, 1)]))
    assert math.isnan(no_coords.rho_d)


@pytest.mark.parametrize("seed", range(8))
def test_adding_edges_never_increases_harmonic_mean(seed):
    rnd = random.Random(seed)
    g = random_graph(rnd, max_n=25)
    missing = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
               if (i, j) not in set(g.undirected_pairs())]
    if not missing:
        pytest.skip("complete draw")
    before = harmonic_mean_distance(g)
    i, j = rnd.choice(missing)
    denser = ConfrontGraph(g.vertices.values(),
                           list(g.edges) + [Edge(f"v{i}", f"v{j}", R)])
    assert harmonic_mean_distance(denser) <= before


# --- one hop pass per graph -----------------------------------------------

def seed_era_statistics(g):
    """(d_max, d_harm, rho_d, profile) computed the way the per-statistic
    implementation did: full matrices, index arrays, `rankdata` ranks."""
    matrix = hop_matrix(g)
    dists = matrix[np.triu_indices(g.n, k=1)]
    finite = dists[np.isfinite(dists)]
    d_max = int(finite.max()) if finite.size else 0
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(dists), 1.0 / dists, 0.0)
    total = float(inv.sum())
    d_harm = math.inf if total == 0.0 else dists.size / total
    index = g.vertex_index()
    located = [(index[v.id], v.coord) for v in g.vertices.values()
               if v.coord is not None]
    if len(located) < 2:
        return d_max, d_harm, math.nan, None
    idx = np.array([i for i, _ in located])
    xy = np.array([c for _, c in located], dtype=float)
    iu = np.triu_indices(len(idx), k=1)
    graph_d = matrix[np.ix_(idx, idx)][iu]
    diff = xy[:, None, :] - xy[None, :, :]
    spatial = np.hypot(diff[..., 0], diff[..., 1])[iu]
    rx = rankdata(graph_d)
    ry = rankdata(spatial)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    rho = math.nan if denom == 0.0 else float((rx * ry).sum() / denom)
    buckets = []
    finite_mask = np.isfinite(graph_d)
    for h in sorted(set(graph_d[finite_mask].tolist())):
        sel = spatial[graph_d == h]
        buckets.append(ProfileBucket(float(h), int(sel.size),
                                     float(sel.mean()), float(sel.std())))
    rest = spatial[~finite_mask]
    if rest.size:
        buckets.append(ProfileBucket(math.inf, int(rest.size),
                                     float(rest.mean()), float(rest.std())))
    return d_max, d_harm, rho, DistanceProfile(tuple(buckets))


def exact_statistics(g):
    """(d_harm, rho_d) from the exact oracles, over the pairs of the
    scipy hop matrix."""
    matrix = scipy_hops(g)
    d_harm = exact_harmonic_mean(matrix[np.triu_indices(g.n, k=1)])
    located = [v for v in g.vertices.values() if v.coord is not None]
    if len(located) < 2:
        return d_harm, math.nan
    index = g.vertex_index()
    x, y = [], []
    for i, a in enumerate(located):
        for b in located[i + 1:]:
            x.append(matrix[index[a.id], index[b.id]])
            y.append(math.hypot(a.coord[0] - b.coord[0],
                                a.coord[1] - b.coord[1]))
    return d_harm, exact_spearman(x, y)


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def extracted_graph(seed, code):
    db = merge_equal_objects(synthetic_database(seed))
    return extract(db, ExtractionMethod.from_code(code, k=2,
                                                  component_threshold=4))


EXACTNESS_GRAPHS = (
    [pytest.param(lambda s=s: random_graph(random.Random(s), max_n=30,
                                           with_coords=True), id=f"random{s}")
     for s in range(20)]
    + [pytest.param(lambda s=s, c=c: extracted_graph(s, c), id=f"{c}-{s}")
       for s in range(3) for c in ("RFW_all", "EFS_all", "EHW_all", "RFS_k")])


@pytest.mark.parametrize("build", EXACTNESS_GRAPHS)
def test_single_pass_statistics_equal_the_seed_formulas(build):
    g = build()
    d_max, d_harm, rho, profile = seed_era_statistics(g)
    s = summarize(g)
    exact_harm, exact_rho = exact_statistics(g)
    assert s.d_max == d_max
    assert s.d_harm == exact_harm
    assert d_harm == pytest.approx(exact_harm, rel=1e-12)
    assert same(s.rho_d, exact_rho)
    if math.isnan(exact_rho):
        assert math.isnan(rho)
    else:
        assert rho == pytest.approx(exact_rho, abs=1e-12)
    assert finite_diameter(g) == d_max
    assert harmonic_mean_distance(g) == exact_harm
    if profile is None:
        assert metrics.measure(g, profile=True)[1] is None
    else:
        assert same(spearman_distance_correlation(g), exact_rho)
        assert metrics.measure(g, profile=True)[1] == profile


# Hop counts (small integers and inf) and arbitrary metres, tied or not;
# some lists also carry a NaN.
rank_values = st.one_of(st.integers(0, 40).map(float), st.just(math.inf),
                        st.floats(allow_nan=False))


@given(st.one_of(
    st.lists(rank_values, max_size=300),
    st.lists(st.one_of(rank_values, st.just(math.nan)), min_size=1,
             max_size=300)))
def test_hop_ranks_equal_rankdata(values):
    """Both ways `rank_correlation` ranks against `rankdata`: the rank
    pass over the sorted keys (metres) and the `np.unique` codes of other
    values. A NaN makes every `rankdata` rank NaN, and the correlation
    NaN on either side."""
    array = np.array(values, dtype=float)
    want = rankdata(array)
    if np.isnan(array).any():
        assert np.isnan(want).all()
        other = np.arange(array.size, dtype=float)
        assert math.isnan(rank_correlation(array, other))
        assert math.isnan(rank_correlation(other, array))
        return
    # With each value in an x block of its own, the rank sums of the
    # blocks are the doubled ranks of the values.
    keys, shift, codes = metrics._sorted_keys(
        array, lambda start, stop: np.arange(start, stop, dtype=np.uint64),
        array.size)
    sums, excess = metrics._rank_sums(keys, shift, codes, array.size)
    assert np.array_equal(sums / 2, want)
    ties = np.unique(array, return_counts=True)[1].tolist()
    assert excess == sum(c ** 3 - c for c in ties)
    codes, lengths = metrics._tie_codes(array)
    assert np.array_equal(metrics._doubled_ranks(lengths)[codes] / 2, want)


@given(st.sampled_from([np.uint8, np.uint16]).flatmap(
    lambda dtype: st.lists(
        st.one_of(st.integers(1, 40), st.just(int(np.iinfo(dtype).max))),
        max_size=300).map(lambda values: np.array(values, dtype))))
def test_integer_hop_ranks_equal_rankdata_of_the_float_view(hops):
    """Unsigned hops are their own tie codes, counted by `bincount`; the
    unreachable mark ranks as inf does in the float view."""
    codes, lengths = metrics._tie_codes(hops)
    assert codes is hops
    assert lengths.size == np.iinfo(hops.dtype).max + 1
    got = metrics._doubled_ranks(lengths)[codes] / 2
    assert np.array_equal(got, rankdata(float_hops(hops)))


@given(st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 140))
def test_ratio_to_root_is_the_nearest_float(num, square):
    """`_ratio_to_root` returns the float nearest to num / sqrt(square)
    (|ratio| <= 1 in rank correlation, not required here)."""
    got = metrics._ratio_to_root(num, square)
    want = (0.0 if num == 0 else math.copysign(
        nearest_root(Fraction(num * num, square)), num))
    assert got == want


@pytest.mark.parametrize("num,square,want", [
    (3, 9, 1.0), (-3, 9, -1.0), (0, 5, 0.0), (1, 2, math.sqrt(0.5)),
    (1, 4 * 10 ** 40, 5e-21),
    # Just above the midpoint between 0.75 and the next float: a
    # truncated root would tie and round to even, down to 0.75.
    (3 * 2 ** 52 + 1, 4 ** 54 - 1, math.nextafter(0.75, 1.0)),
    (-(3 * 2 ** 52 + 1), 4 ** 54 - 1, -math.nextafter(0.75, 1.0))])
def test_ratio_to_root_hand_cases(num, square, want):
    assert metrics._ratio_to_root(num, square) == want


@given(st.lists(st.tuples(st.integers(1, 12).map(float) | st.just(math.inf),
                          st.integers(0, 30).map(float)
                          | st.floats(0, 500, allow_nan=False)),
                min_size=2, max_size=200),
       st.randoms(use_true_random=False))
def test_rank_correlation_is_the_exact_spearman(pairs, rnd):
    """`rank_correlation` equals the exact oracle, whatever the order of
    the pairs."""
    want = exact_spearman(*zip(*pairs))
    rnd.shuffle(pairs)
    x, y = (np.array(v) for v in zip(*pairs))
    assert same(rank_correlation(x, y), want)
    hops = np.where(np.isinf(x), 255, x).astype(np.uint8)
    assert same(rank_correlation(hops, y), want)


def same_bits(a, b):
    """Equal to the bit, or both NaN."""
    return (math.isnan(a) and math.isnan(b)) or (
        struct.pack("<d", a) == struct.pack("<d", b))


# Values a metre side is built from: one-ulp neighbours of signed zeros,
# infinities, negatives, subnormals and the largest floats.
_NEAR_TIES = st.sampled_from(
    (0.0, -0.0, 1.0, -1.0, 2.5, 40.0, 5e-324, 1e300, -1e300, math.inf,
     -math.inf)).flatmap(lambda v: st.sampled_from(
        (v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf))))
_METRES = _NEAR_TIES | st.floats(allow_nan=False) | st.integers(-3, 3).map(
    float)


@st.composite
def rank_sides(draw):
    """(x, y): hops as uint8 or uint16 (some at the unreachable mark) or
    floats, against metres; either side may be constant."""
    size = draw(st.integers(2, 120))
    kind = draw(st.sampled_from(("uint8", "uint16", "float")))
    if kind == "float":
        value = _METRES
    else:
        mark = int(np.iinfo(kind).max)
        value = st.integers(0, 9) | st.just(mark) | st.integers(0, mark)
    sides = []
    for element in (value, _METRES):
        if draw(st.integers(0, 9)) == 0:
            values = [draw(element)] * size
        else:
            values = draw(st.lists(element, min_size=size, max_size=size))
        sides.append(values)
    return np.array(sides[0], dtype=kind), np.array(sides[1])


@settings(deadline=None)
@given(rank_sides(), st.sampled_from((1, 2, 3, 7, 64, 1 << 13)))
def test_rank_correlation_equals_the_argsort_oracle_bit_for_bit(sides, block):
    """The packed-key `rank_correlation` returns the bits of the earlier
    argsort version (`tests/rank_oracle.py`) on near-ties one ulp apart,
    signed zeros, infinities, negatives and constant sides, for uint8,
    uint16 and float x. Small key blocks put tie runs across block
    edges."""
    x, y = sides
    with mock.patch.object(metrics, "_KEY_BLOCK", block):
        got = rank_correlation(x, y)
    assert same_bits(got, argsort_oracle.rank_correlation(x, y))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 5, 64, 1 << 13)))
def test_rank_correlation_argsort_step_equals_the_oracle(seed, block):
    """Hundreds of hop counts and metres over hundreds of exponents need
    more than the 12 bits a packed key has to spare, so the pairs are
    ordered by an argsort of the metres instead; the result is the
    oracle's, bit for bit."""
    rnd = np.random.default_rng(seed)
    size = int(rnd.integers(600, 1200))
    x = rnd.integers(0, 500, size).astype(np.uint16)
    x[rnd.random(size) < 0.1] = np.iinfo(np.uint16).max
    y = rnd.choice((-1.0, 1.0, 0.0, 3.0), size) * np.ldexp(
        1.0, rnd.integers(-300, 300, size))
    y[rnd.random(size) < 0.3] = 0.75
    with mock.patch.object(metrics, "_KEY_BLOCK", block), \
            mock.patch.object(metrics, "_argsort_keys",
                              wraps=metrics._argsort_keys) as step:
        got = rank_correlation(x, y)
    assert step.call_count == 1
    assert same_bits(got, argsort_oracle.rank_correlation(x, y))


def test_harmonic_mean_of_integer_hops_equals_the_float_formula():
    """d_harm of a hop histogram equals the exact oracle over the pairs,
    and the float formula of earlier versions to 1e-12."""
    rnd = random.Random(7)
    hops = np.array([rnd.choice((1, 2, 3, 7, 254, 255)) for _ in range(5000)],
                    dtype=np.uint8)
    dists = float_hops(hops)
    histogram = np.bincount(hops, minlength=256)
    assert metrics._harmonic_mean(histogram) == exact_harmonic_mean(dists)
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(dists), 1.0 / dists, 0.0)
    assert dists.size / float(inv.sum()) == pytest.approx(
        exact_harmonic_mean(dists), rel=1e-12)


def test_distance_profile_of_a_uint16_graph_equals_the_seed_formula():
    # A located path of 300 vertices (d_max 299 needs uint16) and a
    # located isolate, whose pairs form the unreachable bucket.
    n = 300
    g = make_graph([(i, i + 1) for i in range(n - 1)], n=n + 1,
                   coords={i: (float(i % 17), float(i // 17))
                           for i in range(n + 1)})
    pairs = metrics.pair_distances(g)
    assert pairs.located[0].dtype == np.uint16
    assert pairs.histogram.size == 2 ** 16
    profile = metrics.measure(g, profile=True)[1]
    assert profile.buckets[-1].graph_distance == math.inf
    assert profile.buckets[-1].count == n
    assert profile == seed_era_statistics(g)[3]


def test_summarize_peak_memory_per_located_pair():
    """Under tracemalloc, `summarize` on a graph of 180k located pairs
    peaks below 32 bytes per located pair: the hop matrix, one byte per
    cell, the located vectors, 9 bytes per pair, and the rank work."""
    rnd = random.Random(3)
    side, n = 25, 640
    coords = {i: (10.0 * (i % side) + rnd.random(),
                  10.0 * (i // side) + rnd.random())
              for i in range(n) if i % 20}
    edges = ([(i, i + 1) for i in range(n - 1)
              if (i + 1) % side and rnd.random() < 0.9]
             + [(i, i + side) for i in range(n - side) if rnd.random() < 0.5])
    g = make_graph(edges, n=n + 5, coords=coords)
    pairs = len(coords) * (len(coords) - 1) // 2
    assert pairs >= 100_000
    summarize(make_graph([(0, 1)], coords={0: (0.0, 0.0), 1: (1.0, 0.0)}))
    assert peak_bytes(summarize, g) < 32 * pairs


def peak_bytes(function, *args):
    """The tracemalloc peak of one call, after a warm-up call."""
    function(*args)
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_located_pairs():
    """A street grid of 1,089 located vertices (592,416 pairs) with a
    few missing streets and a small detached block: the (hops, metres)
    vectors of `pair_distances`."""
    rnd = random.Random(11)
    side = 33
    coords = {i: (12.0 * (i % side) + rnd.random(),
                  12.0 * (i // side) + rnd.random())
              for i in range(side * side)}
    edges = ([(i, i + 1) for i in range(side * side - 1)
              if (i + 1) % side and rnd.random() < 0.8]
             + [(i, i + side) for i in range(side * side - side)
                if rnd.random() < 0.8 and i // side != 30])
    g = make_graph(edges, coords=coords)
    pairs = metrics.pair_distances(g)
    assert pairs.located[0].size >= 500_000
    return g, pairs


def test_rank_correlation_peak_memory_per_pair(large_located_pairs):
    """Beyond its inputs, `rank_correlation` holds one packed uint64 key
    per pair and blocks of a fixed size; the argsort step is not taken."""
    _, pairs = large_located_pairs
    hops, metres = pairs.located
    with mock.patch.object(metrics, "_argsort_keys",
                           wraps=metrics._argsort_keys) as step:
        peak = peak_bytes(rank_correlation, hops, metres)
    assert step.call_count == 0
    assert peak < 12 * hops.size
    assert same_bits(rank_correlation(hops, metres),
                     argsort_oracle.rank_correlation(hops, metres))


def test_distance_profile_peak_memory_per_pair(large_located_pairs):
    """`distance_profile` holds one bucket mask, one byte per pair, and
    one bucket's metres at a time."""
    _, pairs = large_located_pairs
    hops, metres = pairs.located
    assert peak_bytes(distance_profile, hops, metres) < 8 * hops.size


@pytest.mark.parametrize("profile", (False, True))
def test_measure_peak_memory_per_located_pair(profile):
    """On the 184,528 located pairs of the street grid above, `measure`
    peaks below 14 bytes per pair, with or without its profile: 1 hop
    byte and 8 bytes that hold the metre and then its key, the hop
    matrix (released before the metres are filled) and blocks. A second
    8-byte key array beside the metres took 18.5 bytes per pair."""
    rnd = random.Random(3)
    side, n = 25, 640
    coords = {i: (10.0 * (i % side) + rnd.random(),
                  10.0 * (i // side) + rnd.random())
              for i in range(n) if i % 20}
    edges = ([(i, i + 1) for i in range(n - 1)
              if (i + 1) % side and rnd.random() < 0.9]
             + [(i, i + side) for i in range(n - side) if rnd.random() < 0.5])
    g = make_graph(edges, n=n + 5, coords=coords)
    pairs = len(coords) * (len(coords) - 1) // 2
    assert pairs == 184_528
    assert peak_bytes(metrics.measure, g, None, profile) < 14 * pairs


RANKED_DTYPES = [pytest.param(x, y, id=f"{x}-{y}")
                 for x in ("uint8", "uint16")
                 for y in ("float64", "int64", "int32", "uint64")]


@pytest.mark.parametrize("x_dtype,y_dtype", RANKED_DTYPES)
def test_rank_correlation_leaves_its_arguments_unchanged(x_dtype, y_dtype):
    """By default `rank_correlation` writes to neither argument, even a
    y of 8-byte values that `overwrite_y` lets it take for its keys;
    with `overwrite_y` its result is the same."""
    rnd = np.random.default_rng(5)
    x = rnd.integers(0, 12, 5000).astype(x_dtype)
    x[::17] = np.iinfo(x_dtype).max
    y = rnd.integers(0, 900, 5000).astype(y_dtype)
    if y_dtype == "float64":
        y = y * 0.37 - 40.0
    before = x.tobytes(), y.tobytes()
    got = rank_correlation(x, y)
    assert (x.tobytes(), y.tobytes()) == before
    assert same_bits(got, argsort_oracle.rank_correlation(x, y))
    assert same_bits(rank_correlation(x, y.copy(), overwrite_y=True), got)


def test_measure_over_the_argsort_step_equals_the_oracle():
    """A located path of 400 vertices (uint16 hops, 399 hop counts) whose
    metres span hundreds of exponents takes the argsort step when
    `measure` ranks over the metre buffer; rho_d is the oracle's, bit for
    bit, over the pairs of a fresh `pair_distances`."""
    rnd = random.Random(9)
    n = 400
    coords = {i: (rnd.uniform(-1, 1) * 2.0 ** rnd.randint(-200, 200),
                  rnd.uniform(-1, 1) * 2.0 ** rnd.randint(-200, 200))
              for i in range(n)}
    g = make_graph([(i, i + 1) for i in range(n - 1)], coords=coords)
    hops, metres = metrics.pair_distances(g).located
    assert hops.dtype == np.uint16
    with mock.patch.object(metrics, "_argsort_keys",
                           wraps=metrics._argsort_keys) as step:
        row, profile = metrics.measure(g, profile=True)
    assert step.call_count == 1
    assert same_bits(row.rho_d, argsort_oracle.rank_correlation(hops, metres))
    assert profile == distance_profile(hops, metres)


@pytest.fixture
def hop_passes(count_calls):
    """The graphs every all-pairs hop search ran on."""
    return count_calls(metrics, "all_pairs_graph_distance")


@pytest.mark.parametrize("seed", range(5))
def test_summarize_makes_one_hop_pass(hop_passes, seed):
    g = random_graph(random.Random(seed), max_n=30, with_coords=True)
    summarize(g, baseline=10)
    assert hop_passes == [g]


MEASURED_GRAPHS = (
    [pytest.param(lambda: make_graph([(0, 1), (1, 2)], n=4, coords={
        0: (0.0, 0.0), 1: (3.0, 0.0), 2: (3.0, 4.0), 3: (10.0, 10.0)}),
        id="located"),
     pytest.param(lambda: make_graph([(0, 1), (1, 2)],
                                     coords={0: (0.0, 0.0)}),
                  id="one-located"),
     pytest.param(lambda: make_graph([]), id="empty")]
    + [pytest.param(lambda s=s: random_graph(random.Random(s), max_n=30,
                                             with_coords=True),
                    id=f"random{s}")
       for s in range(5)])


@pytest.mark.parametrize("build", MEASURED_GRAPHS)
def test_measure_gives_the_summarize_row_and_profile_from_one_pass(
        hop_passes, build):
    """With `profile`, `measure` makes one hop pass; its row is the row
    of `summarize`, field for field; the profile is None without
    `profile`, and with fewer than 2 located vertices, where rho_d is
    NaN."""
    g = build()
    row, profile = metrics.measure(g, 10, profile=True)
    assert hop_passes == [g]
    want = summarize(g, 10)
    for field in dataclasses.fields(GraphSummary):
        assert same_bits(getattr(row, field.name), getattr(want, field.name))
    located = sum(v.coord is not None for v in g.vertices.values())
    assert (profile is None) == (located < 2)
    if located < 2:
        assert math.isnan(row.rho_d)
    else:
        assert profile == distance_profile(*metrics.pair_distances(g).located)
    assert metrics.measure(g, 10)[1] is None


@pytest.mark.parametrize("profile", [False, True])
@pytest.mark.parametrize("build", MEASURED_GRAPHS)
def test_measure_ranks_through_the_module_global(count_calls, build,
                                                 profile):
    """`measure` reaches rho_d through the module-global
    `rank_correlation`, which perfbench's span wraps, once for a graph
    with 2 located vertices or more and never for one with fewer; it
    calls `distance_profile` once, and only with `profile`."""
    ranked = count_calls(metrics, "rank_correlation")
    profiled = count_calls(metrics, "distance_profile")
    g = build()
    metrics.measure(g, 10, profile=profile)
    located = sum(v.coord is not None for v in g.vertices.values()) >= 2
    assert len(ranked) == located
    assert len(profiled) == (located and profile)


def test_stats_profile_makes_one_hop_pass_per_graph(hop_passes, tmp_path,
                                                   capsys):
    save_database(synthetic_database(0), tmp_path / "objects.csv",
                  tmp_path / "relations.csv", tmp_path / "segments.csv")
    out = tmp_path / "stats.csv"
    code = cli.main(["stats", "--objects", str(tmp_path / "objects.csv"),
                     "--relations", str(tmp_path / "relations.csv"),
                     "--segments", str(tmp_path / "segments.csv"),
                     "--method", "EFS_k", "--k", "2", "--threshold", "4",
                     "--out", str(out), "--profile"])
    capsys.readouterr()
    assert code == 0
    assert len(hop_passes) == 2  # the full graph and EFS_k
    assert (tmp_path / "profile_full.csv").exists()
    assert (tmp_path / "profile_EFS_k.csv").exists()


def test_extract_single_method_makes_no_hop_pass(hop_passes, tmp_path,
                                                 capsys):
    db = synthetic_database(0)
    save_database(db, tmp_path / "objects.csv", tmp_path / "relations.csv",
                  tmp_path / "segments.csv")
    code = cli.main(["extract", "--objects", str(tmp_path / "objects.csv"),
                     "--relations", str(tmp_path / "relations.csv"),
                     "--segments", str(tmp_path / "segments.csv"),
                     "--method", "EFS_k", "--k", "2", "--threshold", "4",
                     "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert hop_passes == []  # only --all writes the statistics
    g = read_cache(tmp_path / "out" / f"EFS_k{cli.CACHE_SUFFIX}")
    s = summarize(g, property_baseline(db))
    assert out == f"EFS_k: n={s.n} m={s.m} components={s.components}\n"


# --- the bitset hop engine against scipy ----------------------------------

def scipy_hops(g):
    """The all-pairs hop matrix from scipy's shortest paths, the oracle of
    the bitset engine (float64, inf when unreachable)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path
    if g.n == 0:
        return np.zeros((0, 0))
    pairs = np.array(g.undirected_pairs(), dtype=int).reshape(-1, 2)
    adjacency = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                           shape=(g.n, g.n))
    return shortest_path(adjacency, directed=False, unweighted=True)


def scrambled_graph(seed, n, p, isolated=0):
    """n vertices in random order, random edges in random direction and
    order, a quarter of them doubled by an anti-parallel edge of another
    type, and `isolated` of the vertices left without edges."""
    rnd = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    rnd.shuffle(names)
    linked = names[:n - isolated]
    edges = [Edge(a, b, R) for i, a in enumerate(linked)
             for b in linked[i + 1:] if rnd.random() < p]
    edges += [Edge(e.target, e.source, N)
              for e in rnd.sample(edges, len(edges) // 4)]
    rnd.shuffle(edges)
    return ConfrontGraph(
        [make_vertex(v, coord=(rnd.uniform(0, 500), rnd.uniform(0, 500))
                     if rnd.random() < 0.8 else None) for v in names], edges)


def assert_engine_matches_scipy(g):
    hops = all_pairs_graph_distance(g)
    want = scipy_hops(g)
    assert hops.shape == (g.n, g.n)
    assert np.array_equal(float_hops(hops), want)
    finite = want[np.isfinite(want)]
    d_max = int(finite.max()) if finite.size else 0
    assert hops.dtype == (np.uint8 if d_max < 255 else np.uint16)
    return hops


ENGINE_CASES = (
    [pytest.param(n, p, iso, seed, id=f"n{n}-p{p}-iso{iso}-s{seed}")
     for n in (0, 1, 2, 63, 64, 65, 129)
     for p, iso in ((0.0, 0), (0.03, 0), (0.03, 5), (0.2, 1))
     for seed in range(2) if iso <= n]
    + [pytest.param(None, None, None, seed, id=f"random{seed}")
       for seed in range(30)])


@pytest.mark.parametrize("n,p,isolated,seed", ENGINE_CASES)
def test_bitset_engine_matches_scipy(n, p, isolated, seed):
    if n is None:  # size, density and isolates drawn from the seed
        rnd = random.Random(1000 + seed)
        n = rnd.randint(2, 200)
        p = rnd.choice((0.005, 0.01, 0.02, 0.05, 0.3))
        isolated = rnd.randint(0, 4)
    assert_engine_matches_scipy(scrambled_graph(seed, n, p, isolated))


@pytest.mark.parametrize("length,isolated", [
    (255, 1),  # d_max 254: the largest that uint8 holds beside its mark
    (256, 1),  # d_max 255 needs uint16
    (300, 0),  # d_max 299, connected
    (300, 2),
])
def test_long_paths_widen_the_hop_matrix(length, isolated):
    g = make_graph([(i, i + 1) for i in range(length - 1)],
                   n=length + isolated)
    hops = assert_engine_matches_scipy(g)
    assert int(hops[0, length - 1]) == length - 1
    assert summarize(g).d_max == length - 1


@pytest.mark.parametrize("seed", range(12))
def test_pair_vectors_equal_the_row_fill_of_scipy(seed):
    rnd = random.Random(seed)
    g = scrambled_graph(seed, rnd.randint(2, 150),
                        rnd.choice((0.01, 0.03, 0.1)), rnd.randint(0, 3))
    want = scipy_hops(g)
    pairs = metrics.pair_distances(g)
    matrix_type = all_pairs_graph_distance(g).dtype
    mark = np.iinfo(matrix_type).max
    upper = want[np.triu_indices(g.n, k=1)]
    upper[np.isinf(upper)] = mark
    assert pairs.histogram.dtype == np.int64
    assert np.array_equal(pairs.histogram,
                          np.bincount(upper.astype(np.int64),
                                      minlength=mark + 1))
    index = g.vertex_index()
    idx = [index[v.id] for v in g.vertices.values() if v.coord is not None]
    if len(idx) < 2:
        assert pairs.located is None
        return
    located_hops, metres = pairs.located
    assert located_hops.dtype == matrix_type
    assert metres.dtype == np.float64
    assert np.array_equal(
        float_hops(located_hops),
        want[np.ix_(idx, idx)][np.triu_indices(len(idx), k=1)])


def test_cli_import_leaves_out_every_scipy_module():
    probe = run_python(
        "import sys, confront_net.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_stats_profile_runs_without_scipy(tmp_path):
    """`stats --profile` imports no scipy module. The second run's
    variant keeps isolated vertices; on numpy 2 or later, where `numpy.ma`
    loads lazily, neither run loads it."""
    db = synthetic_database(0)
    save_database(db, tmp_path / "objects.csv",
                  tmp_path / "relations.csv", tmp_path / "segments.csv")
    isolated = extract(merge_equal_objects(db), ExtractionMethod.from_code(
        "RFW_k", k=2, component_threshold=1))
    assert min(map(len, isolated.components())) == 1
    lazy_ma = int(np.__version__.split(".")[0]) >= 2
    for method, threshold in (("EFS_k", "4"), ("RFW_k", "1")):
        argv = ["stats", "--objects", str(tmp_path / "objects.csv"),
                "--relations", str(tmp_path / "relations.csv"),
                "--segments", str(tmp_path / "segments.csv"),
                "--method", method, "--k", "2", "--threshold", threshold,
                "--out", str(tmp_path / f"{method}.csv"), "--profile"]
        run = run_python(
            "import sys; sys.modules['scipy'] = None; "
            "from confront_net import cli; "
            f"code = cli.main({argv!r}); "
            "print('numpy.ma' in sys.modules); sys.exit(code)")
        assert run.returncode == 0, run.stderr
        assert (tmp_path / f"{method}.csv").exists()
        assert (tmp_path / f"profile_{method}.csv").exists()
        if lazy_ma:
            assert run.stdout == "False\n"
