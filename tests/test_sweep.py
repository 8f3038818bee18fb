"""k sweep, Pareto filtering and the selection rule.

The front is checked against a separately written dominance oracle on
randomized point sets, including NaN correlations and exact ties."""

import math
import random
from dataclasses import replace

import pytest

from conftest import synthetic_database
from confront_net.data_model import (Database, Dimensionality, ObjectKind,
                                     RelationRecord, SpatialObject)
from confront_net.errors import MalformedRecord
from confront_net.extract import ExtractionMethod, extract
from confront_net.graph import ConfrontGraph
from confront_net.metrics import summarize
from confront_net.normalize import merge_equal_objects
from confront_net.sweep import (SweepPoint, default_k_range, pareto_front,
                                select_best, sweep_k)


def pt(k, coverage, rho):
    return SweepPoint(k=k, coverage=coverage, rho=rho, summary=None)


def rho_key(p):
    return -math.inf if math.isnan(p.rho) else p.rho


def oracle_front(points):
    def dominates(q, p):
        qc, pc = q.coverage, p.coverage
        qr, pr = rho_key(q), rho_key(p)
        return qc >= pc and qr >= pr and (qc > pc or qr > pr)

    return [p for p in points
            if not any(dominates(q, p) for q in points if q is not p)]


def random_points(rnd, n):
    rhos = [-0.5, -0.1, 0.0, 0.2, 0.2, 0.7, math.nan]
    return [pt(k, rnd.randint(0, 6), rnd.choice(rhos)) for k in range(n)]


@pytest.mark.parametrize("seed", range(30))
def test_front_matches_dominance_oracle(seed):
    rnd = random.Random(seed)
    points = random_points(rnd, rnd.randint(1, 15))
    got = pareto_front(points)
    want = oracle_front(points)
    assert {p.k for p in got} == {p.k for p in want}
    coverages = [p.coverage for p in got]
    assert coverages == sorted(coverages, reverse=True)


@pytest.mark.parametrize("seed", range(10))
def test_front_is_permutation_invariant(seed):
    rnd = random.Random(100 + seed)
    points = random_points(rnd, 12)
    reference = {p.k for p in pareto_front(points)}
    for _ in range(5):
        shuffled = points[:]
        rnd.shuffle(shuffled)
        assert {p.k for p in pareto_front(shuffled)} == reference


def test_front_keeps_exact_ties():
    points = [pt(0, 5, 0.3), pt(1, 5, 0.3), pt(2, 4, 0.1)]
    assert {p.k for p in pareto_front(points)} == {0, 1}


def test_front_requires_points():
    with pytest.raises(MalformedRecord):
        pareto_front([])


def test_front_with_all_nan_rho_keeps_top_coverage():
    points = [pt(0, 5, math.nan), pt(1, 3, math.nan)]
    assert {p.k for p in pareto_front(points)} == {0}


def test_select_best_maximizes_rho_then_minimizes_k():
    points = [pt(0, 9, 0.1), pt(1, 7, 0.5), pt(2, 5, 0.5), pt(3, 4, 0.6)]
    # Front: all four (coverage strictly falling, rho rising).
    best = select_best(points)
    assert best.k == 3
    # Equal rho at lower coverage is dominated; a genuine tie needs both
    # objectives equal, and then the smaller k wins.
    tied = [pt(0, 9, 0.1), pt(4, 7, 0.5), pt(2, 7, 0.5)]
    assert {p.k for p in pareto_front(tied)} == {0, 2, 4}
    assert select_best(tied).k == 2


def test_select_best_all_nan_prefers_smallest_k():
    points = [pt(2, 5, math.nan), pt(0, 5, math.nan), pt(1, 5, math.nan)]
    assert select_best(points).k == 0


# --- sweep over a database ------------------------------------------------

def test_sweep_requires_topk_base():
    db = synthetic_database(0)
    with pytest.raises(MalformedRecord):
        sweep_k(db, ExtractionMethod.from_code("RFW_all"), [0, 1])


def test_sweep_rejects_duplicate_k():
    db = synthetic_database(0)
    with pytest.raises(MalformedRecord):
        sweep_k(db, ExtractionMethod.from_code("RFW_k"), [0, 1, 1])


@pytest.mark.parametrize("base", ["RFW_k", "RFS_k", "EFW_k", "EFS_k"])
def test_sweep_points_mirror_summaries(base):
    db = merge_equal_objects(synthetic_database(1))
    method = ExtractionMethod.from_code(base, component_threshold=4)
    points = sweep_k(db, method, [0, 1, 2])
    assert [p.k for p in points] == [0, 1, 2]
    for p in points:
        assert p.coverage == p.summary.property_count
        assert p.rho is p.summary.rho_d or p.rho == p.summary.rho_d


@pytest.mark.parametrize("seed", [22, 25])
def test_sweep_records_a_k_that_empties_the_graph(seed):
    # At the default threshold 25, RFW_k leaves no component from k=4
    # (seed 22) or k=3 (seed 25) on.
    db = merge_equal_objects(synthetic_database(seed))
    points = sweep_k(db, ExtractionMethod.from_code("RFW_k"), range(6))
    assert [p.k for p in points] == list(range(6))
    empty = summarize(ConfrontGraph([], []), db.property_baseline)
    emptied = [p for p in points if p.summary.n == 0]
    assert emptied and emptied[-1].k == 5
    for p in emptied:
        assert p.coverage == 0 and math.isnan(p.rho)
        assert replace(p.summary, rho_d=0.0) == replace(empty, rho_d=0.0)
    assert select_best(points).summary.n > 0


def test_sweep_k_zero_matches_streets_scope_whole():
    db = merge_equal_objects(synthetic_database(2))
    for base in ("RFW_k", "RFS_k"):
        method = ExtractionMethod.from_code(base, k=0, component_threshold=4)
        swept = extract(db, method)
        streets = extract(db, ExtractionMethod.from_code(
            "RFW_streets", component_threshold=4))
        assert swept == streets


def test_default_k_range_is_a_tenth_of_the_streets():
    def db_with_streets(count):
        objects = [SpatialObject(f"s{i:02d}", "", ObjectKind.STREET,
                                 Dimensionality.LINEAR, length_m=10.0)
                   for i in range(count)]
        objects.append(SpatialObject("p1", "", ObjectKind.PROPERTY,
                                     Dimensionality.PUNCTUAL))
        objects.append(SpatialObject("p2", "", ObjectKind.PROPERTY,
                                     Dimensionality.PUNCTUAL))
        return Database.from_parts(
            objects, [RelationRecord("r1", "p1", "p2", "Juxta")])

    assert default_k_range(db_with_streets(0)) == range(0, 1)
    assert default_k_range(db_with_streets(10)) == range(0, 2)
    assert default_k_range(db_with_streets(14)) == range(0, 3)
    assert default_k_range(db_with_streets(100)) == range(0, 11)
