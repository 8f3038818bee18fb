"""Golden outputs of the Egal merge and of the Pareto selection.

`golden_rule_digests.json` holds, per synthetic database seed, the sha256
of a full dump of `merge_equal_objects`: the objects in order with every
field, the relations in order, and the property baseline (the property
count of the merged database's full graph). It does so for the database
as generated and for an Egal-heavy variant whose extra equalities build
larger groups, fill gaps from several members and drop segment bindings.
A last digest covers the front's order and the selected k on seeded
random point sets with NaN correlations and ties. The digests were
recorded before the merge and the front were rewritten as their
definitions; the oracle tests elsewhere compare sets, these pin order.
"""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from conftest import egal_heavy, synthetic_database
from confront_net.data_model import Database
from confront_net.extract import build_full_graph
from confront_net.normalize import merge_equal_objects
from confront_net.sweep import SweepPoint, pareto_front, select_best

GOLDEN = json.loads(
    Path(__file__).with_name("golden_rule_digests.json").read_text())


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def dump(db: Database):
    return (list(db.objects.items()), db.relations,
            build_full_graph(db).property_count())


@pytest.mark.parametrize("seed", range(64))
def test_merge_matches_the_golden_dump(seed):
    got = [sha256(dump(merge_equal_objects(db)))
           for db in (synthetic_database(seed), egal_heavy(seed))]
    assert got == GOLDEN["merge"][seed]


def front_outcomes(sets: int = 1000):
    rhos = (-0.5, -0.1, 0.0, 0.2, 0.2, 0.7, math.nan)
    out = []
    for seed in range(sets):
        rnd = random.Random(seed)
        n = rnd.randint(1, 40)
        points = [SweepPoint(k=k, coverage=rnd.randint(0, 8),
                             rho=rnd.choice(rhos), summary=None)
                  for k in rnd.sample(range(100), n)]
        out.append(([p.k for p in pareto_front(points)],
                    select_best(points).k))
    return out


def test_front_order_and_selection_match_the_golden_digest():
    assert sha256(front_outcomes()) == GOLDEN["front"]
