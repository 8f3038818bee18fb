"""Vocabulary mapping and Egal merging.

The expected mappings below are frozen independently of the shipped
table, one (street, surface, default) triple per raw type, so a table
edit that changes behaviour fails here even if it stays self-consistent.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import egal_heavy, property_baseline, synthetic_database
from confront_net.data_model import (Database, Dimensionality, ObjectKind,
                                     RelationOrigin, RelationRecord, Segment,
                                     SpatialObject)
from confront_net.errors import ConflictingMerge, UnmappableType
from confront_net.normalize import (merge_equal_objects, normalization_rows,
                                    normalize_relation_type)
from confront_net.relation_types import (EGAL, RAW_RELATION_TYPES,
                                         HierarchyClass, NormalizedType,
                                         hierarchy_class)

R = NormalizedType.RELATED_TO
I = NormalizedType.INSIDE_OF
O = NormalizedType.OUTSIDE_OF
N = NormalizedType.NORTH_OF
S = NormalizedType.SOUTH_OF
E = NormalizedType.EAST_OF
W = NormalizedType.WEST_OF

# (street branch or None, surface branch, default branch)
FROZEN = {
    "Iuxta": (None, R, R),
    "Juxta": (None, R, R),
    "Prope": (None, R, R),
    "Proxime": (None, R, R),
    "In Angulo": (R, I, R),
    "In Cantono": (R, I, R),
    "In Compito Sive Cantono": (R, I, R),
    "In Introytu": (R, I, I),
    "Extra": (None, O, O),
    "In": (None, I, R),
    "Intra": (None, I, R),
    "Ab Opposito": (None, R, R),
    "Ex Opposit": (None, R, R),
    "In Capite": (None, I, R),
    "Super": (None, R, R),
    "Supra": (None, R, R),
    "A Orient": (None, W, W),
    "A Occident": (None, E, E),
    "A Circio": (None, S, S),
    "Ab Aura Recta": (None, S, S),
    "A Meridie": (None, N, N),
    "A Una Part": (None, R, R),
    "Ab Una Part": (None, R, R),
    "A Duabus Part": (None, R, R),
    "A Tribus Part": (None, R, R),
    "A Parte Retro": (None, R, R),
    "A Part Ante": (None, R, R),
    "A Part Inferiori": (None, R, R),
    "A Parte Lateris": (None, R, R),
    "A Part Posteriori": (None, R, R),
    "Sive Ab Una Part": (None, R, R),
    "Conjuncto": (None, R, R),
    "Contigu": (None, R, R),
    "Contiguo": (None, R, R),
    "Retro": (None, R, R),
    "Ante": (None, R, R),
    "Infra": (None, R, R),
    "Subtus": (None, R, R),
    "Ad": (None, R, R),
    "Apud": (None, R, R),
    "Versus": (None, R, R),
}

TARGETS = {
    "punctual": SpatialObject("t1", "", ObjectKind.PROPERTY,
                              Dimensionality.PUNCTUAL),
    "linear_street": SpatialObject("t2", "", ObjectKind.STREET,
                                   Dimensionality.LINEAR, length_m=10.0),
    "surface_street": SpatialObject("t3", "", ObjectKind.STREET,
                                    Dimensionality.SURFACE),
    "linear_other": SpatialObject("t4", "", ObjectKind.DEFENSIVE_SYSTEM,
                                  Dimensionality.LINEAR),
    "surface_other": SpatialObject("t5", "", ObjectKind.BOROUGH,
                                   Dimensionality.SURFACE),
}


def frozen_expectation(raw: str, target: SpatialObject) -> NormalizedType:
    street, surface, default = FROZEN[raw]
    if target.kind is ObjectKind.STREET and street is not None:
        return street
    if target.dim is Dimensionality.SURFACE:
        return surface
    return default


def test_vocabulary_is_exhaustive():
    assert len(FROZEN) == 41
    assert set(FROZEN) | {EGAL} == set(RAW_RELATION_TYPES)
    assert len(RAW_RELATION_TYPES) == 42


@pytest.mark.parametrize("raw", sorted(FROZEN))
@pytest.mark.parametrize("shape", sorted(TARGETS))
def test_normalization_matches_frozen_table(raw, shape):
    target = TARGETS[shape]
    assert normalize_relation_type(raw, target) == frozen_expectation(
        raw, target)


def test_egal_never_normalizes():
    with pytest.raises(UnmappableType):
        normalize_relation_type(EGAL, TARGETS["punctual"])


def test_hierarchy_classes():
    hierarchical = {t for t in NormalizedType
                    if hierarchy_class(t) is HierarchyClass.HIERARCHICAL}
    assert hierarchical == {I, O}


def test_normalization_rows_cover_the_vocabulary():
    rows = normalization_rows()
    assert len(rows) == 42
    assert {r["raw_type"] for r in rows} == set(RAW_RELATION_TYPES)
    by_raw = {r["raw_type"]: r for r in rows}
    assert by_raw[EGAL]["default"] == "(merge vertices)"
    assert by_raw["In Angulo"]["street"] == "RelatedTo"
    assert by_raw["In"]["street"] == "(by dimensionality)"
    assert by_raw["In"]["surface"] == "InsideOf"


# --- Egal merging ---------------------------------------------------------

def prop(oid, **kw):
    return SpatialObject(oid, f"property {oid}", ObjectKind.PROPERTY,
                         Dimensionality.PUNCTUAL, **kw)


def street(oid, **kw):
    kw.setdefault("length_m", 50.0)
    return SpatialObject(oid, f"street {oid}", ObjectKind.STREET,
                         Dimensionality.LINEAR, **kw)


def rel(rid, src, tgt, raw=EGAL, **kw):
    return RelationRecord(rid, src, tgt, raw, **kw)


def test_merge_collapses_duplicate_records():
    # Two records of one property, both confronting the same street:
    # after the merge a single object and a single relation remain.
    db = Database.from_parts(
        [prop("A"), prop("B"), street("C")],
        [rel("r1", "A", "C", "Juxta"), rel("r2", "B", "C", "Juxta"),
         rel("r3", "A", "B")])
    merged = merge_equal_objects(db)
    assert set(merged.objects) == {"A", "C"}
    assert [(r.source_id, r.target_id, r.raw_type)
            for r in merged.relations] == [("A", "C", "Juxta")]


def test_merge_repoints_and_drops_self_loops():
    db = Database.from_parts(
        [prop("A"), prop("B"), prop("D")],
        [rel("r1", "D", "B", "Prope"), rel("r2", "A", "B"),
         rel("r3", "B", "A", "Retro")])
    merged = merge_equal_objects(db)
    assert set(merged.objects) == {"A", "D"}
    # r3 became A -> A and disappeared; r1 re-pointed to the canonical id.
    assert [(r.id, r.source_id, r.target_id) for r in merged.relations] == [
        ("r1", "D", "A")]


def test_merge_is_transitive_across_chains():
    db = Database.from_parts(
        [prop("A"), prop("B"), prop("C"), prop("Z")],
        [rel("r1", "B", "C"), rel("r2", "A", "B"),
         rel("r3", "Z", "C", "Juxta")])
    merged = merge_equal_objects(db)
    assert set(merged.objects) == {"A", "Z"}
    assert merged.relations[0].target_id == "A"


def test_merge_fills_gaps_from_members():
    db = Database.from_parts(
        [prop("A", parish=None, coord=None, declared=False),
         prop("B", parish="P", coord=(1.0, 2.0), declared=True,
              inside_old_walls=False)],
        [rel("r1", "A", "B")])
    merged = merge_equal_objects(db)
    a = merged.objects["A"]
    assert a.parish == "P"
    assert a.coord == (1.0, 2.0)
    assert a.inside_old_walls is False
    assert a.declared is True  # declared anywhere in the group wins


def test_merge_canonical_fields_win():
    db = Database.from_parts(
        [prop("A", parish="Keep"), prop("B", parish="Drop")],
        [rel("r1", "A", "B")])
    assert merge_equal_objects(db).objects["A"].parish == "Keep"


def test_merge_rejects_kind_conflicts():
    db = Database.from_parts(
        [prop("A"), street("B")],
        [rel("r1", "A", "B")])
    with pytest.raises(ConflictingMerge) as exc:
        merge_equal_objects(db)
    assert "A" in str(exc.value) and "B" in str(exc.value)
    assert "Property" in str(exc.value) and "Street" in str(exc.value)


def test_merge_rejects_indirect_kind_conflicts():
    # A=B and C=D are fine in isolation; B=C bridges two kinds.
    db = Database.from_parts(
        [prop("A"), prop("B"), street("C"), street("D")],
        [rel("r1", "A", "B"), rel("r2", "C", "D"), rel("r3", "B", "C")])
    with pytest.raises(ConflictingMerge):
        merge_equal_objects(db)


def test_merge_drops_unresolvable_segment_bindings():
    db = Database.from_parts(
        [prop("A"),
         street("S", segments=(Segment("s1"), Segment("s2"))),
         street("T", segments=(Segment("t1"), Segment("t2")))],
        [rel("r1", "A", "T", "Juxta", target_segment="t1"),
         rel("r2", "S", "T"),
         rel("r3", "A", "S", "In Angulo", target_segment="s2")])
    merged = merge_equal_objects(db)
    by_id = {r.id: r for r in merged.relations}
    # Canonical id is the smaller one; the merged record keeps S's own
    # segments, so T's binding cannot resolve any more.
    assert set(merged.objects) == {"A", "S"}
    assert merged.objects["S"].segment_ids() == ("s1", "s2")
    assert by_id["r1"].target_id == "S"
    assert by_id["r1"].target_segment is None
    assert by_id["r3"].target_segment == "s2"


def test_merge_duplicate_keeps_first_but_adopts_binding():
    segs = (Segment("s1"), Segment("s2"))
    db = Database.from_parts(
        [prop("A"), prop("B"), street("S", segments=segs)],
        [rel("r1", "A", "S", "Juxta"),
         rel("r2", "B", "S", "Juxta", target_segment="s2"),
         rel("r3", "A", "B")])
    merged = merge_equal_objects(db)
    assert len(merged.relations) == 1
    kept = merged.relations[0]
    assert kept.id == "r1"
    assert kept.target_segment == "s2"


def test_merge_without_egal_is_identity():
    db = Database.from_parts(
        [prop("A"), prop("B")], [rel("r1", "A", "B", "Juxta")])
    assert merge_equal_objects(db) is db


def test_merge_is_idempotent():
    db = Database.from_parts(
        [prop("A"), prop("B"), prop("C"), street("S")],
        [rel("r1", "A", "B"), rel("r2", "C", "S", "Juxta"),
         rel("r3", "B", "C", "Prope")])
    once = merge_equal_objects(db)
    twice = merge_equal_objects(once)
    assert twice == once


@given(st.randoms(use_true_random=False))
def test_merge_groups_match_union_find_oracle(rnd):
    n = rnd.randint(2, 12)
    ids = [f"o{i:02d}" for i in range(n)]
    objects = [prop(i) for i in ids]
    pairs = []
    for _ in range(rnd.randint(1, n)):
        a, b = rnd.sample(ids, 2)
        pairs.append((a, b))
    relations = [rel(f"r{pos}", a, b) for pos, (a, b) in enumerate(pairs)]
    merged = merge_equal_objects(Database.from_parts(objects, relations))

    # Plain iterative DSU as the oracle.
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            keep, drop = sorted((ra, rb))
            parent[drop] = keep
    expected = {i for i in ids if find(i) == i}
    assert set(merged.objects) == expected


def test_merge_is_independent_of_egal_order():
    objects = [prop(f"o{i}") for i in range(6)]
    egal = [rel(f"e{pos}", a, b) for pos, (a, b) in enumerate(
        [("o1", "o4"), ("o0", "o1"), ("o3", "o5")])]
    plain = [rel("p0", "o2", "o4", "Juxta"), rel("p1", "o5", "o2", "Ante")]
    reference = merge_equal_objects(
        Database.from_parts(objects, egal + plain))
    rnd = random.Random(7)
    for _ in range(5):
        shuffled = egal[:]
        rnd.shuffle(shuffled)
        again = merge_equal_objects(
            Database.from_parts(objects, shuffled + plain))
        assert again == reference


@pytest.mark.parametrize("seed", range(32))
def test_merge_equals_from_parts_of_its_own_records(seed):
    # The merge builds its Database without re-checking its records: they
    # must pass from_parts as they are and give the same baseline.
    for db in (synthetic_database(seed), egal_heavy(seed)):
        merged = merge_equal_objects(db)
        rebuilt = Database.from_parts(merged.objects.values(),
                                      merged.relations)
        assert merged == rebuilt
        assert list(merged.objects) == list(rebuilt.objects)
        assert property_baseline(merged) == property_baseline(db)


def test_merge_preserves_property_baseline_semantics():
    # The baseline is computed on canonical endpoints, so merging must
    # not change it.
    db = Database.from_parts(
        [prop("A"), prop("B"), prop("C"), street("S")],
        [rel("r1", "A", "S", "Juxta"), rel("r2", "B", "S", "Juxta"),
         rel("r3", "A", "B"), rel("r4", "C", "S", "Juxta")])
    merged = merge_equal_objects(db)
    assert property_baseline(db) == property_baseline(merged) == 2
