"""Extraction pipeline: full graph, hierarchy filter, non-punctual
handling with its split/chain/prune mechanics, injection, and the
component size filter. The split cases are hand-traced."""

import importlib

import pytest

import prune_oracle
from conftest import (generated_register, segment_clash_database,
                      synthetic_database)
from confront_net.data_model import (Database, Dimensionality, ObjectKind,
                                     RelationOrigin, RelationRecord, Segment,
                                     SpatialObject, load_database)
from confront_net.errors import (DuplicateId, MalformedRecord,
                                 MissingLength, MissingSegments,
                                 UnmappableType)
from confront_net.extract import (METHOD_CODES, ExtractionMethod, Scope,
                                  build_full_graph, extract, extract_each,
                                  filter_components, filter_hierarchy,
                                  handle_nonpunctual, inject_additional,
                                  segment_vertex_id)
from confront_net.graph import ConfrontGraph, EdgeOrigin
from confront_net.normalize import merge_equal_objects
from confront_net.relation_types import NormalizedType
from confront_net.sweep import default_k_range

# The package re-exports the function `extract` under the module's name.
extract_module = importlib.import_module("confront_net.extract")

R = NormalizedType.RELATED_TO
ART = NormalizedType.ARTIFICIAL_ADJACENCY


def prop(oid, **kw):
    return SpatialObject(oid, oid, ObjectKind.PROPERTY,
                         Dimensionality.PUNCTUAL, **kw)


def street(oid, segments=(), length=100.0, dim=Dimensionality.LINEAR, **kw):
    return SpatialObject(oid, oid, ObjectKind.STREET, dim,
                         length_m=length, segments=segments, **kw)


def method(code, k=0, threshold=1):
    return ExtractionMethod.from_code(code, k=k, component_threshold=threshold)


# --- method codes ---------------------------------------------------------

def test_the_sixteen_method_codes_round_trip():
    assert len(METHOD_CODES) == 16
    for code in METHOD_CODES:
        m = ExtractionMethod.from_code(code)
        assert m.code == code
    # H only ever pairs with the all scope in the named set.
    assert all("H" not in c or c.endswith("_all") for c in METHOD_CODES)


@pytest.mark.parametrize("bad", ["XFW_all", "RF_all", "RFW_top", "RFW",
                                 "RFWS_all", "", 5, None])
def test_bad_method_codes_rejected(bad):
    with pytest.raises(MalformedRecord):
        ExtractionMethod.from_code(bad)


def test_method_parameter_bounds():
    with pytest.raises(MalformedRecord):
        ExtractionMethod.from_code("RFW_k", k=-1)
    with pytest.raises(MalformedRecord):
        ExtractionMethod.from_code("RFW_all", component_threshold=0)


@pytest.mark.parametrize("name", ["k", "component_threshold"])
@pytest.mark.parametrize("value", [7.5, 7.0, True, "7", None])
def test_method_parameters_are_integers(name, value):
    """A bool is refused too, though Python counts it as an int."""
    with pytest.raises(MalformedRecord,
                       match=rf"^{name} must be an integer, got "):
        ExtractionMethod.from_code("RFW_k", **{name: value})


# --- full graph -----------------------------------------------------------

def full_db():
    objects = [
        prop("p1"), prop("p2"), prop("p3"),
        SpatialObject("par1", "parish", ObjectKind.PARISH_OR_SECTOR,
                      Dimensionality.SURFACE),
        street("st1", dim=Dimensionality.PUNCTUAL, length=None),
        street("st2"),
        prop("lonely"),
    ]
    relations = [
        RelationRecord("r1", "p1", "p2", "Juxta"),
        RelationRecord("r2", "p1", "par1", "In"),
        RelationRecord("r3", "p2", "st1", "In Angulo"),
        RelationRecord("r4", "p3", "par1", "Extra"),
        RelationRecord("r5", "p2", "p1", "A Orient"),
        RelationRecord("r6", "st1", "st2", "Juxta",
                       origin=RelationOrigin.ADDITIONAL),
        RelationRecord("r7", "p1", "p2", "Juxta"),  # duplicate content
    ]
    return Database.from_parts(objects, relations)


def test_full_graph_vertices_are_incident_objects_only():
    g = build_full_graph(full_db())
    # lonely never appears; st2 touches only additional data.
    assert g.vertex_ids() == ["p1", "p2", "p3", "par1", "st1"]


def test_full_graph_normalizes_and_deduplicates():
    g = build_full_graph(full_db())
    assert [(e.source, e.target, e.type) for e in g.edges] == [
        ("p1", "p2", R),
        ("p1", "par1", NormalizedType.INSIDE_OF),
        ("p2", "st1", R),
        ("p3", "par1", NormalizedType.OUTSIDE_OF),
        ("p2", "p1", NormalizedType.WEST_OF),
    ]
    assert all(e.origin == EdgeOrigin.PRIMARY for e in g.edges)


@pytest.mark.parametrize("db,message", [
    (segment_clash_database(),
     "segment 's0' of object 'st' would have vertex id 'st#s0', already "
     "used by object 'st#s0'"),
    (Database.from_parts(
        [prop("p"), street("a", segments=(Segment("b#c"), Segment("d"))),
         street("a#b", segments=(Segment("c"), Segment("e")))],
        [RelationRecord("r1", "p", "a", "Juxta", target_segment="d"),
         RelationRecord("r2", "p", "a#b", "Juxta", target_segment="e")]),
     "segment 'c' of object 'a#b' would have vertex id 'a#b#c', already "
     "used by object 'a'"),
], ids=["object-id", "segment-id"])
def test_a_segment_vertex_id_may_not_be_taken(db, message):
    """Every method refuses the register, not only those that split the
    segmented street."""
    with pytest.raises(DuplicateId) as exc:
        build_full_graph(db)
    assert str(exc.value) == message
    for code in METHOD_CODES:
        with pytest.raises(DuplicateId) as exc:
            extract(db, method(code, k=1))
        assert str(exc.value) == message


def test_a_segment_vertex_id_outside_the_full_graph_is_no_clash():
    # Nothing confronts the punctual street `st#s0`: it is no vertex.
    db = Database.from_parts(
        segment_clash_database().objects.values(),
        [RelationRecord("r1", "p", "st", "Juxta", target_segment="s1")])
    g = extract(db, method("RFS_all"))
    assert g.vertex_ids() == ["p", "st#s1"]


def test_full_graph_refuses_unmerged_egal():
    db = Database.from_parts(
        [prop("a"), prop("b")], [RelationRecord("r1", "a", "b", "Egal")])
    with pytest.raises(UnmappableType):
        build_full_graph(db)
    assert build_full_graph(merge_equal_objects(db)).n == 0


def test_filter_hierarchy_drops_edges_keeps_vertices():
    g = filter_hierarchy(build_full_graph(full_db()))
    assert g.vertex_ids() == ["p1", "p2", "p3", "par1", "st1"]
    assert [e.type for e in g.edges] == [R, R, NormalizedType.WEST_OF]


# --- split handling, hand-traced ------------------------------------------

SEGS = (Segment("s1", (0.0, 0.0)), Segment("s2", (10.0, 0.0)),
        Segment("s3", (20.0, 0.0)))


def split_db(bindings):
    """Properties a, b confront street X; bindings maps property -> segment."""
    objects = [prop("a"), prop("b"), street("X", segments=SEGS, length=30.0)]
    relations = [
        RelationRecord("r1", "a", "X", "Juxta",
                       target_segment=bindings.get("a")),
        RelationRecord("r2", "b", "X", "Juxta",
                       target_segment=bindings.get("b")),
    ]
    return Database.from_parts(objects, relations)


def split_graph(db):
    g = build_full_graph(db)
    return handle_nonpunctual(g, db, method("RFS_all"))


def test_split_prunes_unreferenced_chain_ends():
    # Everything binds to the middle segment: the chain ends carry no
    # information and disappear along with every artificial edge.
    g = split_graph(split_db({"a": "s2", "b": "s2"}))
    assert g.vertex_ids() == ["a", "b", "X#s2"]
    assert [(e.source, e.target, e.type) for e in g.edges] == [
        ("a", "X#s2", R), ("b", "X#s2", R)]


def test_split_keeps_chain_between_referenced_ends():
    g = split_graph(split_db({"a": "s1", "b": "s3"}))
    assert g.vertex_ids() == ["a", "b", "X#s1", "X#s2", "X#s3"]
    assert [(e.source, e.target, e.type) for e in g.edges] == [
        ("a", "X#s1", R), ("b", "X#s3", R),
        ("X#s1", "X#s2", ART), ("X#s2", "X#s3", ART)]


def test_split_unbound_relations_point_at_first_segment():
    g = split_graph(split_db({"b": "s2"}))
    assert [(e.source, e.target) for e in g.edges
            if e.type is not ART] == [("a", "X#s1"), ("b", "X#s2")]
    assert g.vertex_ids() == ["a", "b", "X#s1", "X#s2"]


def test_split_source_side_uses_first_segment():
    # The street itself confronts a property: the outgoing edge moves to
    # the first segment.
    objects = [prop("a"), street("X", segments=SEGS, length=30.0)]
    relations = [RelationRecord("r1", "X", "a", "Juxta"),
                 RelationRecord("r2", "a", "X", "Prope",
                                target_segment="s3")]
    db = Database.from_parts(objects, relations)
    g = split_graph(db)
    assert ("X#s1", "a") in [(e.source, e.target) for e in g.edges]
    assert ("a", "X#s3") in [(e.source, e.target) for e in g.edges]


def test_split_clears_bindings_on_rewritten_edges():
    g = split_graph(split_db({"a": "s2", "b": "s2"}))
    assert all(e.target_segment is None for e in g.edges)


def test_split_segment_vertices_carry_owner_attributes():
    db = split_db({"a": "s2"})
    g = split_graph(db)
    v = g.vertices["X#s2"]
    assert v.kind is ObjectKind.STREET
    assert v.dim is Dimensionality.PUNCTUAL
    assert v.coord == (10.0, 0.0)
    assert v.source_object == "X"
    assert v.source_segment == "s2"
    assert segment_vertex_id("X", "s2") == "X#s2"


def test_an_unreferenced_split_street_keeps_its_first_segment():
    # w is a vertex of the full graph only through its InsideOf edge; F
    # drops that edge and the split scope drops the parish, so none of
    # w's segments is referenced and the chain shrinks to w#a.
    objects = [prop("p1"), prop("p2"),
               street("w", segments=(Segment("a"), Segment("b"),
                                     Segment("c"))),
               SpatialObject("par", "parish", ObjectKind.PARISH_OR_SECTOR,
                             Dimensionality.SURFACE)]
    relations = [RelationRecord("r1", "p1", "p2", "Juxta"),
                 RelationRecord("r2", "w", "par", "In")]
    db = Database.from_parts(objects, relations)
    methods = [method(code, threshold=1)
               for code in ("RFS_all", "RHS_all", "RFS_streets", "EFS_all")]
    full, *graphs = extract_each(db, methods)
    assert [(e.source, e.target, e.type) for e in full.edges] == [
        ("p1", "p2", R), ("w", "par", NormalizedType.INSIDE_OF)]
    for m, g in zip(methods, graphs):
        assert g.vertex_ids() == ["p1", "p2", "w#a"], m.code
        assert [(e.source, e.target) for e in g.edges] == [("p1", "p2")]
        assert g == prune_oracle.handle_nonpunctual(
            full if m.keep_hierarchy else filter_hierarchy(full), db, m)


def test_whole_mode_keeps_nonpunctual_streets():
    db = split_db({"a": "s1"})
    g = build_full_graph(db)
    out = handle_nonpunctual(g, db, method("RFW_all"))
    assert out is g  # nothing to remove, nothing to split


def test_all_scope_removes_segmentless_nonstreets_keeps_streets():
    objects = [
        prop("a"),
        street("X", length=5.0),  # linear street without a decomposition
        SpatialObject("par1", "parish", ObjectKind.PARISH_OR_SECTOR,
                      Dimensionality.SURFACE),
    ]
    relations = [RelationRecord("r1", "a", "X", "Juxta"),
                 RelationRecord("r2", "a", "par1", "Juxta")]
    db = Database.from_parts(objects, relations)
    g = handle_nonpunctual(build_full_graph(db), db, method("RFS_all"))
    assert g.vertex_ids() == ["a", "X"]


def test_streets_scope_drops_other_nonpunctual_objects():
    objects = [
        prop("a"), street("X", segments=SEGS, length=30.0),
        SpatialObject("wall", "wall", ObjectKind.DEFENSIVE_SYSTEM,
                      Dimensionality.LINEAR),
    ]
    relations = [
        RelationRecord("r1", "a", "X", "Juxta", target_segment="s1"),
        RelationRecord("r2", "a", "wall", "Juxta"),
    ]
    db = Database.from_parts(objects, relations)
    kept = handle_nonpunctual(build_full_graph(db), db,
                              method("RFW_streets"))
    assert kept.vertex_ids() == ["a", "X"]
    split = handle_nonpunctual(build_full_graph(db), db,
                               method("RFS_streets"))
    assert split.vertex_ids() == ["a", "X#s1"]


def topk_db():
    objects = [
        prop("a"), prop("b"), prop("c"),
        street("long", segments=SEGS, length=300.0),
        street("mid", segments=(Segment("m1"), Segment("m2")), length=200.0),
        street("short", length=50.0),
    ]
    relations = [
        RelationRecord("r1", "a", "long", "Juxta", target_segment="s1"),
        RelationRecord("r2", "b", "mid", "Juxta"),
        RelationRecord("r3", "c", "short", "Juxta"),
        RelationRecord("r4", "a", "b", "Prope"),
        RelationRecord("r5", "b", "c", "Prope"),
    ]
    return Database.from_parts(objects, relations)


def test_topk_whole_removes_only_the_k_longest():
    db = topk_db()
    g = handle_nonpunctual(build_full_graph(db), db, method("RFW_k", k=1))
    assert g.vertex_ids() == ["a", "b", "c", "mid", "short"]
    g2 = handle_nonpunctual(build_full_graph(db), db, method("RFW_k", k=2))
    assert g2.vertex_ids() == ["a", "b", "c", "short"]


def test_topk_split_splits_only_the_k_longest():
    db = topk_db()
    g = handle_nonpunctual(build_full_graph(db), db, method("RFS_k", k=1))
    # Only segment s1 of `long` is referenced, the tail prunes away; the
    # surviving segment sits where the street vertex sat.
    assert g.vertex_ids() == ["a", "b", "c", "long#s1", "mid", "short"]


def test_topk_zero_touches_nothing():
    db = topk_db()
    g = build_full_graph(db)
    assert handle_nonpunctual(g, db, method("RFW_k", k=0)) is g


def test_topk_street_ranking_breaks_ties_by_id():
    objects = [prop("a"),
               street("zz", length=100.0),
               street("aa", length=100.0),
               street("bb", length=400.0)]
    relations = [RelationRecord("r1", "a", "zz", "Juxta"),
                 RelationRecord("r2", "a", "aa", "Juxta"),
                 RelationRecord("r3", "a", "bb", "Juxta")]
    db = Database.from_parts(objects, relations)
    g = handle_nonpunctual(build_full_graph(db), db, method("RFW_k", k=2))
    # bb longest, then aa before zz on the tie.
    assert g.vertex_ids() == ["a", "zz"]


def test_missing_length_blocks_ranking():
    objects = [prop("a"), street("X", length=None)]
    relations = [RelationRecord("r1", "a", "X", "Juxta")]
    db = Database.from_parts(objects, relations)
    with pytest.raises(MissingLength) as exc:
        handle_nonpunctual(build_full_graph(db), db, method("RFW_k", k=1))
    assert "X" in str(exc.value)


def test_missing_segments_blocks_topk_split():
    objects = [prop("a"), street("X", length=80.0)]
    relations = [RelationRecord("r1", "a", "X", "Juxta")]
    db = Database.from_parts(objects, relations)
    with pytest.raises(MissingSegments) as exc:
        handle_nonpunctual(build_full_graph(db), db, method("RFS_k", k=1))
    assert "X" in str(exc.value)


# --- additional injection -------------------------------------------------

def inject_db():
    objects = [
        prop("a"),
        street("X", segments=SEGS, length=30.0),
        street("Y", length=10.0, dim=Dimensionality.PUNCTUAL),
        street("Z", length=10.0, dim=Dimensionality.PUNCTUAL),
        SpatialObject("ed", "edifice", ObjectKind.EDIFICE,
                      Dimensionality.PUNCTUAL),
    ]
    relations = [
        RelationRecord("r1", "a", "X", "Juxta", target_segment="s2"),
        RelationRecord("r2", "a", "Y", "Juxta"),
        RelationRecord("ad1", "Y", "X", "Juxta",
                       origin=RelationOrigin.ADDITIONAL,
                       target_segment="s2"),
        RelationRecord("ad2", "Y", "Z", "Juxta",
                       origin=RelationOrigin.ADDITIONAL),
        RelationRecord("ad3", "ed", "Y", "Prope",
                       origin=RelationOrigin.ADDITIONAL),
        RelationRecord("ad4", "Z", "Y", "Juxta",
                       origin=RelationOrigin.ADDITIONAL),
    ]
    return Database.from_parts(objects, relations)


def test_injection_adds_related_to_edges_with_origin():
    db = inject_db()
    g = handle_nonpunctual(build_full_graph(db), db, method("EFS_all"))
    out = inject_additional(g, db)
    injected = [e for e in out.edges if e.origin == EdgeOrigin.ADDITIONAL]
    # ad1 binds to the surviving segment X#s2; ad2 dangles on Z (never a
    # vertex); ad3 dangles on ed; ad4 dangles too.
    assert [(e.source, e.target, e.type) for e in injected] == [
        ("Y", "X#s2", R)]
    assert out.meta["additional_added"] == 1
    assert out.meta["additional_skipped"] == 3


def test_injection_skips_duplicates_of_existing_edges():
    objects = [street("Y", dim=Dimensionality.PUNCTUAL, length=None),
               street("Z", dim=Dimensionality.PUNCTUAL, length=None)]
    relations = [
        RelationRecord("r1", "Y", "Z", "Juxta"),
        RelationRecord("ad1", "Y", "Z", "Juxta",
                       origin=RelationOrigin.ADDITIONAL),
        RelationRecord("ad2", "Z", "Y", "Juxta",
                       origin=RelationOrigin.ADDITIONAL),
    ]
    db = Database.from_parts(objects, relations)
    g = build_full_graph(db)
    out = inject_additional(g, db)
    # Y->Z RelatedTo already exists as a primary edge; Z->Y is new.
    assert out.meta["additional_added"] == 1
    assert out.meta["additional_skipped"] == 1
    assert out.m == 2


def test_injection_unbound_split_target_uses_first_segment():
    objects = [
        prop("a"), street("X", segments=SEGS, length=30.0),
        street("Y", dim=Dimensionality.PUNCTUAL, length=None),
    ]
    relations = [
        RelationRecord("r1", "a", "X", "Juxta", target_segment="s1"),
        RelationRecord("r2", "a", "Y", "Juxta"),
        RelationRecord("ad1", "Y", "X", "Juxta",
                       origin=RelationOrigin.ADDITIONAL),
    ]
    db = Database.from_parts(objects, relations)
    g = handle_nonpunctual(build_full_graph(db), db, method("EFS_all"))
    out = inject_additional(g, db)
    assert ("Y", "X#s1", R) in [(e.source, e.target, e.type)
                                for e in out.edges]


# --- component filter -----------------------------------------------------

def component_db(sizes):
    """One star per size, relations inside each star only."""
    objects = []
    relations = []
    for c, size in enumerate(sizes):
        hub = f"c{c}h"
        objects.append(prop(hub))
        for i in range(size - 1):
            leaf = f"c{c}p{i}"
            objects.append(prop(leaf))
            relations.append(RelationRecord(f"r{c}_{i}", leaf, hub, "Juxta"))
    return Database.from_parts(objects, relations)


def test_filter_components_keeps_only_large_ones():
    g = build_full_graph(component_db([30, 20, 5]))
    out = filter_components(g, 25)
    assert out.n == 30
    assert len(out.components()) == 1
    both = filter_components(g, 20)
    assert both.n == 50


def test_filter_components_threshold_one_is_identity():
    g = build_full_graph(component_db([3, 2]))
    assert filter_components(g, 1) is g


def test_filter_components_empty_result():
    g = build_full_graph(component_db([3, 2]))
    out = filter_components(g, 10)
    assert out == ConfrontGraph([], [])
    assert (out.n, out.meta, out.method) == (0, {}, None)


# --- the assembled pipeline -----------------------------------------------

def test_extract_wires_the_stages_together():
    db = merge_equal_objects(synthetic_database(3))
    for code in METHOD_CODES:
        g = extract(db, method(code, k=2, threshold=4))
        assert g.method.code == code
        if "F" in code:
            assert all(e.type not in (NormalizedType.INSIDE_OF,
                                      NormalizedType.OUTSIDE_OF)
                       for e in g.edges)
        if code.startswith("R"):
            assert all(e.origin != EdgeOrigin.ADDITIONAL for e in g.edges)
        assert all(len(c) >= 4 for c in g.components())


@pytest.mark.parametrize("seed", range(3))
def test_a_shared_full_graph_gives_the_same_graphs_and_stays_unchanged(
        seed):
    db = merge_equal_objects(synthetic_database(seed))
    for k in (1, 2):
        for threshold in (1, 4):
            methods = [method(code, k=k, threshold=threshold)
                       for code in METHOD_CODES]
            full, *shared = extract_each(db, methods)
            for m, g in zip(methods, shared):
                alone = extract(db, m)
                assert g == alone
                assert g.vertex_ids() == alone.vertex_ids()
                assert g.method == alone.method == m
                assert g.meta == alone.meta
            assert full.method is None
            assert full.meta == {}
            assert full == build_full_graph(db)


def test_a_method_that_keeps_the_full_graph_labels_a_copy():
    db = merge_equal_objects(synthetic_database(0))
    full, g = extract_each(db, [method("RHW_all", threshold=1)])
    assert g == full and g is not full
    assert g.method.code == "RHW_all"
    assert full.method is None


def test_methods_that_keep_the_hierarchy_free_graph_label_copies():
    """RFW_all at threshold 1 is the shared hierarchy-free graph itself."""
    db = merge_equal_objects(synthetic_database(0))
    methods = [method("RFW_all", threshold=1),
               method("RFW_all", k=3, threshold=1)]
    full, first, second = extract_each(db, methods)
    assert first == second == filter_hierarchy(full)
    assert first is not second
    assert (first.method, second.method) == tuple(methods)


@pytest.mark.parametrize("codes,filters", [
    (METHOD_CODES, 1), (("RHW_all", "EHS_all", "RHS_k"), 0), ((), 0)])
def test_extract_each_drops_the_hierarchy_at_most_once(count_calls, codes,
                                                        filters):
    db = merge_equal_objects(synthetic_database(0))
    builds = count_calls(extract_module, "build_full_graph")
    calls = count_calls(extract_module, "filter_hierarchy")
    graphs = list(extract_each(db, [method(code, k=1) for code in codes]))
    assert len(graphs) == 1 + len(codes)
    assert (len(builds), len(calls)) == (1, filters)


def test_extract_threshold_25_on_small_graphs_is_empty():
    """The empty graph has no meta, not even EFW_all's injection counts."""
    db = component_db([6, 4])
    for code in ("RFW_all", "EFW_all"):
        m = ExtractionMethod.from_code(code)
        g = extract(db, m)
        assert g == ConfrontGraph([], [])
        assert (g.n, g.meta, g.method) == (0, {}, m)


def pipeline_outcomes(db, methods):
    """What the caches of `extract_each`'s variants hold."""
    _, *graphs = extract_each(db, methods)
    return [(g, g.meta, g.method) for g in graphs]


@pytest.mark.parametrize("seed", range(16))
def test_span_rule_equals_the_worklist_pruning(seed, monkeypatch):
    db = merge_equal_objects(synthetic_database(seed))
    full = build_full_graph(db)
    filtered = filter_hierarchy(full)
    for code in METHOD_CODES:
        for k in ((0, 1, 2, 4) if code.endswith("_k") else (0,)):
            m = method(code, k=k)
            g = full if m.keep_hierarchy else filtered
            try:
                stage = handle_nonpunctual(g, db, m)
            except MissingSegments:
                with pytest.raises(MissingSegments):
                    prune_oracle.handle_nonpunctual(g, db, m)
                continue
            assert stage == prune_oracle.handle_nonpunctual(g, db, m)
            methods = [method(code, k=k, threshold=threshold)
                       for threshold in (1, 2, 4)]
            got = pipeline_outcomes(db, methods)
            with monkeypatch.context() as patch:
                patch.setattr(extract_module, "handle_nonpunctual",
                              prune_oracle.handle_nonpunctual)
                assert pipeline_outcomes(db, methods) == got


# --- vertex order ---------------------------------------------------------

def register_order(db):
    """Every vertex id a graph of `db` can hold, in register order: the
    objects in `db.objects` order, each split object's segments in chain
    order at the object's place."""
    for obj in db.objects.values():
        yield obj.id
        for seg in obj.segments:
            yield segment_vertex_id(obj.id, seg.id)


def assert_in_register_order(g, db):
    order = register_order(db)
    # `in` consumes the iterator up to the match: a subsequence test.
    assert all(vid in order for vid in g.vertex_ids()), g.method.code


@pytest.mark.parametrize("seed", range(16))
def test_every_variant_keeps_register_order(seed):
    db = merge_equal_objects(synthetic_database(seed))
    for code in METHOD_CODES:
        for k in (0, 1, 2, 4):
            methods = [method(code, k=k, threshold=threshold)
                       for threshold in (1, 4)]
            try:
                _, *graphs = extract_each(db, methods)
            except MissingSegments:
                continue
            for g in graphs:
                assert_in_register_order(g, db)


def test_every_sweep_graph_of_the_generated_register_keeps_register_order(
        tmp_path):
    db = merge_equal_objects(load_database(*generated_register(tmp_path)))
    for base in ("RFW", "EFW", "RFS", "EFS"):
        _, *graphs = extract_each(db, [
            ExtractionMethod.from_code(f"{base}_k", k=k)
            for k in default_k_range(db)])
        for g in graphs:
            assert_in_register_order(g, db)
