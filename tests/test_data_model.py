"""Record validation, file round-trips, the property baseline (the
property count of the merged register's full graph) and the non-fatal
warning pass."""

import json
import math

import pytest

from conftest import property_baseline, synthetic_database
from register_writer import save_database
from confront_net.data_model import (Database, Dimensionality, ObjectKind,
                                     RelationOrigin, RelationRecord, Segment,
                                     SpatialObject, load_database,
                                     validate_database)
from confront_net.errors import (DanglingEndpoint, DuplicateId,
                                 MalformedRecord, MissingLength,
                                 UnknownRawType)
from confront_net.extract import ExtractionMethod, build_full_graph, extract
from confront_net.serialize import graphml_bytes

P = Dimensionality.PUNCTUAL
L = Dimensionality.LINEAR
S = Dimensionality.SURFACE


def obj(oid, kind=ObjectKind.PROPERTY, dim=P, **kw):
    return SpatialObject(oid, f"object {oid}", kind, dim, **kw)


# --- record-level validation ---------------------------------------------

@pytest.mark.parametrize("kind,dim", [
    (ObjectKind.PROPERTY, P), (ObjectKind.GATE, P),
    (ObjectKind.PARISH_OR_SECTOR, S), (ObjectKind.BOROUGH, S),
    (ObjectKind.LIVERY, S), (ObjectKind.DEFENSIVE_SYSTEM, L),
])
def test_fixed_dimensionalities_accepted(kind, dim):
    obj("a", kind=kind, dim=dim)


@pytest.mark.parametrize("kind,dim", [
    (ObjectKind.PROPERTY, S), (ObjectKind.PROPERTY, L),
    (ObjectKind.GATE, L), (ObjectKind.PARISH_OR_SECTOR, P),
    (ObjectKind.BOROUGH, L), (ObjectKind.LIVERY, P),
    (ObjectKind.DEFENSIVE_SYSTEM, P), (ObjectKind.DEFENSIVE_SYSTEM, S),
])
def test_fixed_dimensionalities_rejected(kind, dim):
    with pytest.raises(MalformedRecord):
        obj("a", kind=kind, dim=dim)


@pytest.mark.parametrize("dim", [P, L, S])
def test_streets_take_any_dimensionality(dim):
    obj("a", kind=ObjectKind.STREET, dim=dim)
    obj("b", kind=ObjectKind.GEOLOGICAL_LANDMARK, dim=dim)
    obj("c", kind=ObjectKind.EDIFICE, dim=dim)


def test_property_declared_defaults_to_true():
    assert obj("a").declared is True
    assert obj("a", declared=False).declared is False


def test_declared_is_property_only():
    with pytest.raises(MalformedRecord):
        obj("a", kind=ObjectKind.STREET, dim=L, declared=True)


@pytest.mark.parametrize("coord", [(1.0,), (1.0, 2.0, 3.0),
                                   (math.nan, 0.0), (math.inf, 0.0)])
def test_bad_coordinates_rejected(coord):
    with pytest.raises(MalformedRecord):
        obj("a", coord=coord)


@pytest.mark.parametrize("length", [0.0, -5.0, math.nan, math.inf])
def test_bad_length_rejected(length):
    with pytest.raises(MalformedRecord):
        obj("a", kind=ObjectKind.STREET, dim=L, length_m=length)


def test_single_segment_rejected():
    with pytest.raises(MalformedRecord):
        obj("a", kind=ObjectKind.STREET, dim=L, segments=(Segment("s1"),))


def test_duplicate_segment_ids_rejected():
    with pytest.raises(DuplicateId):
        obj("a", kind=ObjectKind.STREET, dim=L,
            segments=(Segment("s1"), Segment("s1")))


def test_punctual_objects_cannot_carry_segments():
    with pytest.raises(MalformedRecord):
        obj("a", kind=ObjectKind.STREET, dim=P,
            segments=(Segment("s1"), Segment("s2")))


def test_relation_rejects_self_loop_even_for_egal():
    with pytest.raises(MalformedRecord):
        RelationRecord("r1", "a", "a", "Egal")


def test_relation_rejects_unknown_raw_type():
    with pytest.raises(UnknownRawType):
        RelationRecord("r1", "a", "b", "Nearby")


# --- database assembly ----------------------------------------------------

def db_parts():
    objects = [
        obj("p1", parish="P", coord=(0.0, 0.0)),
        obj("p2", parish="P", coord=(3.0, 4.0)),
        obj("par1", kind=ObjectKind.PARISH_OR_SECTOR, dim=S),
        obj("st1", kind=ObjectKind.STREET, dim=L, length_m=120.5,
            segments=(Segment("a", (0.0, 1.0)), Segment("b", (2.0, 1.0)))),
        obj("ed1", kind=ObjectKind.EDIFICE, dim=P),
    ]
    relations = [
        RelationRecord("r1", "p1", "p2", "Juxta"),
        RelationRecord("r2", "p1", "st1", "In Angulo", target_segment="b"),
        RelationRecord("r3", "p2", "par1", "In"),
        RelationRecord("r4", "ed1", "st1", "Prope",
                       origin=RelationOrigin.ADDITIONAL),
    ]
    return objects, relations


def test_from_parts_builds_and_counts_baseline():
    db = Database.from_parts(*db_parts())
    assert list(db.objects) == ["p1", "p2", "par1", "st1", "ed1"]
    assert property_baseline(db) == 2


def test_duplicate_object_id_rejected():
    objects, relations = db_parts()
    with pytest.raises(DuplicateId):
        Database.from_parts(objects + [obj("p1")], relations)


def test_duplicate_relation_id_rejected():
    objects, relations = db_parts()
    with pytest.raises(DuplicateId):
        Database.from_parts(objects,
                            relations + [RelationRecord("r1", "p2", "ed1",
                                                        "Retro")])


def test_dangling_endpoint_rejected():
    objects, relations = db_parts()
    with pytest.raises(DanglingEndpoint):
        Database.from_parts(objects,
                            relations + [RelationRecord("r9", "p1", "ghost",
                                                        "Ante")])


def test_dangling_segment_binding_rejected():
    objects, relations = db_parts()
    bad = RelationRecord("r9", "p2", "st1", "Juxta", target_segment="zz")
    with pytest.raises(DanglingEndpoint):
        Database.from_parts(objects, relations + [bad])


# property-property, property-street and edifice-parish pairs are all
# primary material, not additional adjacency data
@pytest.mark.parametrize("src,tgt", [("p1", "p2"), ("p1", "st1"),
                                     ("ed1", "par1")])
def test_additional_relations_restricted(src, tgt):
    objects, relations = db_parts()
    bad = RelationRecord("r9", src, tgt, "Juxta",
                         origin=RelationOrigin.ADDITIONAL)
    with pytest.raises(MalformedRecord):
        Database.from_parts(objects, relations + [bad])


def test_additional_street_street_accepted():
    objects, relations = db_parts()
    objects.append(obj("st2", kind=ObjectKind.STREET, dim=P))
    ok = RelationRecord("r9", "st1", "st2", "Juxta",
                        origin=RelationOrigin.ADDITIONAL)
    Database.from_parts(objects, relations + [ok])


def test_baseline_ignores_isolates_and_additional_only_objects():
    db = Database.from_parts(
        [obj("p1"), obj("p2"), obj("p3"),
         obj("st1", kind=ObjectKind.STREET, dim=P),
         obj("st2", kind=ObjectKind.STREET, dim=P)],
        [RelationRecord("r1", "p1", "p2", "Juxta"),
         RelationRecord("r2", "st1", "st2", "Juxta",
                        origin=RelationOrigin.ADDITIONAL)])
    # p3 is isolated; streets touch only additional data.
    assert property_baseline(db) == 2


def test_baseline_counts_merged_groups_once():
    db = Database.from_parts(
        [obj("p1"), obj("p2"), obj("p3")],
        [RelationRecord("r1", "p1", "p2", "Egal"),
         RelationRecord("r2", "p2", "p3", "Juxta")])
    assert property_baseline(db) == 2


def test_baseline_ignores_relations_collapsing_to_self_loops():
    db = Database.from_parts(
        [obj("p1"), obj("p2")],
        [RelationRecord("r1", "p1", "p2", "Egal"),
         RelationRecord("r2", "p1", "p2", "Juxta")])
    assert property_baseline(db) == 0


# --- file round-trips -----------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_csv_round_trip(tmp_path, seed):
    db = synthetic_database(seed)
    save_database(db, tmp_path / "objects.csv", tmp_path / "relations.csv",
                  tmp_path / "segments.csv")
    back = load_database(tmp_path / "objects.csv", tmp_path / "relations.csv",
                         tmp_path / "segments.csv")
    assert back == db


@pytest.mark.parametrize("seed", range(3))
def test_json_round_trip(tmp_path, seed):
    db = synthetic_database(seed)
    save_database(db, tmp_path / "objects.json", tmp_path / "relations.json")
    back = load_database(tmp_path / "objects.json",
                         tmp_path / "relations.json")
    assert back == db


def prefix_bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def test_csv_with_byte_order_marks_loads_unchanged(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start every file with a BOM.
    db = synthetic_database(0)
    paths = (tmp_path / "objects.csv", tmp_path / "relations.csv",
             tmp_path / "segments.csv")
    save_database(db, *paths)
    for path in paths:
        prefix_bom(path)
    assert load_database(*paths) == db


def test_json_with_byte_order_marks_loads_unchanged(tmp_path):
    db = synthetic_database(0)
    paths = (tmp_path / "objects.json", tmp_path / "relations.json")
    save_database(db, *paths)
    for path in paths:
        prefix_bom(path)
    assert load_database(*paths) == db


@pytest.mark.parametrize("content,message", [
    ([["a"]], "is not a JSON object"), ([1], "is not a JSON object"),
    (["a"], "is not a JSON object"), ([None], "is not a JSON object"),
    ({}, "expected a JSON array"), ("a", "expected a JSON array")])
@pytest.mark.parametrize("bad", ["objects", "relations"])
def test_json_input_that_is_not_an_array_of_objects_is_rejected(
        tmp_path, bad, content, message):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("objects", "relations")}
    for name, path in paths.items():
        path.write_text(json.dumps(content if name == bad else []))
    with pytest.raises(MalformedRecord, match=message) as exc:
        load_database(paths["objects"], paths["relations"])
    assert exc.value.path == str(paths[bad])


PROP = {"id": "h", "kind": "Property", "dim": "Punctual"}
STREET = {"id": "st", "kind": "Street", "dim": "Linear"}
REL = {"id": "r1", "source_id": "a", "target_id": "b", "raw_type": "Juxta"}

# Fields of the wrong JSON type: (file, record, message).
JSON_TYPE_ERRORS = [
    ("objects", {**PROP, "inside_old_walls": "false"},
     "object 'h': inside_old_walls must be a boolean or null, got 'false'"),
    ("objects", {**PROP, "declared": 1},
     "object 'h': declared must be a boolean or null, got 1"),
    ("objects", {**PROP, "parish": 5},
     "object 'h': parish must be a string or null, got 5"),
    ("objects", {**PROP, "id": 5}, "object 5: id must be a string, got 5"),
    ("objects", {**PROP, "name": ["x"]},
     "object 'h': name must be a string or null, got ['x']"),
    ("objects", {**PROP, "kind": "Shop"},
     "object 'h': kind must be one of Property, ParishOrSector, Borough, "
     "DefensiveSystem, Gate, Livery, GeologicalLandmark, Street, Edifice, "
     "got 'Shop'"),
    ("objects", {**PROP, "dim": None},
     "object 'h': dim must be one of Punctual, Linear, Surface, got None"),
    ("objects", {**PROP, "coord": [True, 0]},
     "object 'h': coordinates must be two finite numbers"),
    ("objects", {**PROP, "coord": "12"},
     "object 'h': coordinates must be two finite numbers"),
    ("objects", {**STREET, "length_m": "120"},
     "object 'st': length_m must be a number or null, got '120'"),
    ("objects", {**STREET, "length_m": False},
     "object 'st': length_m must be a number or null, got False"),
    ("objects", {**STREET, "segments": {"id": "a"}},
     "object 'st': segments must be an array or null, got {'id': 'a'}"),
    ("objects", {**STREET, "segments": ["a", "b"]},
     "object 'st': a segment is not a JSON object"),
    ("objects", {**STREET, "segments": [{"id": 1}, {"id": 2}]},
     "object 'st' segment: id must be a string, got 1"),
    ("relations", {**REL, "source_id": 5},
     "relation 'r1': source_id must be a string, got 5"),
    ("relations", {k: v for k, v in REL.items() if k != "raw_type"},
     "relation 'r1': raw_type must be a string, got None"),
    ("relations", {**REL, "origin": "Secondary"},
     "relation 'r1': origin must be one of Primary, Additional or null, "
     "got 'Secondary'"),
    ("relations", {**REL, "target_segment": 0},
     "relation 'r1': target_segment must be a string or null, got 0"),
]


@pytest.mark.parametrize("bad,record,error,message", [
    ("objects", {"id": "h", "kind": "Property", "dim": "Surface"},
     MalformedRecord, "object 'h': kind Property cannot be Surface"),
    ("objects", {"id": "h", "kind": "Property", "dim": "Punctual",
                 "coord": [1.0]},
     MalformedRecord, "object 'h': coordinates must be two finite numbers"),
    ("objects", {"id": "st", "kind": "Street", "dim": "Linear",
                 "segments": [{"id": "a"}, {"id": "a"}]},
     DuplicateId, "object 'st': duplicate segment id 'a'"),
    ("relations", {"id": "r1", "source_id": "a", "target_id": "b",
                   "raw_type": "Besides"},
     UnknownRawType, "relation 'r1': unknown raw type 'Besides'"),
] + [(bad, record, MalformedRecord, message)
     for bad, record, message in JSON_TYPE_ERRORS])
def test_json_record_errors_name_their_file(tmp_path, bad, record, error,
                                            message):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("objects", "relations")}
    for name, path in paths.items():
        path.write_text(json.dumps([record] if name == bad else []))
    with pytest.raises(error) as exc:
        load_database(paths["objects"], paths["relations"])
    assert str(exc.value) == f"{message} [{paths[bad]}]"
    if error is MalformedRecord:
        assert exc.value.path == str(paths[bad])


def test_json_null_optionals_load_as_absent(tmp_path):
    paths = (tmp_path / "objects.json", tmp_path / "relations.json")
    paths[0].write_text(json.dumps([
        {**PROP, "name": None, "coord": None, "parish": None,
         "inside_old_walls": None, "declared": None},
        {**PROP, "id": "g"}]))
    paths[1].write_text(json.dumps([{**REL, "source_id": "g",
                                     "target_id": "h", "origin": None,
                                     "target_segment": None}]))
    db = load_database(*paths)
    assert db.objects["h"] == SpatialObject("h", "", ObjectKind.PROPERTY,
                                            Dimensionality.PUNCTUAL)
    assert db.relations[0].origin is RelationOrigin.PRIMARY


def test_csv_and_json_registers_render_the_same_graphml(tmp_path):
    """JSON whole numbers load as the floats CSV gives."""
    objects = [
        {"id": "a", "name": "", "kind": "Property", "dim": "Punctual",
         "coord": [0, 0], "parish": "p1", "inside_old_walls": False},
        {"id": "b", "name": "", "kind": "Property", "dim": "Punctual",
         "coord": [30, 40]},
        {"id": "s", "name": "", "kind": "Street", "dim": "Linear",
         "coord": [10, 10], "length_m": 120,
         "segments": [{"id": "s0", "coord": [0, 10]},
                      {"id": "s1", "coord": [20, 10]}]}]
    relations = [
        {"id": "r1", "source_id": "a", "target_id": "b", "raw_type": "Juxta"},
        {"id": "r2", "source_id": "a", "target_id": "s", "raw_type": "Juxta",
         "target_segment": "s1"}]
    json_paths = (tmp_path / "objects.json", tmp_path / "relations.json")
    json_paths[0].write_text(json.dumps(objects))
    json_paths[1].write_text(json.dumps(relations))
    csv_paths = (tmp_path / "objects.csv", tmp_path / "relations.csv",
                 tmp_path / "segments.csv")
    write(csv_paths[0], OBJ_HEADER + "\na,,Property,Punctual,0,0,,p1,false,\n"
          "b,,Property,Punctual,30,40,,,,\n"
          "s,,Street,Linear,10,10,120,,,\n")
    write(csv_paths[1], REL_HEADER + "\nr1,a,b,Juxta,,\nr2,a,s,Juxta,,s1\n")
    write(csv_paths[2], "object_id,segment_id,order,x,y\n"
          "s,s0,0,0,10\ns,s1,1,20,10\n")
    renderings = []
    for paths in (json_paths, csv_paths):
        db = load_database(*paths)
        for method in ("full", "EFS_all"):
            g = (build_full_graph(db) if method == "full" else extract(
                db, ExtractionMethod.from_code(method,
                                               component_threshold=1)))
            renderings.append(graphml_bytes(g))
    assert renderings[:2] == renderings[2:]


def test_csv_requires_segments_path_when_segments_exist(tmp_path):
    db = synthetic_database(0)
    with pytest.raises(MalformedRecord):
        save_database(db, tmp_path / "o.csv", tmp_path / "r.csv")


def test_json_refuses_separate_segments_file(tmp_path):
    db = synthetic_database(0)
    save_database(db, tmp_path / "o.json", tmp_path / "r.json")
    with pytest.raises(MalformedRecord):
        load_database(tmp_path / "o.json", tmp_path / "r.json",
                      tmp_path / "missing.csv")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


OBJ_HEADER = "id,name,kind,dim,x,y,length_m,parish,inside_old_walls,declared"
REL_HEADER = "id,source_id,target_id,raw_type,origin,target_segment"


def test_load_reports_path_and_line_for_bad_header(tmp_path):
    objects = write(tmp_path / "objects.csv", "id,name\nx,y\n")
    relations = write(tmp_path / "relations.csv", REL_HEADER + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_database(objects, relations)
    assert "objects.csv" in str(exc.value)


@pytest.mark.parametrize("bad", ["objects", "relations"])
def test_invalid_utf8_csv_names_its_file(tmp_path, bad):
    paths = {"objects": write(tmp_path / "objects.csv", OBJ_HEADER
                              + "\np1,first,Property,Punctual,,,,,,\n"),
             "relations": write(tmp_path / "relations.csv",
                                REL_HEADER + "\n")}
    with paths[bad].open("ab") as fh:
        fh.write(b"\xff\xfe")
    with pytest.raises(MalformedRecord, match="^not UTF-8 text: ") as exc:
        load_database(paths["objects"], paths["relations"])
    assert exc.value.path == str(paths[bad])


def test_an_oversized_csv_field_names_its_file_and_line(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER,
        "p1,first,Property,Punctual,,,,,,",
        "p2," + "n" * 200_000 + ",Property,Punctual,,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", REL_HEADER + "\n")
    with pytest.raises(MalformedRecord,
                       match="^unreadable CSV: field larger than") as exc:
        load_database(objects, relations)
    assert (exc.value.path, exc.value.line) == (str(objects), 3)


def test_json_nested_past_the_recursion_limit_names_its_file(tmp_path):
    objects = tmp_path / "objects.json"
    objects.write_text("[" * 100_000)
    relations = tmp_path / "relations.json"
    relations.write_text("[]")
    with pytest.raises(MalformedRecord, match="^invalid JSON: ") as exc:
        load_database(objects, relations)
    assert exc.value.path == str(objects)


def test_load_reports_line_numbers(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER,
        "p1,first,Property,Punctual,,,,,,",
        "p2,second,Property,Linear,,,,,,",  # bad dim on line 3
        ""]))
    relations = write(tmp_path / "relations.csv", REL_HEADER + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_database(objects, relations)
    assert ":3" in str(exc.value)


@pytest.mark.parametrize("bad,row,reason", [
    ("objects", "house [east],h,Property,Surface,,,,,,",
     "object 'house [east]': kind Property cannot be Surface"),
    ("relations", "r [1],p1,p1,Juxta,,",
     "relation 'r [1]': self-loop on 'p1' (rejected for all types, Egal "
     "included)"),
])
def test_load_keeps_the_whole_reason_for_ids_with_brackets(tmp_path, bad,
                                                           row, reason):
    lines = {"objects": [OBJ_HEADER, "p1,first,Property,Punctual,,,,,,"],
             "relations": [REL_HEADER]}
    lines[bad].insert(1, row)
    paths = {name: write(tmp_path / f"{name}.csv", "\n".join(rows) + "\n")
             for name, rows in lines.items()}
    with pytest.raises(MalformedRecord) as exc:
        load_database(paths["objects"], paths["relations"])
    assert str(exc.value) == f"{reason} [{paths[bad]}:2]"
    assert (exc.value.path, exc.value.line) == (str(paths[bad]), 2)


def test_load_rejects_half_coordinates(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER, "p1,first,Property,Punctual,4.5,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", REL_HEADER + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_database(objects, relations)
    assert "together" in str(exc.value)


def test_load_rejects_unknown_raw_type_with_location(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER,
        "p1,first,Property,Punctual,,,,,,",
        "p2,second,Property,Punctual,,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", "\n".join([
        REL_HEADER, "r1,p1,p2,Besides,Primary,", ""]))
    with pytest.raises(UnknownRawType) as exc:
        load_database(objects, relations)
    assert "relations.csv:2" in str(exc.value)


def test_load_defaults_origin_to_primary(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER,
        "p1,first,Property,Punctual,,,,,,",
        "p2,second,Property,Punctual,,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", "\n".join([
        REL_HEADER, "r1,p1,p2,Juxta,,", ""]))
    db = load_database(objects, relations)
    assert db.relations[0].origin is RelationOrigin.PRIMARY


def test_load_orders_segments_by_declared_order(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER,
        "st1,street,Street,Linear,,,40,,,",
        "p1,first,Property,Punctual,,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", "\n".join([
        REL_HEADER, "r1,p1,st1,Juxta,Primary,", ""]))
    segments = write(tmp_path / "segments.csv", "\n".join([
        "object_id,segment_id,order,x,y",
        "st1,sb,2,,",
        "st1,sa,1,,",
        "st1,sc,3,,", ""]))
    db = load_database(objects, relations, segments)
    assert db.objects["st1"].segment_ids() == ("sa", "sb", "sc")


def test_load_rejects_segments_of_missing_objects(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER, "p1,first,Property,Punctual,,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", REL_HEADER + "\n")
    segments = write(tmp_path / "segments.csv", "\n".join([
        "object_id,segment_id,order,x,y", "ghost,s1,1,,", "ghost,s2,2,,", ""]))
    with pytest.raises(DanglingEndpoint):
        load_database(objects, relations, segments)


def test_orphan_segments_name_their_file_and_first_line(tmp_path):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER, "p1,first,Property,Punctual,,,,,,", ""]))
    relations = write(tmp_path / "relations.csv", REL_HEADER + "\n")
    segments = write(tmp_path / "segments.csv", "\n".join([
        "object_id,segment_id,order,x,y",
        "zed,s1,1,,", "ghost,s2,2,,", "ghost,s1,1,,", ""]))
    with pytest.raises(DanglingEndpoint) as exc:
        load_database(objects, relations, segments)
    # The first owner in id order, at the first line it appears on.
    assert str(exc.value) == (
        f"segments reference missing object 'ghost' [{segments}:3]")


# Relations that fail a check against other records: (relation after
# r1, error, message).
CROSS_RECORD_ERRORS = [
    pytest.param(("r2", "p1", "p9", "Juxta", None, None), DanglingEndpoint,
                 "relation 'r2' references missing object 'p9'",
                 id="missing-object"),
    pytest.param(("r1", "p2", "st", "Juxta", None, None), DuplicateId,
                 "duplicate relation id 'r1'", id="repeated-id"),
    pytest.param(("r2", "p1", "st", "Juxta", None, "s9"), DanglingEndpoint,
                 "relation 'r2': segment 's9' is not declared on object "
                 "'st'", id="undeclared-segment"),
    pytest.param(("r2", "p1", "st", "Juxta", "Additional", None),
                 MalformedRecord,
                 "relation 'r2': Additional relations connect only "
                 "street-street or edifice-street pairs",
                 id="bad-additional-pair"),
]
CROSS_RECORD_OBJECTS = [
    {"id": "p1", "kind": "Property", "dim": "Punctual"},
    {"id": "p2", "kind": "Property", "dim": "Punctual"},
    {"id": "st", "kind": "Street", "dim": "Linear",
     "segments": [{"id": "s0"}, {"id": "s1"}]}]


@pytest.mark.parametrize("rel,error,message", CROSS_RECORD_ERRORS)
def test_cross_record_errors_name_their_csv_line(tmp_path, rel, error,
                                                 message):
    objects = write(tmp_path / "objects.csv", "\n".join([
        OBJ_HEADER, "p1,,Property,Punctual,,,,,,",
        "p2,,Property,Punctual,,,,,,", "st,,Street,Linear,,,,,,", ""]))
    segments = write(tmp_path / "segments.csv", "\n".join([
        "object_id,segment_id,order,x,y", "st,s0,0,,", "st,s1,1,,", ""]))
    relations = write(tmp_path / "relations.csv", "\n".join([
        REL_HEADER, "r1,p1,p2,Juxta,,",
        ",".join(field or "" for field in rel), "r3,p2,p1,Juxta,,", ""]))
    with pytest.raises(error) as exc:
        load_database(objects, relations, segments)
    assert str(exc.value) == f"{message} [{relations}:3]"


@pytest.mark.parametrize("rel,error,message", CROSS_RECORD_ERRORS)
def test_cross_record_errors_name_their_json_file(tmp_path, rel, error,
                                                  message):
    objects = tmp_path / "objects.json"
    relations = tmp_path / "relations.json"
    objects.write_text(json.dumps(CROSS_RECORD_OBJECTS))
    fields = ("id", "source_id", "target_id", "raw_type", "origin",
              "target_segment")
    relations.write_text(json.dumps([{**REL, "source_id": "p1",
                                      "target_id": "p2"},
                                     dict(zip(fields, rel))]))
    with pytest.raises(error) as exc:
        load_database(objects, relations)
    assert str(exc.value) == f"{message} [{relations}]"


def test_duplicate_json_object_ids_name_their_file(tmp_path):
    objects = tmp_path / "objects.json"
    relations = tmp_path / "relations.json"
    objects.write_text(json.dumps(CROSS_RECORD_OBJECTS
                                  + [CROSS_RECORD_OBJECTS[0]]))
    relations.write_text("[]")
    with pytest.raises(DuplicateId) as exc:
        load_database(objects, relations)
    assert str(exc.value) == f"duplicate object id 'p1' [{objects}]"


# --- warnings -------------------------------------------------------------

def test_validate_database_warnings():
    db = Database.from_parts(
        [obj("p1"), obj("p2"),
         obj("lonely"),
         obj("st1", kind=ObjectKind.STREET, dim=L),  # no length
         obj("st2", kind=ObjectKind.STREET, dim=L, length_m=10.0,
             segments=(Segment("a"), Segment("b")))],
        [RelationRecord("r1", "p1", "p2", "Juxta"),
         RelationRecord("r2", "p1", "st2", "Juxta"),  # unbound segment target
         RelationRecord("r3", "p2", "st1", "Juxta"),
         RelationRecord("r4", "p2", "st2", "Juxta", target_segment="a")])
    warnings = validate_database(db)
    assert [w.split(":")[0] for w in warnings] == [
        "isolate", "missing-length", "unassigned-segment"]
    assert "lonely" in warnings[0]
    assert warnings[1] == "missing-length: Linear street 'st1' has no length_m"
    assert "r2" in warnings[2]


def test_a_surface_street_without_length_is_warned_of_and_unrankable():
    """Every non-punctual street is ranked by length, a Surface one too."""
    db = Database.from_parts(
        [obj("p1"), obj("sq", kind=ObjectKind.STREET, dim=S,
                        segments=(Segment("a"), Segment("b")))],
        [RelationRecord("r1", "p1", "sq", "Juxta", target_segment="a")])
    assert validate_database(db) == [
        "missing-length: Surface street 'sq' has no length_m"]
    with pytest.raises(MissingLength) as exc:
        extract(db, ExtractionMethod.from_code("EFS_k", k=1))
    assert str(exc.value) == (
        "street 'sq' has no length_m; cannot rank streets")


def test_validate_database_clean():
    db = Database.from_parts(
        [obj("p1"), obj("p2")], [RelationRecord("r1", "p1", "p2", "Juxta")])
    assert validate_database(db) == []
