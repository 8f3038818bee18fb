"""Database schema: spatial objects, raw relations, loading and validation.

The input is two flat files (objects and relations, CSV or JSON) plus an
optional segments file carrying splittable objects' decompositions. A
loaded Database is immutable and fully validated: every endpoint
resolves, every raw type is in the vocabulary, ids are unique.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any

from .errors import (ConfrontNetError, DanglingEndpoint, DuplicateId,
                     MalformedRecord, UnknownRawType)
from .relation_types import is_known_raw_type


class ObjectKind(Enum):
    PROPERTY = "Property"
    PARISH_OR_SECTOR = "ParishOrSector"
    BOROUGH = "Borough"
    DEFENSIVE_SYSTEM = "DefensiveSystem"
    GATE = "Gate"
    LIVERY = "Livery"
    GEOLOGICAL_LANDMARK = "GeologicalLandmark"
    STREET = "Street"
    EDIFICE = "Edifice"


class Dimensionality(Enum):
    PUNCTUAL = "Punctual"
    LINEAR = "Linear"
    SURFACE = "Surface"


class RelationOrigin(Enum):
    PRIMARY = "Primary"
    ADDITIONAL = "Additional"


# Kinds with a fixed dimensionality. Streets, geological landmarks and
# edifices take whatever their record says.
_FIXED_DIMS: dict[ObjectKind, frozenset[Dimensionality]] = {
    ObjectKind.PROPERTY: frozenset({Dimensionality.PUNCTUAL}),
    ObjectKind.GATE: frozenset({Dimensionality.PUNCTUAL}),
    ObjectKind.PARISH_OR_SECTOR: frozenset({Dimensionality.SURFACE}),
    ObjectKind.BOROUGH: frozenset({Dimensionality.SURFACE}),
    ObjectKind.LIVERY: frozenset({Dimensionality.SURFACE}),
    ObjectKind.DEFENSIVE_SYSTEM: frozenset({Dimensionality.LINEAR}),
}


@dataclass(frozen=True)
class Segment:
    """One ordered piece of a splittable object."""

    id: str
    coord: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise MalformedRecord("segment id must be non-empty")
        object.__setattr__(self, "coord",
                           _check_coord(self.coord, f"segment {self.id!r}"))


def _number(value: Any) -> float | None:
    """A non-boolean int or float as a float, else None. An int too large
    for a float reads as inf, as JSON reads a float too large."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_coord(coord: Any, owner: str) -> tuple[float, float] | None:
    """``coord`` as a pair of floats, as CSV reads it; None passes."""
    if coord is None:
        return None
    xy = tuple(map(_number, coord)) if isinstance(coord, (tuple, list)) else ()
    if len(xy) != 2 or not all(c is not None and math.isfinite(c) for c in xy):
        raise MalformedRecord(f"{owner}: coordinates must be two finite numbers")
    return xy


@dataclass(frozen=True)
class SpatialObject:
    id: str
    name: str
    kind: ObjectKind
    dim: Dimensionality
    coord: tuple[float, float] | None = None
    length_m: float | None = None
    parish: str | None = None
    inside_old_walls: bool | None = None
    declared: bool | None = None
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise MalformedRecord("object id must be non-empty")
        allowed = _FIXED_DIMS.get(self.kind)
        if allowed is not None and self.dim not in allowed:
            raise MalformedRecord(
                f"object {self.id!r}: kind {self.kind.value} cannot be "
                f"{self.dim.value}")
        object.__setattr__(self, "coord",
                           _check_coord(self.coord, f"object {self.id!r}"))
        if self.length_m is not None:
            if not math.isfinite(self.length_m) or self.length_m <= 0:
                raise MalformedRecord(
                    f"object {self.id!r}: length_m must be a finite positive "
                    f"number, got {self.length_m!r}")
        if self.kind is ObjectKind.PROPERTY:
            if self.declared is None:
                object.__setattr__(self, "declared", True)
        elif self.declared is not None:
            raise MalformedRecord(
                f"object {self.id!r}: declared flag only applies to "
                f"Property objects")
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))
        if self.segments:
            if len(self.segments) < 2:
                raise MalformedRecord(
                    f"object {self.id!r}: a segment decomposition needs at "
                    f"least 2 segments")
            seen = set()
            for seg in self.segments:
                if seg.id in seen:
                    raise DuplicateId(
                        f"object {self.id!r}: duplicate segment id {seg.id!r}")
                seen.add(seg.id)
            if self.dim is Dimensionality.PUNCTUAL:
                raise MalformedRecord(
                    f"object {self.id!r}: punctual objects cannot carry "
                    f"segments")

    @property
    def is_street(self) -> bool:
        return self.kind is ObjectKind.STREET

    @property
    def is_rankable_street(self) -> bool:
        """A non-punctual street: one the k longest are chosen from."""
        return self.is_street and self.dim is not Dimensionality.PUNCTUAL

    def segment_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.segments)


@dataclass(frozen=True)
class RelationRecord:
    id: str
    source_id: str
    target_id: str
    raw_type: str
    origin: RelationOrigin = RelationOrigin.PRIMARY
    target_segment: str | None = None

    def __post_init__(self) -> None:
        for name in ("id", "source_id", "target_id"):
            if not getattr(self, name):
                raise MalformedRecord(f"relation field {name} must be non-empty")
        if self.source_id == self.target_id:
            raise MalformedRecord(
                f"relation {self.id!r}: self-loop on {self.source_id!r} "
                f"(rejected for all types, Egal included)")
        if not is_known_raw_type(self.raw_type):
            raise UnknownRawType(
                f"relation {self.id!r}: unknown raw type {self.raw_type!r}")


@dataclass(frozen=True)
class Database:
    """Validated, immutable collection of objects and relations.

    Construct via from_parts() or load_database(); direct construction
    skips cross-record validation. Records only: coverage's baseline is
    the property count of the merged database's full graph.
    """

    objects: dict[str, SpatialObject]
    relations: tuple[RelationRecord, ...]

    @classmethod
    def from_parts(cls, objects: Iterable[SpatialObject],
                   relations: Iterable[RelationRecord]) -> "Database":
        index = _index_objects(objects)
        rels: dict[str, RelationRecord] = {}
        for rel in relations:
            _add_relation(rel, index, rels)
        return cls(index, tuple(rels.values()))


def _index_objects(
        objects: Iterable[SpatialObject]) -> dict[str, SpatialObject]:
    index: dict[str, SpatialObject] = {}
    for obj in objects:
        if obj.id in index:
            raise DuplicateId(f"duplicate object id {obj.id!r}")
        index[obj.id] = obj
    return index


def _add_relation(rel: RelationRecord, index: Mapping[str, SpatialObject],
                  relations: dict[str, RelationRecord]) -> None:
    """Add `rel` to `relations` by id, once it passes the checks against
    the objects by id and the relations before it."""
    if rel.id in relations:
        raise DuplicateId(f"duplicate relation id {rel.id!r}")
    for endpoint in (rel.source_id, rel.target_id):
        if endpoint not in index:
            raise DanglingEndpoint(
                f"relation {rel.id!r} references missing object "
                f"{endpoint!r}")
    if rel.target_segment is not None:
        target = index[rel.target_id]
        if rel.target_segment not in target.segment_ids():
            raise DanglingEndpoint(
                f"relation {rel.id!r}: segment {rel.target_segment!r} is not "
                f"declared on object {rel.target_id!r}")
    if rel.origin is RelationOrigin.ADDITIONAL:
        kinds = {index[rel.source_id].kind, index[rel.target_id].kind}
        if kinds not in ({ObjectKind.STREET},
                         {ObjectKind.STREET, ObjectKind.EDIFICE}):
            raise MalformedRecord(
                f"relation {rel.id!r}: Additional relations connect only "
                f"street-street or edifice-street pairs")
    relations[rel.id] = rel


def unique_by(records: Iterable[Any],
              key: Callable[[Any], Hashable]) -> list[Any]:
    """Collapse records with equal keys, first one wins.

    A later duplicate may still contribute its explicit segment binding
    when the kept record has none: curated bindings beat the default.
    Serves relations and graph edges alike.
    """
    out: list[Any] = []
    pos: dict[Hashable, int] = {}
    for rec in records:
        at = pos.setdefault(key(rec), len(out))
        if at == len(out):
            out.append(rec)
        elif out[at].target_segment is None and rec.target_segment is not None:
            out[at] = replace(out[at], target_segment=rec.target_segment)
    return out


# --- file I/O -------------------------------------------------------------

_OBJECT_HEADER = ("id", "name", "kind", "dim", "x", "y", "length_m",
                  "parish", "inside_old_walls", "declared")
_SEGMENT_HEADER = ("object_id", "segment_id", "order", "x", "y")
_RELATION_HEADER = ("id", "source_id", "target_id", "raw_type", "origin",
                    "target_segment")

_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise MalformedRecord(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise MalformedRecord(f"expected a number, got {raw!r}") from None


def _parse_enum(enum_cls: type[Enum], raw: str) -> Any:
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(m.value for m in enum_cls)
    raise MalformedRecord(f"expected one of {choices}, got {raw!r}")


def _parse_coord(xs: str, ys: str) -> tuple[float, float] | None:
    if not xs and not ys:
        return None
    if not xs or not ys:
        raise MalformedRecord("x and y must be given together")
    return (_parse_float(xs), _parse_float(ys))


def _read_csv(path: Path, header: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    rows: list[tuple[int, dict[str, str]]] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise MalformedRecord("file is empty (header expected)",
                                      path=str(path))
            if tuple(first) != header:
                raise MalformedRecord(
                    f"bad header: expected {','.join(header)}",
                    path=str(path), line=1)
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell for cell in row):
                    continue
                if len(row) != len(header):
                    raise MalformedRecord(
                        f"expected {len(header)} fields, got {len(row)}",
                        path=str(path), line=lineno)
                rows.append((lineno, dict(zip(header, row))))
        # Text is decoded by the block, so a bad byte has no line.
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"not UTF-8 text: {exc.reason}",
                                  path=str(path)) from None
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise MalformedRecord(f"unreadable CSV: {exc}", path=str(path),
                                  line=reader.line_num) from None
    return rows


class _located:
    """Append ``[path]`` or ``[path:line]`` to a loader error raised in
    the block, keeping its class; an error with a location passes.

    A class, not @contextmanager: it wraps every input row, and enters
    and leaves in a third of the time.
    """

    def __init__(self, path: Path, line: int | None = None) -> None:
        self.path, self.line = path, line

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type[BaseException] | None,
                 exc: BaseException | None, tb: Any) -> None:
        if isinstance(exc, MalformedRecord):
            if exc.path is None:
                raise type(exc)(str(exc), path=str(self.path),
                                line=self.line) from None
        elif isinstance(exc, ConfrontNetError):
            where = (str(self.path) if self.line is None
                     else f"{self.path}:{self.line}")
            raise type(exc)(f"{exc} [{where}]") from None


def load_database(objects_path: str | Path, relations_path: str | Path,
                  segments_path: str | Path | None = None) -> Database:
    """Load and validate a database from CSV (or JSON) files.

    JSON inputs are detected by the .json suffix on objects_path;
    segments then live inline on the object records and segments_path
    must be omitted.
    """
    objects_path = Path(objects_path)
    relations_path = Path(relations_path)
    if objects_path.suffix == ".json":
        if segments_path is not None:
            raise MalformedRecord(
                "JSON input carries segments inline; segments_path must be "
                "omitted")
        return _load_json(objects_path, relations_path)
    segs: dict[str, list[Segment]] = {}
    first_line: dict[str, int] = {}  # owner -> its first segments.csv line
    if segments_path is not None:
        segments_path = Path(segments_path)
        seen_pairs: set[tuple[str, str]] = set()
        entries: list[tuple[int, int, str, Segment]] = []
        for lineno, row in _read_csv(segments_path, _SEGMENT_HEADER):
            with _located(segments_path, lineno):
                key = (row["object_id"], row["segment_id"])
                if key in seen_pairs:
                    raise DuplicateId(
                        f"duplicate segment {row['segment_id']!r} on object "
                        f"{row['object_id']!r}")
                seen_pairs.add(key)
                try:
                    order = int(row["order"])
                except ValueError:
                    raise MalformedRecord(
                        f"expected an integer order, got {row['order']!r}"
                    ) from None
                seg = Segment(id=row["segment_id"],
                              coord=_parse_coord(row["x"], row["y"]))
            entries.append((order, lineno, row["object_id"], seg))
            first_line.setdefault(row["object_id"], lineno)
        entries.sort(key=lambda e: (e[2], e[0], e[1]))
        for _, _, owner, seg in entries:
            segs.setdefault(owner, []).append(seg)

    index: dict[str, SpatialObject] = {}
    for lineno, row in _read_csv(objects_path, _OBJECT_HEADER):
        with _located(objects_path, lineno):
            oid = row["id"]
            if oid in index:
                raise DuplicateId(f"duplicate object id {oid!r}")
            kind = _parse_enum(ObjectKind, row["kind"])
            dim = _parse_enum(Dimensionality, row["dim"])
            coord = _parse_coord(row["x"], row["y"])
            length = _parse_float(row["length_m"]) if row["length_m"] else None
            walls = (_parse_bool(row["inside_old_walls"])
                     if row["inside_old_walls"] else None)
            declared = (_parse_bool(row["declared"]) if row["declared"]
                        else None)
            index[oid] = SpatialObject(
                id=oid, name=row["name"], kind=kind, dim=dim, coord=coord,
                length_m=length, parish=row["parish"] or None,
                inside_old_walls=walls, declared=declared,
                segments=tuple(segs.get(oid, ())))
    for owner in segs:
        if owner not in index:
            with _located(segments_path, first_line[owner]):
                raise DanglingEndpoint(
                    f"segments reference missing object {owner!r}")

    relations: dict[str, RelationRecord] = {}
    for lineno, row in _read_csv(relations_path, _RELATION_HEADER):
        with _located(relations_path, lineno):
            _add_relation(RelationRecord(
                id=row["id"], source_id=row["source_id"],
                target_id=row["target_id"], raw_type=row["raw_type"],
                origin=_parse_enum(RelationOrigin,
                                   row["origin"] or "Primary"),
                target_segment=row["target_segment"] or None),
                index, relations)
    return Database(index, tuple(relations.values()))


def _json_records(path: Path, kind: str) -> Iterator[dict]:
    try:
        with path.open(encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    # Bad JSON or UTF-8, an int over the digit limit, or nesting past the
    # recursion limit.
    except (ValueError, RecursionError) as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise MalformedRecord(f"expected a JSON array of {kind} records")
    for pos, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise MalformedRecord(f"{kind} record #{pos} is not a JSON object")
        yield rec


def _json_field(rec: dict, owner: str, name: str, kind: type = str,
                required: bool = False) -> Any:
    """``rec[name]`` checked against ``kind``: str, bool, list, float (an
    integer is taken and, as in CSV, becomes a float) or an Enum named by
    its value. An optional field may be null or absent (None)."""
    value = rec.get(name)
    if value is None and not required:
        return None
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:  # for a list or an object too
            want = "one of " + ", ".join(m.value for m in kind)
    elif kind is float:
        number = _number(value)
        if number is not None:
            return number
        want = "a number"
    elif isinstance(value, kind):
        return value
    else:
        want = {str: "a string", bool: "a boolean", list: "an array"}[kind]
    raise MalformedRecord(f"{owner}: {name} must be {want}"
                          f"{'' if required else ' or null'}, got {value!r}")


def _json_object(rec: dict) -> SpatialObject:
    owner = f"object {rec.get('id')!r}"
    get = partial(_json_field, rec, owner)
    segments = []
    for seg in get("segments", list) or ():
        if not isinstance(seg, dict):
            raise MalformedRecord(f"{owner}: a segment is not a JSON object")
        sid = _json_field(seg, f"{owner} segment", "id", required=True)
        segments.append(Segment(sid, seg.get("coord")))
    return SpatialObject(
        id=get("id", required=True), name=get("name") or "",
        kind=get("kind", ObjectKind, required=True),
        dim=get("dim", Dimensionality, required=True),
        coord=rec.get("coord"), length_m=get("length_m", float),
        parish=get("parish"), inside_old_walls=get("inside_old_walls", bool),
        declared=get("declared", bool), segments=tuple(segments))


def _json_relation(rec: dict) -> RelationRecord:
    get = partial(_json_field, rec, f"relation {rec.get('id')!r}")
    return RelationRecord(
        id=get("id", required=True), source_id=get("source_id", required=True),
        target_id=get("target_id", required=True),
        raw_type=get("raw_type", required=True),
        origin=get("origin", RelationOrigin) or RelationOrigin.PRIMARY,
        target_segment=get("target_segment"))


def _load_json(objects_path: Path, relations_path: Path) -> Database:
    with _located(objects_path):
        index = _index_objects(
            _json_object(rec) for rec in _json_records(objects_path, "object"))
    relations: dict[str, RelationRecord] = {}
    with _located(relations_path):
        for rec in _json_records(relations_path, "relation"):
            _add_relation(_json_relation(rec), index, relations)
    return Database(index, tuple(relations.values()))


def validate_database(db: Database) -> list[str]:
    """Non-fatal data-quality warnings, in deterministic order."""
    warnings: list[str] = []
    incident: set[str] = set()
    for rel in db.relations:
        incident.add(rel.source_id)
        incident.add(rel.target_id)
    for obj in db.objects.values():
        if obj.id not in incident:
            warnings.append(f"isolate: object {obj.id!r} has no relations")
    for obj in db.objects.values():
        if obj.is_rankable_street and obj.length_m is None:
            warnings.append(f"missing-length: {obj.dim.value} street "
                            f"{obj.id!r} has no length_m")
    for rel in db.relations:
        target = db.objects[rel.target_id]
        if target.segments and rel.target_segment is None:
            warnings.append(
                f"unassigned-segment: relation {rel.id!r} targets segmented "
                f"object {rel.target_id!r} without a target_segment")
    return warnings
