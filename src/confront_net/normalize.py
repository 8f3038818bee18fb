"""Relation normalization and equality merging.

Two jobs: map raw relation types onto the seven normalized types given
the target object (the branchy rows of the vocabulary depend on whether
the target is a street or a surface), and resolve ``Egal`` relations by
unifying the records they declare equal into one canonical object.
"""

from __future__ import annotations

from dataclasses import replace

from .data_model import (Database, Dimensionality, ObjectKind,
                         RelationRecord, SpatialObject, _UnionFind)
from .errors import ConflictingMerge
from .relation_types import (EGAL, NORMALIZATION_TABLE, NormalizedType,
                             normalize_raw)


def normalize_relation_type(raw: str, target: SpatialObject) -> NormalizedType:
    """Normalized type of a raw relation towards ``target``.

    Street targets take the street branch where one exists, regardless
    of their dimensionality; otherwise surface targets take the surface
    branch and everything else the default.
    """
    return normalize_raw(
        raw,
        target_is_street=target.kind is ObjectKind.STREET,
        target_is_surface=target.dim is Dimensionality.SURFACE)


def _merged_object(base: SpatialObject,
                   members: list[SpatialObject]) -> SpatialObject:
    """Fold the group's fields into the canonical object.

    The canonical record wins; gaps are filled from the other members in
    ascending id order. declared is OR-ed so a group declared anywhere
    stays declared.
    """
    updates: dict[str, object] = {}
    coord = base.coord
    length = base.length_m
    parish = base.parish
    walls = base.inside_old_walls
    segments = base.segments
    declared = base.declared
    for other in members:
        if other.id == base.id:
            continue
        coord = coord if coord is not None else other.coord
        length = length if length is not None else other.length_m
        parish = parish if parish is not None else other.parish
        walls = walls if walls is not None else other.inside_old_walls
        if (not segments and other.segments
                and base.dim is not Dimensionality.PUNCTUAL):
            segments = other.segments
        if declared is not None and other.declared:
            declared = True
    if coord is not base.coord:
        updates["coord"] = coord
    if length is not base.length_m:
        updates["length_m"] = length
    if parish is not base.parish:
        updates["parish"] = parish
    if walls is not base.inside_old_walls:
        updates["inside_old_walls"] = walls
    if segments is not base.segments:
        updates["segments"] = segments
    if declared is not base.declared:
        updates["declared"] = declared
    return replace(base, **updates) if updates else base


def merge_equal_objects(db: Database) -> Database:
    """Unify every Egal-linked group into its lowest-id object.

    All other relations are re-pointed to canonical ids; relations that
    collapse into self-loops disappear, duplicates (same endpoints and
    raw type) collapse to the first occurrence, and segment bindings
    that no longer resolve on the merged target are dropped. Idempotent
    and independent of the Egal relations' order.
    """
    if not any(r.raw_type == EGAL for r in db.relations):
        return db
    uf = _UnionFind(db.objects)
    for rel in db.relations:
        if rel.raw_type != EGAL:
            continue
        a = db.objects[uf.find(rel.source_id)]
        b = db.objects[uf.find(rel.target_id)]
        if a.kind is not b.kind:
            raise ConflictingMerge(
                f"relation {rel.id!r} declares {rel.source_id!r} "
                f"({a.kind.value}) equal to {rel.target_id!r} "
                f"({b.kind.value})")
        uf.union(rel.source_id, rel.target_id)

    groups = uf.groups()
    merged: dict[str, SpatialObject] = {}
    for obj in db.objects.values():
        root = uf.find(obj.id)
        if root != obj.id:
            continue
        members = [db.objects[i] for i in groups[root]]
        merged[root] = (_merged_object(obj, members)
                        if len(members) > 1 else obj)

    relations: list[RelationRecord] = []
    seen: dict[tuple[str, str, str], int] = {}
    for rel in db.relations:
        if rel.raw_type == EGAL:
            continue
        source = uf.find(rel.source_id)
        target = uf.find(rel.target_id)
        if source == target:
            continue
        segment = rel.target_segment
        if segment is not None and segment not in merged[target].segment_ids():
            segment = None
        key = (source, target, rel.raw_type)
        if key in seen:
            kept = relations[seen[key]]
            # A duplicate may still contribute the explicit segment binding.
            if kept.target_segment is None and segment is not None:
                relations[seen[key]] = replace(kept, target_segment=segment)
            continue
        seen[key] = len(relations)
        if (source, target, segment) == (rel.source_id, rel.target_id,
                                         rel.target_segment):
            relations.append(rel)
        else:
            relations.append(replace(rel, source_id=source, target_id=target,
                                     target_segment=segment))
    return Database.from_parts(merged.values(), relations)


def normalization_rows() -> list[dict[str, str]]:
    """Audit view of the embedded table, one row per raw type."""
    rows = []
    for rule in NORMALIZATION_TABLE:
        if rule.raw_type == EGAL:
            rows.append({
                "raw_type": rule.raw_type, "translation": rule.translation,
                "default": "(merge vertices)", "surface": "(merge vertices)",
                "street": "(merge vertices)"})
            continue
        street = (rule.street.value if rule.street is not None
                  else "(by dimensionality)")
        rows.append({
            "raw_type": rule.raw_type, "translation": rule.translation,
            "default": rule.other.value, "surface": rule.surface.value,
            "street": street})
    return rows
