"""Relation normalization and equality merging.

Two jobs: map raw relation types onto the seven normalized types given
the target object (the branchy rows of the vocabulary depend on whether
the target is a street or a surface), and resolve ``Egal`` relations by
unifying the records they declare equal into one canonical object.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

from .data_model import (Database, Dimensionality, ObjectKind,
                         RelationRecord, SpatialObject, unique_by)
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


class _UnionFind:
    """Union-find whose canonical representative is the smallest id."""

    def __init__(self, ids: Iterable[str]) -> None:
        self._parent = {i: i for i in ids}

    def find(self, x: str) -> str:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        self._parent[drop] = keep

    def groups(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for i in self._parent:
            out.setdefault(self.find(i), []).append(i)
        for members in out.values():
            members.sort()
        return out


_FILLABLE = ("coord", "length_m", "parish", "inside_old_walls")


def _merged_object(members: list[SpatialObject]) -> SpatialObject:
    """Fold a group, listed in id order, into its canonical first member.

    Each fillable field takes the first non-None value in that order;
    segments come from the first member that has any, unless the
    canonical object is punctual; declared is OR-ed so a group declared
    anywhere stays declared.
    """
    base = members[0]
    if len(members) == 1:
        return base
    fields = {name: next((getattr(m, name) for m in members
                          if getattr(m, name) is not None), None)
              for name in _FILLABLE}
    if base.dim is not Dimensionality.PUNCTUAL:
        fields["segments"] = next((m.segments for m in members if m.segments),
                                  ())
    if base.declared is not None:
        fields["declared"] = any(m.declared for m in members)
    return replace(base, **fields)


def merge_equal_objects(db: Database) -> Database:
    """Unify every Egal-linked group into its lowest-id object.

    All other relations are re-pointed to canonical ids; relations that
    collapse into self-loops disappear, segment bindings that no longer
    resolve on the merged target are dropped, and duplicates (same
    endpoints and raw type) collapse through ``unique_by``. Idempotent
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
    merged = {oid: _merged_object([db.objects[i] for i in groups[oid]])
              for oid in db.objects if oid in groups}

    relations: list[RelationRecord] = []
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
        if (source, target, segment) != (rel.source_id, rel.target_id,
                                         rel.target_segment):
            rel = replace(rel, source_id=source, target_id=target,
                          target_segment=segment)
        relations.append(rel)
    # The records passed the cross-record checks, and merging keeps kinds
    # and re-resolves bindings.
    return Database(merged, tuple(unique_by(
        relations, lambda r: (r.source_id, r.target_id, r.raw_type))))


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
