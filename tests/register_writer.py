"""The register writer: a database back out as the CSV or JSON files
that `load_database` reads, so tests can build a register in memory and
run the loader and the CLI on it."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from confront_net.data_model import (_OBJECT_HEADER, _RELATION_HEADER,
                                     _SEGMENT_HEADER, Database)
from confront_net.errors import MalformedRecord


def _fmt_opt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_database(db: Database, objects_path: str | Path,
                  relations_path: str | Path,
                  segments_path: str | Path | None = None) -> None:
    """Write a database back out; inverse of load_database.

    CSV output needs segments_path whenever any object carries segments.
    """
    objects_path = Path(objects_path)
    relations_path = Path(relations_path)
    if objects_path.suffix == ".json":
        _save_json(db, objects_path, relations_path)
        return
    has_segments = any(o.segments for o in db.objects.values())
    if has_segments and segments_path is None:
        raise MalformedRecord(
            "segments present but no segments_path given")
    with objects_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_OBJECT_HEADER)
        for obj in db.objects.values():
            x = repr(obj.coord[0]) if obj.coord else ""
            y = repr(obj.coord[1]) if obj.coord else ""
            writer.writerow([
                obj.id, obj.name, obj.kind.value, obj.dim.value, x, y,
                _fmt_opt(obj.length_m), obj.parish or "",
                _fmt_opt(obj.inside_old_walls), _fmt_opt(obj.declared)])
    if segments_path is not None:
        with Path(segments_path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_SEGMENT_HEADER)
            for obj in db.objects.values():
                for order, seg in enumerate(obj.segments):
                    x = repr(seg.coord[0]) if seg.coord else ""
                    y = repr(seg.coord[1]) if seg.coord else ""
                    writer.writerow([obj.id, seg.id, order, x, y])
    with relations_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RELATION_HEADER)
        for rel in db.relations:
            writer.writerow([
                rel.id, rel.source_id, rel.target_id, rel.raw_type,
                rel.origin.value, rel.target_segment or ""])


def _save_json(db: Database, objects_path: Path,
               relations_path: Path) -> None:
    objects = [{
        "id": o.id, "name": o.name, "kind": o.kind.value,
        "dim": o.dim.value, "coord": list(o.coord) if o.coord else None,
        "length_m": o.length_m, "parish": o.parish,
        "inside_old_walls": o.inside_old_walls, "declared": o.declared,
        "segments": [{"id": s.id,
                      "coord": list(s.coord) if s.coord else None}
                     for s in o.segments] or None,
    } for o in db.objects.values()]
    relations = [{
        "id": r.id, "source_id": r.source_id, "target_id": r.target_id,
        "raw_type": r.raw_type, "origin": r.origin.value,
        "target_segment": r.target_segment,
    } for r in db.relations]
    objects_path.write_text(json.dumps(objects, indent=2) + "\n",
                            encoding="utf-8")
    relations_path.write_text(json.dumps(relations, indent=2) + "\n",
                              encoding="utf-8")
