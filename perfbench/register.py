"""Deterministic, scale-parameterized land-register generator.

The register is shaped like the Avignon one (scale 1.0 ~ 2650 properties,
360 streets): segmented linear streets laid out on a crossing lattice,
8 parishes, properties with one to three confronts each, street-street
and edifice-street Additional pairs at the crossings. It also holds the
objects every branch of the extraction planner needs: non-street
non-punctual objects with segments (the old walls) and without (liveries,
the river, the parishes), short segmentless streets, punctual streets,
Egal duplicate records, hierarchical In/Extra confronts, and satellite
property groups below the default component threshold of 25.

Only the three CSV files reach the program under test; this module does
not import it.

    python3 perfbench/register.py --scale 0.33 --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import math
import random
from pathlib import Path

OBJECT_HEADER = ("id", "name", "kind", "dim", "x", "y", "length_m",
                 "parish", "inside_old_walls", "declared")
SEGMENT_HEADER = ("object_id", "segment_id", "order", "x", "y")
RELATION_HEADER = ("id", "source_id", "target_id", "raw_type", "origin",
                   "target_segment")

_TO_STREET = ("Juxta", "Iuxta", "In Capite", "In Introytu", "Prope", "Ante",
              "A Orient", "A Occident", "A Meridie", "A Circio")
_NEIGHBOUR = ("Juxta", "Iuxta", "Conjuncto", "Contigu", "Retro",
              "A Orient", "A Occident", "A Meridie", "A Circio",
              "A Una Part", "Ab Opposito")
_CORNER = ("In Angulo", "In Cantono", "In Compito Sive Cantono")
_PARISHES = 8
_SEGMENT_SPACING = 60.0


class _Street:
    def __init__(self, sid: str, horizontal: bool, origin: tuple[float, float],
                 segments: int) -> None:
        self.id = sid
        self.horizontal = horizontal
        self.origin = origin
        self.points = [self.at(i * _SEGMENT_SPACING) for i in range(segments)]
        self.length = _SEGMENT_SPACING * (segments - 1) + 20.0
        self.crossings: list[str] = []  # ids of the streets it crosses

    def at(self, along: float) -> tuple[float, float]:
        x, y = self.origin
        return (x + along, y) if self.horizontal else (x, y + along)

    def nearest_segment(self, point: tuple[float, float]) -> int:
        along = point[0] - self.origin[0] if self.horizontal else (
            point[1] - self.origin[1])
        pos = round(along / _SEGMENT_SPACING)
        return min(max(pos, 0), len(self.points) - 1)


def _fmt(value: float) -> str:
    return repr(round(value, 2))


def generate(scale: float, seed: int) -> dict[str, list[tuple]]:
    """Rows of objects.csv, segments.csv and relations.csv, headers first.

    The counts of every object class depend on ``scale`` only; ``seed``
    moves positions, confront targets and raw types.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = random.Random(seed)
    n_props = max(120, round(2650 * scale))
    n_streets = max(16, round(360 * scale))
    width = 2100.0 * math.sqrt(max(scale, 0.05))

    objects: list[tuple] = []
    segments: list[tuple] = []
    relations: list[tuple] = []

    def add_object(oid: str, kind: str, dim: str, coord=None, length=None,
                   parish="", walls=None, declared="") -> None:
        x, y = ("", "") if coord is None else (_fmt(coord[0]), _fmt(coord[1]))
        objects.append((oid, f"{kind.lower()} {oid}", kind, dim, x, y,
                        "" if length is None else _fmt(length), parish,
                        "" if walls is None else ("true" if walls else "false"),
                        declared))

    def add_relation(source: str, target: str, raw: str,
                     origin: str = "Primary", segment: str = "") -> None:
        relations.append((f"r{len(relations):06d}", source, target, raw,
                          origin, segment))

    parishes = [f"par{i}" for i in range(_PARISHES)]
    for pid in parishes:
        add_object(pid, "ParishOrSector", "Surface")
    add_object("bor0", "Borough", "Surface")
    liveries = [f"liv{i}" for i in range(3)]
    for lid in liveries:
        add_object(lid, "Livery", "Surface")
    add_object("river", "GeologicalLandmark", "Linear")
    centre = (width / 2, width / 2)
    radius = width * 0.35

    def parish_of(point: tuple[float, float]) -> str:
        angle = math.atan2(point[1] - centre[1], point[0] - centre[0])
        return parishes[int((angle + math.pi) / (2 * math.pi) * _PARISHES)
                        % _PARISHES]

    def inside_walls(point: tuple[float, float]) -> bool:
        return math.dist(point, centre) < radius

    # The old walls: a non-street linear object with segments on a circle.
    wall_points = [(centre[0] + radius * math.cos(2 * math.pi * i / 12),
                    centre[1] + radius * math.sin(2 * math.pi * i / 12))
                   for i in range(12)]
    add_object("walls", "DefensiveSystem", "Linear")
    for order, point in enumerate(wall_points):
        segments.append(("walls", f"w{order}", order, _fmt(point[0]),
                         _fmt(point[1])))
    gates = [f"gate{i}" for i in range(4)]
    for i, gid in enumerate(gates):
        point = wall_points[3 * i]
        add_object(gid, "Gate", "Punctual", coord=point)
        add_relation(gid, "walls", "In", segment=f"w{3 * i}")

    # Segmented linear streets on a lattice, 2-8 segments each.
    streets: list[_Street] = []
    for i in range(n_streets):
        n_seg = rng.randint(2, 8)
        span = _SEGMENT_SPACING * (n_seg - 1)
        origin = (rng.uniform(0, width - span), rng.uniform(0, width))
        if i % 2:
            origin = (origin[1], origin[0])
        street = _Street(f"st{i:04d}", horizontal=i % 2 == 0, origin=origin,
                         segments=n_seg)
        streets.append(street)
        add_object(street.id, "Street", "Linear", coord=street.points[0],
                   length=street.length + rng.uniform(0.0, 0.5),
                   parish=parish_of(street.points[0]))
        for order, point in enumerate(street.points):
            segments.append((street.id, f"s{order}", order, _fmt(point[0]),
                             _fmt(point[1])))
    by_id = {s.id: s for s in streets}
    for h in streets[0::2]:
        x0, x1 = h.points[0][0], h.points[-1][0]
        for v in streets[1::2]:
            y0, y1 = v.points[0][1], v.points[-1][1]
            vx, hy = v.points[0][0], h.points[0][1]
            if x0 - 30 <= vx <= x1 + 30 and y0 - 30 <= hy <= y1 + 30:
                h.crossings.append(v.id)
                v.crossings.append(h.id)
    # Short segmentless streets (kept whole by every split method; always
    # shorter than any segmented street, so never among the top k) and
    # punctual squares.
    stubs = [f"lane{i:03d}" for i in range(max(2, n_streets // 30))]
    for lid in stubs:
        add_object(lid, "Street", "Linear",
                   coord=(rng.uniform(0, width), rng.uniform(0, width)),
                   length=rng.uniform(10.0, 40.0))
    squares = [f"sq{i:03d}" for i in range(max(2, n_streets // 40))]
    for qid in squares:
        add_object(qid, "Street", "Punctual",
                   coord=(rng.uniform(0, width), rng.uniform(0, width)))
    edifices = [f"ed{i:03d}" for i in range(max(2, n_streets // 15))]
    edifice_street = {}
    for eid in edifices:
        street = rng.choice(streets)
        edifice_street[eid] = street.id
        add_object(eid, "Edifice", "Punctual",
                   coord=rng.choice(street.points))

    # Properties along the streets, one to three confronts each.
    props: list[str] = []
    on_street: dict[str, list[str]] = {}
    coord_of: dict[str, tuple[float, float]] = {}
    for i in range(n_props):
        pid = f"p{i:05d}"
        street = rng.choice(streets)
        seg = rng.randrange(len(street.points))
        base = street.points[seg]
        off = rng.choice((-1, 1)) * rng.uniform(5.0, 20.0)
        jitter = rng.uniform(-25.0, 25.0)
        point = ((base[0] + jitter, base[1] + off) if street.horizontal
                 else (base[0] + off, base[1] + jitter))
        located = rng.random() < 0.93
        add_object(pid, "Property", "Punctual",
                   coord=point if located else None,
                   parish=parish_of(point) if rng.random() < 0.95 else "",
                   walls=inside_walls(point) if rng.random() < 0.9 else None,
                   declared="true" if rng.random() < 0.9 else "false")
        props.append(pid)
        coord_of[pid] = point
        wanted = rng.choice((1, 2, 2, 3, 3, 3))
        bound = f"s{seg}" if rng.random() < 0.8 else ""
        add_relation(pid, street.id, rng.choice(_TO_STREET), segment=bound)
        neighbours = on_street.setdefault(street.id, [])
        for _ in range(wanted - 1):
            roll = rng.random()
            if roll < 0.5 and neighbours:
                add_relation(pid, rng.choice(neighbours[-4:]),
                             rng.choice(_NEIGHBOUR))
            elif roll < 0.75 and street.crossings:
                other = rng.choice(street.crossings)
                near = by_id[other].nearest_segment(point)
                add_relation(pid, other, rng.choice(_CORNER),
                             segment=f"s{near}")
            elif roll < 0.85:
                add_relation(pid, parish_of(point), rng.choice(("In", "Intra")))
            elif roll < 0.87:
                add_relation(pid, "bor0", "Extra")
            elif roll < 0.89:
                add_relation(pid, rng.choice(liveries), "In")
            elif roll < 0.91:
                add_relation(pid, "walls", "Juxta",
                             segment=f"w{rng.randrange(len(wall_points))}")
            elif roll < 0.92:
                add_relation(pid, "river", "Juxta")
            elif roll < 0.97:
                add_relation(pid, rng.choice(stubs + squares),
                             rng.choice(_TO_STREET))
            else:
                add_relation(pid, rng.choice(edifices), "Ab Opposito")
        neighbours.append(pid)

    # Egal duplicate records: a second, thinner record of a property that
    # carries one confront of its own.
    for i, pid in enumerate(rng.sample(props, max(2, n_props // 50))):
        dup = f"{pid}d"
        add_object(dup, "Property", "Punctual",
                   coord=None if i % 2 else coord_of[pid])
        add_relation(dup, rng.choice(props), rng.choice(_NEIGHBOUR))
        add_relation(dup, pid, "Egal")

    # Satellite groups: chains of 3-8 properties far outside the town,
    # confronting only each other.
    for g in range(max(2, n_props // 150)):
        size = rng.randint(3, 8)
        corner = (width * 1.5 + rng.uniform(0, 300), rng.uniform(0, width))
        members = [f"sat{g:03d}_{j}" for j in range(size)]
        for j, sid in enumerate(members):
            add_object(sid, "Property", "Punctual",
                       coord=(corner[0] + 15.0 * j, corner[1]))
            if j:
                add_relation(sid, members[j - 1], rng.choice(_NEIGHBOUR))

    # Additional pairs at the crossings, and edifice-street adjacencies.
    crossing_pairs = [(v.id, h_id, by_id[h_id].nearest_segment(v.points[0]))
                      for v in streets for h_id in v.crossings]
    rng.shuffle(crossing_pairs)
    for v_id, h_id, seg in crossing_pairs[:max(8, round(300 * scale))]:
        add_relation(v_id, h_id, "Juxta", origin="Additional",
                     segment=f"s{seg}" if rng.random() < 0.5 else "")
    for eid, sid in edifice_street.items():
        add_relation(eid, sid, "Prope", origin="Additional")
    add_object("lost0", "Property", "Punctual")  # never confronted

    return {"objects": [OBJECT_HEADER] + objects,
            "segments": [SEGMENT_HEADER] + segments,
            "relations": [RELATION_HEADER] + relations}


def write_register(out: Path, scale: float, seed: int) -> dict[str, Path]:
    """Write objects.csv, segments.csv and relations.csv into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rows in generate(scale, seed).items():
        path = out / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        paths[name] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_register(args.out, args.scale, args.seed)


if __name__ == "__main__":
    main()
