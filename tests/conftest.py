"""Shared builders: quick graphs, quick databases, and the randomized
synthetic database generator used by the pipeline invariant suite; the
per-statistic views of a graph's hops that the oracles compare against;
the coverage baseline of a register; and a fixture that counts calls."""

from __future__ import annotations

import math
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from confront_net import metrics
from confront_net.data_model import (Database, Dimensionality, ObjectKind,
                                     RelationOrigin, RelationRecord, Segment,
                                     SpatialObject)
from confront_net.extract import build_full_graph
from confront_net.graph import ConfrontGraph, Edge, EdgeOrigin, Vertex
from confront_net.normalize import merge_equal_objects
from confront_net.relation_types import NormalizedType

# On a failing example, hypothesis' pytest plugin imports its patch
# writer; under -W error the DeprecationWarning of that import (libcst's
# use of mypy_extensions.TypedDict) turns into a pytest INTERNALERROR that
# hides the falsifying example. Importing it once here, with that warning
# ignored, keeps the report. An ini filterwarnings entry cannot: -W error
# on the command line overrides it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` wraps `module.name` for the test and
    returns the list it appends each call's first argument to."""
    def count(module, name: str) -> list:
        calls: list = []
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return count


def property_baseline(db: Database) -> int:
    """The coverage denominator: the property count of the full graph of
    the merged register, as the commands compute it."""
    return build_full_graph(merge_equal_objects(db)).property_count()


def generated_register(root: Path) -> list[Path]:
    """The objects, relations and segments CSVs of the benchmark's
    generated register at its smallest scale, written into `root`."""
    generator = Path(__file__).resolve().parents[1] / "perfbench"
    subprocess.run([sys.executable, str(generator / "register.py"),
                    "--scale", "0.04", "--seed", "0", "--out", str(root)],
                   check=True, capture_output=True)
    return [root / f"{name}.csv"
            for name in ("objects", "relations", "segments")]


def make_vertex(vid: str, coord=None, kind=ObjectKind.PROPERTY,
                dim=Dimensionality.PUNCTUAL, parish=None, walls=None,
                source_object=None, source_segment=None) -> Vertex:
    return Vertex(id=vid, kind=kind, dim=dim, coord=coord,
                  parish=parish, inside_old_walls=walls,
                  source_object=source_object or vid,
                  source_segment=source_segment)


def make_graph(edge_list, n=None, coords=None) -> ConfrontGraph:
    """Graph over vertices v0..v{n-1} with RelatedTo edges (i, j)."""
    if n is None:
        n = max((max(i, j) for i, j in edge_list), default=-1) + 1
    coords = coords or {}
    vertices = [make_vertex(f"v{i}", coord=coords.get(i)) for i in range(n)]
    edges = [Edge(f"v{i}", f"v{j}", NormalizedType.RELATED_TO)
             for i, j in edge_list]
    return ConfrontGraph(vertices, edges)


def float_hops(hops: np.ndarray) -> np.ndarray:
    """Integer hops as float64, the unreachable mark as inf."""
    out = hops.astype(np.float64)
    out[hops == np.iinfo(hops.dtype).max] = math.inf
    return out


def hop_matrix(g: ConfrontGraph) -> np.ndarray:
    """The (n, n) hops of `g` in vertex order, float64, inf when
    unreachable."""
    return float_hops(metrics.all_pairs_graph_distance(g))


def finite_diameter(g: ConfrontGraph) -> int:
    """d_max over every pair; NoFinitePairs when none is connected."""
    return metrics._finite_max(metrics.pair_distances(g).histogram)


def harmonic_mean_distance(g: ConfrontGraph) -> float:
    """P / sum(1/d) over the P unordered pairs, disconnected pairs
    contributing zero reciprocal; inf when nothing is connected."""
    return metrics._harmonic_mean(metrics.pair_distances(g).histogram)


def spearman_distance_correlation(g: ConfrontGraph) -> float:
    """rho_d over the pairs of located vertices (at least two)."""
    return metrics.rank_correlation(*metrics.pair_distances(g).located)


def random_graph(rng: random.Random, max_n: int = 50,
                 with_coords: bool = False) -> ConfrontGraph:
    n = rng.randint(2, max_n)
    p = rng.uniform(0.02, 0.2)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    coords = None
    if with_coords:
        coords = {i: (rng.uniform(0, 1000), rng.uniform(0, 1000))
                  for i in range(n) if rng.random() < 0.9}
    return make_graph(edges, n=n, coords=coords)


_PROXIMITY = ("Juxta", "Iuxta", "Prope", "Proxime", "Conjuncto", "Contigu",
              "Ab Opposito", "Retro", "Ante", "Super", "Subtus", "Ad")
_CARDINAL = ("A Orient", "A Occident", "A Meridie", "A Circio")
_TO_STREET = ("Juxta", "In Angulo", "In Capite", "In Introytu", "A Orient",
              "Prope")


def synthetic_database(seed: int) -> Database:
    """A register-shaped random database.

    Structure: a well-connected core of properties confronting streets
    and each other, hierarchical membership links into parishes and a
    borough, a couple of equality-linked duplicate records, a handful of
    street-street/edifice-street adjacency relations, and a few
    satellite property pairs that form tiny disconnected components.
    Every linear street except the deliberately shortest one carries
    segments, so top-k splitting is always possible for k below the
    street count.
    """
    rng = random.Random(seed)
    objects: list[SpatialObject] = []
    relations: list[RelationRecord] = []

    parishes = [f"par{i}" for i in range(rng.randint(2, 3))]
    for pid in parishes:
        objects.append(SpatialObject(pid, f"parish {pid}",
                                     ObjectKind.PARISH_OR_SECTOR,
                                     Dimensionality.SURFACE))
    objects.append(SpatialObject("bor0", "borough", ObjectKind.BOROUGH,
                                 Dimensionality.SURFACE))

    n_streets = rng.randint(5, 9)
    street_ids = []
    for i in range(n_streets):
        sid = f"st{i:02d}"
        street_ids.append(sid)
        if i == 0:
            # Shortest street, no segments: exercises the keep-whole
            # fallback without ever landing in a top-k split.
            objects.append(SpatialObject(
                sid, f"street {i}", ObjectKind.STREET, Dimensionality.LINEAR,
                coord=(rng.uniform(0, 900), rng.uniform(0, 900)),
                length_m=1.0))
            continue
        dim = Dimensionality.PUNCTUAL if rng.random() < 0.25 else Dimensionality.LINEAR
        if dim is Dimensionality.PUNCTUAL:
            objects.append(SpatialObject(
                sid, f"street {i}", ObjectKind.STREET, dim,
                coord=(rng.uniform(0, 900), rng.uniform(0, 900))))
            continue
        base = (rng.uniform(0, 800), rng.uniform(0, 800))
        segments = tuple(
            Segment(f"s{j}", (base[0] + 40.0 * j, base[1] + rng.uniform(-5, 5)))
            for j in range(rng.randint(2, 4)))
        objects.append(SpatialObject(
            sid, f"street {i}", ObjectKind.STREET, dim, coord=base,
            length_m=float(rng.choice((80, 120, 120, 200, 350))),
            segments=segments))

    n_edifices = rng.randint(1, 3)
    for i in range(n_edifices):
        objects.append(SpatialObject(
            f"ed{i}", f"edifice {i}", ObjectKind.EDIFICE,
            Dimensionality.PUNCTUAL,
            coord=(rng.uniform(0, 900), rng.uniform(0, 900))))

    n_core = rng.randint(25, 40)
    core_props = []
    for i in range(n_core):
        pid = f"prop{i:03d}"
        core_props.append(pid)
        coord = ((rng.uniform(0, 1000), rng.uniform(0, 1000))
                 if rng.random() < 0.9 else None)
        objects.append(SpatialObject(
            pid, f"declared property {i}", ObjectKind.PROPERTY,
            Dimensionality.PUNCTUAL, coord=coord,
            parish=rng.choice(parishes),
            inside_old_walls=rng.choice((True, False, None)),
            declared=rng.random() < 0.9))

    rel_id = 0

    def add(source: str, target: str, raw: str,
            origin: RelationOrigin = RelationOrigin.PRIMARY,
            target_segment: str | None = None) -> None:
        nonlocal rel_id
        relations.append(RelationRecord(
            f"r{rel_id:04d}", source, target, raw, origin, target_segment))
        rel_id += 1

    segmented = {o.id: o for o in objects if o.segments}
    for pos, pid in enumerate(core_props):
        n_rel = rng.randint(1, 4)
        for _ in range(n_rel):
            roll = rng.random()
            if roll < 0.45 and pos > 0:
                other = rng.choice(core_props[:pos])
                if other != pid:
                    add(pid, other, rng.choice(_PROXIMITY + _CARDINAL))
            elif roll < 0.8:
                sid = rng.choice(street_ids)
                binding = None
                if sid in segmented and rng.random() < 0.4:
                    binding = rng.choice(segmented[sid].segments).id
                add(pid, sid, rng.choice(_TO_STREET),
                    target_segment=binding)
            elif roll < 0.9:
                add(pid, rng.choice(parishes), rng.choice(("In", "Intra")))
            else:
                add(pid, "bor0", rng.choice(("In", "Extra")))

    # Duplicate records of one street and one property, tied with Egal.
    if rng.random() < 0.8:
        dup = f"st{n_streets:02d}"
        original = rng.choice([s for s in street_ids
                               if s in segmented] or street_ids[:1])
        objects.append(SpatialObject(dup, "street duplicate",
                                     ObjectKind.STREET,
                                     Dimensionality.PUNCTUAL))
        add(rng.choice(core_props), dup, "Juxta")
        add(dup, original, "Egal")
    if len(core_props) > 4 and rng.random() < 0.8:
        a, b = core_props[0], core_props[1]
        add(a, b, "Egal")

    for _ in range(rng.randint(2, 5)):
        a, b = rng.sample(street_ids, 2)
        add(a, b, "Juxta", origin=RelationOrigin.ADDITIONAL)
    for i in range(n_edifices):
        sid = rng.choice(street_ids)
        add(f"ed{i}", sid, "Prope", origin=RelationOrigin.ADDITIONAL)
        if rng.random() < 0.5:
            add(rng.choice(core_props), f"ed{i}", "Juxta")

    # Satellites: tiny components the size filter should eat.
    for s in range(rng.randint(1, 3)):
        a = f"sat{s}a"
        b = f"sat{s}b"
        for oid in (a, b):
            objects.append(SpatialObject(
                oid, f"remote property {oid}", ObjectKind.PROPERTY,
                Dimensionality.PUNCTUAL,
                coord=(rng.uniform(2000, 3000), rng.uniform(2000, 3000))))
        add(a, b, rng.choice(_PROXIMITY))

    # One fully isolated object: never becomes a vertex.
    objects.append(SpatialObject("lost0", "unreferenced property",
                                 ObjectKind.PROPERTY,
                                 Dimensionality.PUNCTUAL))
    return Database.from_parts(objects, relations)


def egal_heavy(seed: int) -> Database:
    """The seed's database plus eight random same-kind equalities."""
    db = synthetic_database(seed)
    rnd = random.Random(seed)
    by_kind: dict[str, list[str]] = {}
    for obj in db.objects.values():
        by_kind.setdefault(obj.kind.value, []).append(obj.id)
    kinds = sorted(k for k, ids in by_kind.items() if len(ids) > 1)
    extra = []
    for n in range(8):
        a, b = rnd.sample(by_kind[rnd.choice(kinds)], 2)
        extra.append(RelationRecord(f"eq{n}", a, b, "Egal"))
    return Database.from_parts(db.objects.values(),
                               db.relations + tuple(extra))


def segment_clash_database() -> Database:
    """A punctual street `st#s0` whose id is the vertex id of the first
    segment of street `st`; both are confronted."""
    return Database.from_parts(
        [SpatialObject("p", "property p", ObjectKind.PROPERTY,
                       Dimensionality.PUNCTUAL),
         SpatialObject("st#s0", "street st#s0", ObjectKind.STREET,
                       Dimensionality.PUNCTUAL),
         SpatialObject("st", "street st", ObjectKind.STREET,
                       Dimensionality.LINEAR, length_m=100.0,
                       segments=(Segment("s0"), Segment("s1")))],
        [RelationRecord("r1", "p", "st", "Juxta", target_segment="s1"),
         RelationRecord("r2", "p", "st#s0", "Juxta")])
