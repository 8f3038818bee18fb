"""The result tables do not depend on the order of the register's records.

The rows of the objects, relations and segments CSVs, and the objects and
relations arrays of the JSON form, are put in a random order; `stats
--all --k K` and `sweep --base EFS` must write the same tables (the
manifest line aside: it hashes the input files). K is 7 on the generated
register and 3 on the synthetic ones, most of which have fewer than 7
streets to split. A JSON object's `segments` array is its chain, not a
record order, so it stays.

Named exceptions, each tested as one below:
- relations that collapse into one edge (the same source, target and
  normalized type after the Egal merge) and bind different segments:
  the first one's binding wins, so their file order counts;
- two segments of one object with the same `order`: file order breaks
  the tie;
- the outputs that list vertices (graph files, distance profiles and
  the communities outputs) follow the vertex order, which follows the
  register.
"""

import csv
import json
import random

import pytest

from conftest import generated_register, synthetic_database
from register_writer import save_database
from confront_net.cli import CACHE_SUFFIX, main
from confront_net.data_model import (_OBJECT_HEADER, _RELATION_HEADER,
                                     _SEGMENT_HEADER, load_database)
from confront_net.serialize import read_cache

#: Seeds 51 and 60 hold relations of the first exception.
SEEDS = (0, 1, 2, 3, 51, 60)
PERMUTATIONS = 2


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def db_args(files):
    names = ("--objects", "--relations", "--segments")
    return [arg for name, path in zip(names, files) for arg in (name, path)]


def read_records(path):
    """The header (None for JSON) and the records of a register file."""
    if path.suffix == ".json":
        return None, json.loads(path.read_text())
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def write_records(path, header, records):
    if header is None:
        path.write_text(json.dumps(records))
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def tied_relations(relations):
    """The relations that bind one pair of objects, after the Egal
    merge, to more than one segment: their file order decides which
    binding wins."""
    lead: dict[str, str] = {}

    def find(oid):
        while lead.get(oid, oid) != oid:
            oid = lead[oid]
        return oid

    for rel in relations:
        if rel["raw_type"] == "Egal":
            a, b = sorted((find(rel["source_id"]), find(rel["target_id"])))
            if a != b:
                lead[b] = a
    bound: dict[tuple[str, str], set[str]] = {}
    for rel in relations:
        if rel["target_segment"]:
            pair = find(rel["source_id"]), find(rel["target_id"])
            bound.setdefault(pair, set()).add(rel["target_segment"])
    return [rel for rel in relations if rel["target_segment"] and len(
        bound[find(rel["source_id"]), find(rel["target_id"])]) > 1]


def permute(files, out_dir, rng):
    """The register's files with their records in a random order; tied
    relations keep their file order among themselves."""
    out_dir.mkdir()
    permuted = []
    for path in files:
        header, records = read_records(path)
        order = records[:]
        rng.shuffle(order)
        if path.stem == "relations":
            tied = tied_relations(records)
            keep = {id(rel) for rel in tied}
            in_file_order = iter(tied)
            order = [next(in_file_order) if id(rel) in keep else rel
                     for rel in order]
        write_records(out_dir / path.name, header, order)
        permuted.append(out_dir / path.name)
    return permuted


def result_tables(capsys, files, out_dir, k):
    """The stats and sweep tables without their manifest lines, and
    what each command printed."""
    out_dir.mkdir()
    results = []
    for argv in (["stats", "--all", "--k", k], ["sweep", "--base", "EFS"]):
        table = out_dir / f"{argv[0]}.csv"
        code, out, err = run(capsys, *argv, *db_args(files), "--out", table)
        assert code == 0, err
        manifest, body = table.read_text().split("\n", 1)
        assert manifest.startswith("# manifest: ")
        results.append((body, out, err))
    return results


def assert_order_free(capsys, tmp_path, files, seed, k):
    expected = result_tables(capsys, files, tmp_path / "tables", k)
    for p in range(PERMUTATIONS):
        permuted = permute(files, tmp_path / f"permuted{p}",
                           random.Random(f"{seed}-{p}"))
        assert result_tables(capsys, permuted, tmp_path / f"tables{p}",
                             k) == expected, p


def synthetic_files(root, seed, form):
    root.mkdir()
    names = ("objects", "relations", "segments")[:3 if form == "csv" else 2]
    files = [root / f"{name}.{form}" for name in names]
    save_database(synthetic_database(seed), *files)
    return files


@pytest.mark.parametrize("form", ["csv", "json"])
@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_tables_ignore_record_order(capsys, tmp_path, seed, form):
    files = synthetic_files(tmp_path / "register", seed, form)
    assert_order_free(capsys, tmp_path, files, seed, 3)


@pytest.mark.parametrize("form", ["csv", "json"])
def test_generated_register_tables_ignore_record_order(capsys, tmp_path,
                                                       form):
    (tmp_path / "register").mkdir()
    files = generated_register(tmp_path / "register")
    if form == "json":
        json_files = [tmp_path / "register" / f"{name}.json"
                      for name in ("objects", "relations")]
        save_database(load_database(*files), *json_files)
        files = json_files
    assert_order_free(capsys, tmp_path, files, "generated", 7)


def test_the_tied_seeds_hold_tied_relations(tmp_path):
    for seed in (51, 60):
        files = synthetic_files(tmp_path / str(seed), seed, "csv")
        assert tied_relations(read_records(files[1])[1]), seed


# --- the exceptions -------------------------------------------------------

def write_register(root, objects, relations, segments):
    root.mkdir()
    files = [root / f"{name}.csv"
             for name in ("objects", "relations", "segments")]
    for path, header, rows in zip(
            files, (_OBJECT_HEADER, _RELATION_HEADER, _SEGMENT_HEADER),
            (objects, relations, segments)):
        path.write_text("\n".join([",".join(header), *rows]) + "\n")
    return files


CHAIN = ["st,s0,0,0,0", "st,s1,1,10,0", "st,s2,2,20,0", "st,s3,3,30,0"]
STREET_AND_PROPERTIES = ["st,st,Street,Linear,,,100.0,,,",
                         "p0,p0,Property,Punctual,0,5,,,,",
                         "p1,p1,Property,Punctual,10,5,,,,",
                         "p2,p2,Property,Punctual,20,5,,,,"]


def test_the_first_of_two_conflicting_bindings_wins(capsys, tmp_path):
    # r3 and r4 become one p0 -> st RelatedTo edge, bound to s0 or s1.
    shared = ["r1,p1,st,Juxta,,s1", "r2,p2,st,Juxta,,s2"]
    r3, r4 = "r3,p0,st,Juxta,,s0", "r4,p0,st,Prope,,s1"

    def tables(name, relations):
        files = write_register(tmp_path / name, STREET_AND_PROPERTIES,
                               shared + relations, CHAIN)
        code, out, err = run(capsys, "stats", "--all", "--k", "1",
                             "--threshold", "1", *db_args(files))
        assert (code, err) == (0, "")
        return out

    r3_first = tables("r3-first", [r3, r4])
    r4_first = tables("r4-first", [r4, r3])
    assert r3_first == tables("r3-only", [r3])
    assert r4_first == tables("r4-only", [r4])
    assert r3_first != r4_first


def test_file_order_breaks_a_tie_in_segment_order(capsys, tmp_path):
    # Segments a and b both have order 0; p's unbound edge goes to the
    # first segment of the split street.
    objects = ["st,st,Street,Linear,,,100.0,,,",
               "p,p,Property,Punctual,0,5,,,,",
               "q,q,Property,Punctual,20,5,,,,"]
    relations = ["r1,p,st,Juxta,,", "r2,q,st,Juxta,,c"]
    for first, second in (("a", "b"), ("b", "a")):
        segments = [f"st,{first},0,0,0", f"st,{second},0,10,0",
                    "st,c,1,20,0"]
        files = write_register(tmp_path / first, objects, relations,
                               segments)
        db = load_database(*files)
        assert db.objects["st"].segment_ids() == (first, second, "c")
        code, _, err = run(capsys, "extract", *db_args(files), "--method",
                           "RFS_all", "--threshold", "1", "--out",
                           tmp_path / first / "out")
        assert code == 0, err
        g = read_cache(tmp_path / first / "out" / f"RFS_all{CACHE_SUFFIX}")
        assert ("p", f"st#{first}") in [(e.source, e.target)
                                        for e in g.edges]


def test_vertex_listing_outputs_follow_the_register(capsys, tmp_path):
    files = synthetic_files(tmp_path / "register", 0, "csv")
    permuted = permute(files, tmp_path / "permuted", random.Random(0))
    graphs, profiles = [], []
    for name, register in (("given", files), ("permuted", permuted)):
        out = tmp_path / name
        method = ["--method", "EFS_k", "--k", "7", *db_args(register)]
        for argv in (["extract", *method, "--out", out],
                     ["stats", *method, "--profile", "--out",
                      out / "stats.csv"],
                     ["communities", *method, "--out", out]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        g = read_cache(out / f"EFS_k{CACHE_SUFFIX}")
        graphs.append(g)
        profiles.append([row.split(",") for row in
                         (out / "profile_EFS_k.csv").read_text()
                         .splitlines()[2:]])
        # Vertices come in the order of their objects in the register.
        _, objects = read_records(register[0])
        place = {obj["id"]: pos for pos, obj in enumerate(objects)}
        where = [place[v.source_object] for v in g.vertices.values()]
        assert where == sorted(where)
        partition = (out / "partition.csv").read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in partition] == g.vertex_ids()
    given, shuffled = graphs
    assert given.vertex_ids() != shuffled.vertex_ids()
    assert given != shuffled
    assert dict(given.vertices) == dict(shuffled.vertices)
    assert set(given.edges) == set(shuffled.edges)
    # A profile sums its metres in pair order: its counts are fixed, its
    # means and deviations may differ in the last printed digit.
    expected, got = profiles
    assert [row[:2] for row in got] == [row[:2] for row in expected]
    for row, other in zip(got, expected):
        for a, b in zip(row[2:], other[2:]):
            assert float(a) == pytest.approx(float(b), abs=1.5e-3)
