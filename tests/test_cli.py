"""End-to-end CLI behaviour: exit codes, file outputs, reproducibility.

Exit code contract: 0 success, 1 usage error, 2 data/processing error."""

import gzip
import hashlib
import importlib
import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import elementtree_oracle as oracle
from conftest import (generated_register, make_graph, property_baseline,
                      run_python, segment_clash_database, synthetic_database)
from register_writer import save_database
from confront_net import cli, metrics, normalize
from confront_net.cli import CACHE_SUFFIX, main
from confront_net.extract import METHOD_CODES, ExtractionMethod
from confront_net.graph import ConfrontGraph
from confront_net.serialize import (atomic_write_bytes, cache_bytes,
                                    graphml_bytes, read_cache)

SEED = 0


@pytest.fixture(scope="module")
def db_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("db")
    db = synthetic_database(SEED)
    save_database(db, root / "objects.csv", root / "relations.csv",
                  root / "segments.csv")
    return {
        "db": db,
        "argv": ["--objects", str(root / "objects.csv"),
                 "--relations", str(root / "relations.csv"),
                 "--segments", str(root / "segments.csv")],
    }


def write_cache(g, path):
    atomic_write_bytes(path, cache_bytes(g))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "extract" in out and "communities" in out


def test_no_command_prints_help_and_fails(capsys):
    code, out, _ = run(capsys)
    assert code == 1
    assert "usage" in out.lower()


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "confront-net" in out


def test_unknown_method_is_a_usage_error(capsys, db_files, tmp_path):
    code, _, err = run(capsys, "extract", *db_files["argv"],
                       "--method", "ZZZ_all", "--out", str(tmp_path))
    assert code == 1
    assert "invalid choice" in err


def test_topk_method_without_k_is_a_usage_error(capsys, db_files, tmp_path):
    code, _, err = run(capsys, "extract", *db_files["argv"],
                       "--method", "RFW_k", "--out", str(tmp_path))
    assert code == 1
    assert "--k is required for method RFW_k" in err


def test_all_without_k_is_a_usage_error(capsys, db_files, tmp_path):
    code, _, err = run(capsys, "extract", *db_files["argv"],
                       "--all", "--out", str(tmp_path))
    assert code == 1
    assert "--k is required" in err


def test_missing_input_file_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "extract",
                       "--objects", str(tmp_path / "none.csv"),
                       "--relations", str(tmp_path / "none2.csv"),
                       "--method", "RFW_all", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", ["objects", "relations"])
def test_json_record_that_is_not_an_object_is_a_data_error(capsys, tmp_path,
                                                          bad):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("objects", "relations")}
    for name, path in paths.items():
        path.write_text('[["a"]]' if name == bad else "[]")
    code, _, err = run(capsys, "extract",
                       "--objects", str(paths["objects"]),
                       "--relations", str(paths["relations"]),
                       "--method", "RFW_all", "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:")
    assert "not a JSON object" in err and str(paths[bad]) in err


def test_extract_single_method(capsys, db_files, tmp_path):
    code, out, err = run(capsys, "extract", *db_files["argv"],
                         "--method", "RFS_all", "--threshold", "4",
                         "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("RFS_all: n=")
    assert (tmp_path / "RFS_all.graphml").exists()
    assert (tmp_path / f"RFS_all{CACHE_SUFFIX}").exists()
    assert (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "stats.csv").exists()
    assert "data warnings" in err  # the generator leaves an isolate


def test_extract_gexf_format(capsys, db_files, tmp_path):
    code, _, _ = run(capsys, "extract", *db_files["argv"],
                     "--method", "RHW_all", "--threshold", "4",
                     "--format", "gexf", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "RHW_all.gexf").exists()


def extract_all(capsys, db_files, out_dir, *extra):
    return run(capsys, "extract", *db_files["argv"], "--all", "--k", "1",
               "--threshold", "4", "--out", str(out_dir), *extra)


def test_extract_all_gexf_matches_the_oracle(capsys, db_files, tmp_path):
    code, _, _ = extract_all(capsys, db_files, tmp_path, "--format", "gexf")
    assert code == 0
    written = sorted(tmp_path.glob("*.gexf"))
    assert [path.stem for path in written] == sorted(METHOD_CODES)
    for path in written:
        cache = tmp_path / f"{path.stem}{CACHE_SUFFIX}"
        manifest = json.loads(gzip.decompress(cache.read_bytes()))["manifest"]
        data = path.read_bytes()
        assert ET.fromstring(data).tag == "{http://gexf.net/1.3}gexf"
        assert data == oracle.gexf_bytes(read_cache(cache), manifest)


def test_extract_all_produces_every_artifact(capsys, db_files, tmp_path):
    code, out, _ = extract_all(capsys, db_files, tmp_path)
    assert code == 0
    for method in METHOD_CODES:
        assert (tmp_path / f"{method}.graphml").exists()
        assert (tmp_path / f"{method}{CACHE_SUFFIX}").exists()
        assert f"{method}: n=" in out
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert stats[0].startswith("# manifest: ")
    assert stats[1] == ("method,n,m,delta,properties,coverage,components,"
                       "d_max,d_harm,rho_d")
    assert stats[2].startswith("full,")
    assert len(stats) == 2 + 1 + 16


def test_extract_all_reruns_byte_identically(capsys, db_files, tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert extract_all(capsys, db_files, first)[0] == 0
    assert extract_all(capsys, db_files, second)[0] == 0
    for path in sorted(first.iterdir()):
        twin = second / path.name
        if path.name == "manifest.json":
            a = json.loads(path.read_text())
            b = json.loads(twin.read_text())
            a.pop("created"), b.pop("created")
            assert a == b
        else:
            assert path.read_bytes() == twin.read_bytes(), path.name


def test_extract_all_coverage_is_over_the_full_graph(capsys, db_files,
                                                     tmp_path):
    """Each row's coverage is its property count over the full graph's,
    the full row's own included."""
    assert extract_all(capsys, db_files, tmp_path)[0] == 0
    rows = [line.split(",") for line in
            (tmp_path / "stats.csv").read_text().splitlines()[2:]]
    assert rows[0][0] == "full" and rows[0][5] == "100.00"
    baseline = int(rows[0][4])
    assert baseline == property_baseline(db_files["db"])
    for row in rows[1:]:
        assert row[5] == f"{100.0 * (int(row[4]) / baseline):.2f}", row[0]


@pytest.fixture(scope="module")
def avignon_shaped_files(tmp_path_factory):
    """The benchmark's generated register at its smallest scale, where
    RHS_all equals RFS_all and EHS_all equals EFS_all."""
    paths = generated_register(tmp_path_factory.mktemp("register"))
    return [f"--{path.stem}={path}" for path in paths]


def measure_each(monkeypatch):
    """Make `cli._measure` measure every graph on its own, reusing no
    earlier result."""
    real = cli._measure
    monkeypatch.setattr(cli, "_measure", lambda labels, graphs, *args: [
        result for label, g in zip(labels, graphs)
        for result in real([label], [g], *args)])


def test_measure_reuses_a_result_only_for_an_equal_graph(count_calls):
    """A graph with the vertices and edges of an earlier one, in the same
    order, takes over its result whatever its method; the same vertices
    in another order are measured again."""
    g = make_graph([(0, 1), (1, 2)],
                   coords={i: (float(i), 0.0) for i in range(3)})
    labelled = ConfrontGraph(g.vertices.values(), g.edges,
                             method=ExtractionMethod.from_code("EFS_all"))
    reordered = ConfrontGraph(reversed(list(g.vertices.values())), g.edges)
    measured = count_calls(cli, "measure")
    results = cli._measure(["g", "labelled", "reordered"],
                           [g, labelled, reordered], None, True)
    assert [id(graph) for graph in measured] == [id(g), id(reordered)]
    assert results[1] is results[0]
    assert results[2] is not results[0]


def test_extract_all_summarizes_equal_variants_once(
        capsys, monkeypatch, count_calls, avignon_shaped_files, tmp_path):
    """`extract --all` summarizes 15 of its 17 graphs and reuses the rows
    of the two equal variants; stats.csv keeps every byte of a run that
    summarizes each graph."""
    calls = count_calls(cli, "measure")
    argv = ["extract", *avignon_shaped_files, "--all", "--k", "7", "--out"]
    assert run(capsys, *argv, str(tmp_path / "reused"))[0] == 0
    assert len(calls) == 15
    measure_each(monkeypatch)
    assert run(capsys, *argv, str(tmp_path / "each"))[0] == 0
    assert len(calls) == 15 + 17
    assert ((tmp_path / "reused" / "stats.csv").read_bytes()
            == (tmp_path / "each" / "stats.csv").read_bytes())


def test_stats_all_profiles_equal_variants_once(
        capsys, monkeypatch, count_calls, avignon_shaped_files, tmp_path):
    """`stats --all --profile` reuses the row and the profile of an equal
    earlier variant; every file keeps its bytes."""
    calls = count_calls(metrics, "distance_profile")
    outputs = {}
    for name in ("reused", "each"):
        if name == "each":
            measure_each(monkeypatch)
        out = tmp_path / name / "stats.csv"
        out.parent.mkdir()
        assert run(capsys, "stats", *avignon_shaped_files, "--all", "--k",
                   "7", "--out", str(out), "--profile")[0] == 0
        outputs[name] = {path.name: path.read_bytes()
                         for path in out.parent.glob("*.csv")}
    assert len(calls) == 15 + 17
    assert len(outputs["reused"]) == 1 + 17
    assert outputs["reused"] == outputs["each"]


def test_stats_from_cached_graphs(capsys, db_files, tmp_path):
    graphs = tmp_path / "graphs"
    assert extract_all(capsys, db_files, graphs)[0] == 0
    baseline = property_baseline(db_files["db"])
    code, out, _ = run(capsys, "stats", "--graphs", str(graphs),
                       "--baseline", str(baseline))
    assert code == 0
    by_label = {line.split(",")[0]: line for line in out.splitlines()[1:]}
    extract_rows = {
        line.split(",")[0]: line
        for line in (graphs / "stats.csv").read_text().splitlines()[2:]}
    del extract_rows["full"]  # no full graph among the caches
    assert by_label == extract_rows


def test_stats_inline_with_profile(capsys, db_files, tmp_path):
    out_csv = tmp_path / "stats.csv"
    code, _, _ = run(capsys, "stats", *db_files["argv"],
                     "--method", "RFW_all", "--threshold", "4",
                     "--out", str(out_csv), "--profile")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[2].startswith("full,")
    assert lines[3].startswith("RFW_all,")
    assert (tmp_path / "stats.csv.manifest.json").exists()
    profile = (tmp_path / "profile_RFW_all.csv").read_text().splitlines()
    assert profile[1] == "graph_distance,pairs,mean_spatial_m,std_spatial_m"
    assert len(profile) > 2


def test_stats_profile_requires_out(capsys, db_files):
    code, out, err = run(capsys, "stats", *db_files["argv"],
                         "--method", "RFW_all", "--threshold", "4",
                         "--profile")
    assert code == 1
    assert "--profile requires --out" in err
    assert out == ""


def test_stats_requires_some_input(capsys):
    code, _, err = run(capsys, "stats")
    assert code == 1
    assert "--graphs" in err


def test_stats_empty_graph_directory_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "stats", "--graphs", str(tmp_path))
    assert code == 2
    assert CACHE_SUFFIX in err


def test_stats_out_creates_missing_directories(capsys, db_files, tmp_path):
    out_csv = tmp_path / "a" / "b" / "stats.csv"
    code, _, err = run(capsys, "stats", *db_files["argv"],
                       "--method", "RFW_all", "--threshold", "4",
                       "--out", str(out_csv), "--profile")
    assert code == 0, err
    assert out_csv.read_text().splitlines()[3].startswith("RFW_all,")
    assert (out_csv.parent / "stats.csv.manifest.json").exists()
    assert (out_csv.parent / "profile_RFW_all.csv").exists()


def test_stats_profile_warns_about_a_graph_without_located_pairs(
        capsys, tmp_path):
    graphs = tmp_path / "graphs"
    write_cache(make_graph([(0, 1), (1, 2)]),
                graphs / f"bare{CACHE_SUFFIX}")
    write_cache(make_graph([(0, 1), (1, 2)],
                           coords={0: (0.0, 0.0), 1: (1.0, 0.0),
                                   2: (3.0, 0.0)}),
                graphs / f"located{CACHE_SUFFIX}")
    out_csv = tmp_path / "stats.csv"
    code, _, err = run(capsys, "stats", "--graphs", str(graphs),
                       "--out", str(out_csv), "--profile")
    assert code == 0
    assert ("warning: graph 'bare' has fewer than 2 located vertices; "
            "no profile written") in err
    assert "'located'" not in err
    assert sorted(p.name for p in tmp_path.glob("profile_*.csv")) == [
        "profile_located.csv"]


def test_sweep_to_stdout(capsys, db_files):
    code, out, _ = run(capsys, "sweep", *db_files["argv"],
                       "--base", "RFS", "--k-range", "0..2",
                       "--threshold", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,coverage,rho,n,m,components,d_harm"
    assert [line.split(",")[0] for line in lines[1:4]] == ["0", "1", "2"]
    assert lines[4].startswith("selected k=")


def test_sweep_out_creates_missing_directories(capsys, db_files, tmp_path):
    out_csv = tmp_path / "a" / "b" / "sweep.csv"
    code, _, err = run(capsys, "sweep", *db_files["argv"],
                       "--base", "RFS", "--k-range", "0..1",
                       "--threshold", "4", "--out", str(out_csv))
    assert code == 0, err
    assert out_csv.read_text().splitlines()[1] == (
        "k,coverage,rho,n,m,components,d_harm")
    assert (out_csv.parent / "sweep.csv.manifest.json").exists()


def test_sweep_lists_a_k_that_empties_the_graph(capsys, tmp_path):
    # synthetic_database(22) keeps no RFW_k component of 25 from k=4 on.
    save_database(synthetic_database(22), tmp_path / "objects.csv",
                  tmp_path / "relations.csv", tmp_path / "segments.csv")
    code, out, _ = run(capsys, "sweep",
                       "--objects", str(tmp_path / "objects.csv"),
                       "--relations", str(tmp_path / "relations.csv"),
                       "--segments", str(tmp_path / "segments.csv"),
                       "--base", "RFW", "--k-range", "0..5")
    assert code == 0
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:7]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]
    assert rows[5][1:] == ["0", "", "0", "0", "0", "0.00"]
    assert lines[7].startswith("selected k=")


@pytest.fixture(scope="module")
def degenerate_files(tmp_path_factory):
    # synthetic_database(22) at k=4 leaves no RFW_k or EFW_k component of 25.
    root = tmp_path_factory.mktemp("degenerate")
    save_database(synthetic_database(22), root / "objects.csv",
                  root / "relations.csv", root / "segments.csv")
    return ["--objects", str(root / "objects.csv"),
            "--relations", str(root / "relations.csv"),
            "--segments", str(root / "segments.csv")]


EMPTY_ROW = ["0", "0", "0.0000", "0", "0.00", "0", "0", "0.00", ""]


def assert_degenerate_rows(rows, err):
    by_label = {row[0]: row[1:] for row in rows}
    assert len(rows) == 17 and list(by_label) == ["full", *METHOD_CODES]
    empty = [code for code in METHOD_CODES if by_label[code][0] == "0"]
    assert empty == ["RFW_k", "EFW_k"]
    for code in empty:
        assert by_label[code] == EMPTY_ROW
        assert f"warning: graph {code!r} is empty; reporting zeros" in err


def test_extract_all_reports_an_empty_variant_as_a_zero_row(
        capsys, degenerate_files, tmp_path):
    code, _, err = run(capsys, "extract", *degenerate_files, "--all",
                       "--k", "4", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "stats.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    assert_degenerate_rows(rows, err)
    for method in METHOD_CODES:
        assert (tmp_path / f"{method}.graphml").exists()
    assert read_cache(tmp_path / f"RFW_k{CACHE_SUFFIX}").n == 0
    baseline = property_baseline(synthetic_database(22))
    code, out, _ = run(capsys, "stats", "--graphs", str(tmp_path),
                       "--baseline", str(baseline))
    assert code == 0
    assert sorted(out.splitlines()[1:]) == sorted(lines[1:])


def test_stats_all_reports_an_empty_variant_as_a_zero_row(
        capsys, degenerate_files):
    code, out, err = run(capsys, "stats", *degenerate_files, "--all",
                         "--k", "4")
    assert code == 0
    assert_degenerate_rows([line.split(",")
                            for line in out.splitlines()[1:]], err)


NOTE = "note: 14 data warnings (re-run with --warnings for details)\n"
EMPTY = ("warning: graph 'RFW_k' is empty; reporting zeros\n"
         "warning: graph 'EFW_k' is empty; reporting zeros\n")
UNLOCATED = ("warning: graph 'RFW_k' has fewer than 2 located vertices; "
             "no profile written\n"
             "warning: graph 'EFW_k' has fewer than 2 located vertices; "
             "no profile written\n")
VARIANT_LINES = [
    "RHW_all: n=39 m=67 components=1", "RFW_all: n=33 m=47 components=1",
    "RFW_streets: n=33 m=47 components=1", "RFW_k: n=0 m=0 components=0",
    "EHW_all: n=39 m=71 components=1", "EFW_all: n=33 m=51 components=1",
    "EFW_streets: n=33 m=51 components=1", "EFW_k: n=0 m=0 components=0",
    "RHS_all: n=34 m=48 components=1", "RFS_all: n=34 m=48 components=1",
    "RFS_streets: n=34 m=48 components=1", "RFS_k: n=34 m=48 components=1",
    "EHS_all: n=34 m=52 components=1", "EFS_all: n=34 m=52 components=1",
    "EFS_streets: n=34 m=52 components=1", "EFS_k: n=34 m=52 components=1"]


def variant_lines(warn_empty):
    """The line `extract --all` prints for each variant, each empty one
    followed by its warning when `warn_empty`."""
    return "".join(
        f"{line}\n" + (f"warning: graph {line.split(':')[0]!r} is empty; "
                       f"reporting zeros\n"
                       if warn_empty and " n=0 " in line else "")
        for line in VARIANT_LINES)


@pytest.mark.parametrize("argv,out,err,merged", [
    (("extract", "--out", "{out}"), variant_lines(False), NOTE + EMPTY,
     NOTE + variant_lines(True)),
    (("stats", "--profile", "--out", "{out}/stats.csv"), "",
     NOTE + UNLOCATED + EMPTY, NOTE + UNLOCATED + EMPTY),
])
def test_all_variants_print_exact_lines_in_order(
        capsys, monkeypatch, degenerate_files, tmp_path, argv, out, err,
        merged):
    """The text and order of what `extract --all` and `stats --all
    --profile` print, each stream alone and both in one."""
    def printed(out_dir):
        return run(capsys, argv[0], *degenerate_files, "--all", "--k", "4",
                   *[a.format(out=out_dir) for a in argv[1:]])

    assert printed(tmp_path / "apart") == (0, out, err)
    monkeypatch.setattr(sys, "stderr", sys.stdout)
    assert printed(tmp_path / "merged") == (0, merged, "")


@pytest.mark.parametrize("command,out", [
    ("extract", ("--out", "{out}")), ("stats", ()),
    ("communities", ("--out", "{out}"))],
    ids=["extract", "stats", "communities"])
def test_single_empty_method_is_a_data_error(capsys, count_calls,
                                             degenerate_files, tmp_path,
                                             command, out):
    """A single --method refuses the empty variant, writing nothing and
    measuring nothing."""
    hop_searches = count_calls(metrics, "all_pairs_graph_distance")
    code, printed, err = run(
        capsys, command, *degenerate_files, "--method", "RFW_k", "--k", "4",
        *[a.format(out=tmp_path / "out") for a in out])
    assert (code, printed) == (2, "")
    assert err == NOTE + "error: no component reaches the size threshold 25\n"
    assert not (tmp_path / "out").exists()
    assert hop_searches == []


@pytest.fixture(scope="module")
def segment_clash_files(tmp_path_factory):
    """The clashing register as CSV and as JSON, each with the file that
    declares the segment: the segments file, or the JSON objects file,
    which holds its segments inline."""
    root = tmp_path_factory.mktemp("segment-clash")
    csv = [root / f"{name}.csv" for name in ("objects", "relations",
                                               "segments")]
    inline = [root / f"{name}.json" for name in ("objects", "relations")]
    save_database(segment_clash_database(), *csv)
    save_database(segment_clash_database(), *inline)
    return {"csv": (["--objects", str(csv[0]), "--relations", str(csv[1]),
                     "--segments", str(csv[2])], csv[2]),
            "json": (["--objects", str(inline[0]),
                      "--relations", str(inline[1])], inline[0])}


SEGMENT_CLASH_COMMANDS = {
    "extract": ("extract", "--method", "RFW_all", "--out", "{out}"),
    "extract-all": ("extract", "--all", "--k", "1", "--out", "{out}"),
    "stats": ("stats", "--method", "RFW_all", "--out", "{out}/stats.csv"),
    "communities": ("communities", "--method", "RFW_all", "--out", "{out}"),
    "sweep": ("sweep", "--base", "RFW", "--out", "{out}/sweep.csv")}


@pytest.mark.parametrize("fmt,argv", [
    pytest.param(fmt, argv, id=name if fmt == "csv" else f"{name}-json")
    for fmt in ("csv", "json")
    for name, argv in SEGMENT_CLASH_COMMANDS.items()])
def test_a_taken_segment_vertex_id_is_a_data_error(
        capsys, segment_clash_files, tmp_path, fmt, argv):
    """Even a method that keeps the street whole refuses the register,
    naming the file that declares the segment."""
    register, declaring = segment_clash_files[fmt]
    out = tmp_path / "out"
    assert run(capsys, argv[0], *register, *(
        a.format(out=out) for a in argv[1:]), "--threshold", "1") == (
        2, "", "error: segment 's0' of object 'st' would have vertex id "
               f"'st#s0', already used by object 'st#s0' [{declaring}]\n")
    assert not out.exists()


def test_a_loader_duplicate_id_names_its_file_once(capsys, tmp_path):
    """A duplicate id the loader finds keeps its one location."""
    save_database(segment_clash_database(), tmp_path / "objects.csv",
                  tmp_path / "relations.csv", tmp_path / "segments.csv")
    objects = tmp_path / "objects.csv"
    lines = objects.read_text().splitlines(keepends=True)
    objects.write_text("".join(lines + lines[1:2]))
    assert run(capsys, "stats", "--objects", str(objects),
               "--relations", str(tmp_path / "relations.csv"),
               "--segments", str(tmp_path / "segments.csv"),
               "--method", "RFW_all") == (
        2, "", f"error: duplicate object id 'p' "
               f"[{objects}:{len(lines) + 1}]\n")


OUT_OF_MEMORY_COMMANDS = {
    "stats-method": ("stats", "--method", "EFS_k", "--k", "1"),
    "stats-all": ("stats", "--all", "--k", "1"),
    "extract-all": ("extract", "--all", "--k", "1", "--out", "{out}"),
    "sweep": ("sweep", "--base", "EFS", "--out", "{out}/sweep.csv"),
    "communities": ("communities", "--method", "RFW_all", "--out", "{out}")}


@pytest.mark.parametrize("argv", OUT_OF_MEMORY_COMMANDS.values(),
                         ids=OUT_OF_MEMORY_COMMANDS)
def test_a_graph_out_of_memory_is_a_data_error(capsys, monkeypatch, db_files,
                                               tmp_path, argv):
    """A MemoryError while measuring a graph exits 2, naming the graph's
    n and located pair count, and its label where the command has one;
    nothing is written and no traceback is printed."""
    measured = []

    def out_of_memory(g, by_hop=False):
        measured.append(g)
        raise MemoryError

    monkeypatch.setattr(metrics, "pair_distances", out_of_memory)
    out = tmp_path / "out"
    code, printed, err = run(capsys, argv[0], *db_files["argv"],
                             *(a.format(out=out) for a in argv[1:]))
    (g,) = measured
    located = sum(v.coord is not None for v in g.vertices.values())
    label = "graph 'full': " if argv[0] in ("stats", "extract") else ""
    assert (code, printed) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: {label}out of memory at n={g.n} with "
        f"{located * (located - 1) // 2} located pairs")
    assert "Traceback" not in err
    assert g.n > 0 and located > 1
    assert not out.exists()


@pytest.mark.parametrize("command,out,printed", [
    ("extract", ("--out", "{out}"), "RFW_k: n=34 m=32 components=9\n"),
    ("stats", (), "method,n,m,delta,properties,coverage,components,d_max,"
                  "d_harm,rho_d\n"
                  "full,41,68,0.0415,31,100.00,2,6,2.76,0.34\n"
                  "RFW_k,34,32,0.0285,31,100.00,9,8,5.00,0.15\n"),
    ("communities", ("--out", "{out}"),
     "communities=13 Q=0.5332 size_gini=0.3756\n"
     "level modularity: 0.5117 -> 0.5332\n")],
    ids=["extract", "stats", "communities"])
def test_single_method_at_threshold_one_keeps_its_small_components(
        capsys, degenerate_files, tmp_path, command, out, printed):
    """At --threshold 1 no variant is refused: the one that keeps no
    component of 25 keeps its nine small ones."""
    assert run(capsys, command, *degenerate_files, "--method", "RFW_k",
               "--k", "4", "--threshold", "1",
               *[a.format(out=tmp_path) for a in out]) == (0, printed, NOTE)


def test_extract_all_writes_an_empty_variant_as_the_empty_graph(
        capsys, degenerate_files, tmp_path):
    """The files of an empty variant are those of the graph with no
    vertex, no edge and no meta, labelled with its method."""
    assert run(capsys, "extract", *degenerate_files, "--all", "--k", "4",
               "--out", str(tmp_path))[0] == 0
    mhash = json.loads(
        (tmp_path / "manifest.json").read_text())["manifest_hash"]
    for code in ("RFW_k", "EFW_k"):
        empty = ConfrontGraph([], [], method=ExtractionMethod.from_code(
            code, k=4))
        assert (tmp_path / f"{code}.graphml").read_bytes() == graphml_bytes(
            empty, mhash)
        assert (tmp_path / f"{code}{CACHE_SUFFIX}").read_bytes() == (
            cache_bytes(empty, mhash))


def test_communities_on_an_empty_cache_names_the_cache(
        capsys, degenerate_files, tmp_path):
    """The empty RFW_k cache that `extract --all` writes is refused by
    `communities --graph` with the cache's name."""
    assert run(capsys, "extract", *degenerate_files, "--all", "--k", "4",
               "--out", str(tmp_path))[0] == 0
    cache = tmp_path / f"RFW_k{CACHE_SUFFIX}"
    assert run(capsys, "communities", "--graph", str(cache),
               "--out", str(tmp_path / "out")) == (
        2, "", f"error: cannot partition an empty graph [{cache}]\n")
    assert not (tmp_path / "out").exists()


# The package root re-exports the function `extract`, which shadows the
# module of that name as an attribute.
EXTRACT = importlib.import_module("confront_net.extract")

MEASURING_COMMANDS = [
    ("extract", "--all", "--k", "1", "--out", "{out}"),
    ("stats", "--all", "--k", "1"),
    ("stats", "--method", "EFS_k", "--k", "1", "--out", "{out}/s.csv",
     "--profile"),
    ("sweep", "--base", "EFS", "--k-range", "0..3"),
    ("communities", "--method", "EFS_k", "--k", "1", "--out", "{out}"),
]


def run_measuring(capsys, db_files, tmp_path, argv):
    argv = [a.format(out=tmp_path) for a in argv]
    assert run(capsys, argv[0], *db_files["argv"], *argv[1:],
               "--threshold", "4")[0] == 0


@pytest.mark.parametrize("argv", MEASURING_COMMANDS)
def test_each_command_builds_the_full_graph_once(capsys, db_files, tmp_path,
                                                 count_calls, argv):
    builds = count_calls(EXTRACT, "build_full_graph")
    run_measuring(capsys, db_files, tmp_path, argv)
    assert len(builds) == 1


@pytest.mark.parametrize("argv", MEASURING_COMMANDS)
def test_each_command_drops_the_hierarchy_once(
        capsys, db_files, tmp_path, count_calls, argv):
    """Every method that drops the hierarchy starts from one
    hierarchy-free copy of the full graph."""
    filters = count_calls(EXTRACT, "filter_hierarchy")
    run_measuring(capsys, db_files, tmp_path, argv)
    assert len(filters) == 1


@pytest.mark.parametrize("argv", MEASURING_COMMANDS)
def test_each_command_groups_equal_records_once(capsys, db_files, tmp_path,
                                                count_calls, argv):
    """The Egal merge is the one grouping of records in a command: the
    coverage baseline comes from the full graph, not from a second one."""
    assert any(r.raw_type == "Egal" for r in db_files["db"].relations)
    groupings = count_calls(normalize, "connected_components")
    run_measuring(capsys, db_files, tmp_path, argv)
    assert len(groupings) == 1


def test_stats_all_measures_each_variant_before_extracting_the_next(
        capsys, db_files, tmp_path, monkeypatch):
    """`stats --all` measures each variant as `extract_each` yields it:
    a variant's hop pass comes before the next variant's
    `handle_nonpunctual`, so no two variants wait to be measured."""
    events = []
    stage = EXTRACT.handle_nonpunctual
    search = metrics.all_pairs_graph_distance

    def staged(g, db, method):
        events.append(("extract", method.code))
        return stage(g, db, method)

    def searched(g):
        events.append(("hops", g.method.code if g.method else "full"))
        return search(g)

    monkeypatch.setattr(EXTRACT, "handle_nonpunctual", staged)
    monkeypatch.setattr(metrics, "all_pairs_graph_distance", searched)
    run_measuring(capsys, db_files, tmp_path, ("stats", "--all", "--k", "1"))
    assert [code for kind, code in events if kind == "extract"] == list(
        METHOD_CODES)
    # Each hop pass with the code of the last variant extracted before it.
    searches = [(code, [c for k, c in events[:i] if k == "extract"][-1:])
                for i, (kind, code) in enumerate(events) if kind == "hops"]
    assert searches[0] == ("full", [])
    assert len(searches) > 2
    assert all([code] == last for code, last in searches[1:])


@pytest.mark.parametrize("argv,option", [
    (("extract", "--method", "EFS_k", "--k", "-1", "--out", "x"), "--k"),
    (("extract", "--all", "--k", "1", "--threshold", "0", "--out", "x"),
     "--threshold"),
    (("stats", "--method", "EFS_k", "--k", "-2"), "--k"),
    (("stats", "--all", "--k", "1", "--threshold", "0"), "--threshold"),
    (("sweep", "--base", "EFS", "--threshold", "0"), "--threshold"),
    (("sweep", "--base", "EFS", "--threshold", "many"), "--threshold"),
    (("communities", "--method", "EFS_k", "--k", "-1", "--out", "x"), "--k"),
    (("communities", "--method", "EFS_all", "--threshold", "-3", "--out",
      "x"), "--threshold"),
])
def test_out_of_range_k_or_threshold_is_a_usage_error(capsys, tmp_path,
                                                      argv, option):
    # The inputs do not exist: the option is refused before any is read.
    missing = ["--objects", str(tmp_path / "objects.csv"),
               "--relations", str(tmp_path / "relations.csv")]
    code, _, err = run(capsys, argv[0], *missing, *argv[1:])
    assert code == 1
    assert f"argument {option}: " in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("baseline", ["0", "-5"])
def test_a_baseline_below_one_is_a_usage_error(capsys, tmp_path, baseline):
    # Reading this cache would exit 2: the option is refused before that.
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    (graphs / f"g{CACHE_SUFFIX}").write_bytes(b"plainly not gzip")
    code, out, err = run(capsys, "stats", "--graphs", str(graphs),
                         "--baseline", baseline)
    assert code == 1
    assert f"argument --baseline: must be >= 1, got {baseline}" in err
    assert out == ""


@pytest.mark.parametrize("mode", [("--method", "EFS_k", "--k", "1"),
                                  ("--all", "--k", "1")])
def test_baseline_is_refused_outside_graphs_mode(capsys, db_files, tmp_path,
                                                 mode):
    # The register gives the baseline; --baseline would be ignored.
    code, out, err = run(capsys, "stats", *db_files["argv"], *mode,
                         "--baseline", "5", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "--baseline applies to --graphs mode only" in err
    assert out == ""
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("bad", ["2..1", "x..y", "-1..2", "3"])
def test_sweep_rejects_bad_ranges(capsys, db_files, tmp_path, bad):
    # A missing register changes nothing: the range is refused before any
    # input is read.
    missing = ["--objects", str(tmp_path / "objects.csv"),
               "--relations", str(tmp_path / "relations.csv")]
    for register in (db_files["argv"], missing):
        code, _, err = run(capsys, "sweep", *register, "--base", "RFS",
                           "--k-range", bad, "--threshold", "4")
        assert code == 1
        assert "argument --k-range: " in err


def beside_a_cache():
    """(argv, the two options refused together) for each register or
    extraction option given beside a graph cache, which holds an
    extracted graph already."""
    options = [("--objects", "o.csv"), ("--relations", "r.csv"),
               ("--segments", "s.csv"), ("--method", "EFS_k"), ("--k", "0"),
               ("--threshold", "4"), ("--warnings",)]
    for command, cache, extra in (("stats", "--graphs", [("--all",)]),
                                  ("communities", "--graph", [])):
        for option in options + extra:
            yield pytest.param((command, cache, "{missing}", *option),
                               (option[0], cache), id=f"{command}{option[0]}")


@pytest.mark.parametrize("argv,clash", [
    *beside_a_cache(),
    pytest.param(("stats", "--objects", "o.csv", "--relations", "r.csv",
                  "--all", "--method", "EFS_all"), ("--method", "--all"),
                 id="stats--all--method"),
])
def test_options_a_mode_would_ignore_are_usage_errors(capsys, tmp_path, argv,
                                                      clash):
    # Nothing exists to read: each option is refused before any input is.
    argv = [a.format(missing=tmp_path / f"missing{CACHE_SUFFIX}")
            for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    error = err.splitlines()[-1]
    assert "error: " in error and all(option in error for option in clash)
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,clash", [
    *(pytest.param((command, "--objects", "{tmp}/o.csv", "--relations",
                    "{tmp}/r.csv", "--method", "RFW_all", "--k", "5"),
                   ("--k", "RFW_all"), id=f"{command}--k")
      for command in ("extract", "stats", "communities")),
    *(pytest.param((command, "--objects", "{tmp}/o.json", "--relations",
                    "{tmp}/r.json", "--segments", "{tmp}/s.csv", *mode),
                   ("--segments", "JSON"), id=f"{command}--segments")
      for command, mode in (("extract", ("--method", "RFW_all")),
                            ("stats", ("--method", "RFW_all")),
                            ("sweep", ("--base", "EFS")),
                            ("communities", ("--method", "RFW_all")))),
])
def test_options_the_register_would_ignore_are_usage_errors(
        capsys, tmp_path, argv, clash):
    """--k beside a method that takes none, and a segments file beside
    JSON objects, which carry their segments inline. The register files
    do not exist: each option is refused before any input is read."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    error = err.splitlines()[-1]
    assert "error: " in error and all(option in error for option in clash)
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_communities_from_cache(capsys, db_files, tmp_path):
    graphs = tmp_path / "graphs"
    assert extract_all(capsys, db_files, graphs)[0] == 0
    out_dir = tmp_path / "comm"
    code, out, _ = run(capsys, "communities",
                       "--graph", str(graphs / f"EFS_all{CACHE_SUFFIX}"),
                       "--seed", "0", "--out", str(out_dir))
    assert code == 0
    assert out.startswith("communities=")
    assert "Q=" in out and "size_gini=" in out
    for name in ("partition.csv", "community_stats.csv",
                 "community_network.gexf", "composition_kinds.csv",
                 "composition_parishes.csv", "composition_walls.csv",
                 "manifest.json"):
        assert (out_dir / name).exists(), name
    g = read_cache(graphs / f"EFS_all{CACHE_SUFFIX}")
    partition = (out_dir / "partition.csv").read_text().splitlines()
    assert len(partition) == 2 + g.n  # manifest comment + header + rows


def test_communities_inline_requires_method(capsys, db_files, tmp_path):
    code, _, err = run(capsys, "communities", *db_files["argv"],
                       "--out", str(tmp_path))
    assert code == 1
    assert "--method" in err


def test_communities_on_empty_graph_is_a_data_error(capsys, tmp_path):
    empty = tmp_path / f"empty{CACHE_SUFFIX}"
    write_cache(ConfrontGraph([], []), empty)
    code, _, err = run(capsys, "communities", "--graph", str(empty),
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert "empty" in err


def test_dump_normalization(capsys):
    code, out, _ = run(capsys, "dump-normalization")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# normalization table v1.0"
    assert lines[1] == "raw_type,translation,default,surface,street"
    assert len(lines) == 2 + 42
    assert any(line.startswith("A Orient,") and "WestOf" in line
               for line in lines)



@pytest.mark.parametrize("command", ["stats", "communities"])
@pytest.mark.parametrize("where,value", [
    (["meta"], [1]), (["meta"], "x"),
    (["vertices", 0, 4], [1.0, 2.0, 3.0]), (["vertices", 0, 4], "ab"),
    (["vertices", 0, 4], [float("nan"), 0.0]), (["edges", 0, 1], "ghost"),
    (["vertices", 0, 3], False), (["vertices", 0, 3], 1),
    (["vertices", 0, 1], "Street"), (["vertices", 3, 0], 3),
    (["vertices", 0, 5], [1]), (["vertices", 0, 5], 3),
    (["vertices", 0, 6], "yes"), (["vertices", 0, 6], "false"),
    (["vertices", 0, 7], 1), (["vertices", 0, 8], ["s0"]),
    (["edges", 0, 3], "Secondary"), (["method", "k"], 7.5),
    (["method", "k"], True), (["method", "component_threshold"], 25.0),
    (["method", "code"], 5), (["edges", 0, 4], 5), (["edges", 0, 4], ["s0"]),
    (["edges", 0, 4], True), (["edges", 0, 4], {"a": 1}),
], ids=["meta-list", "meta-string", "coord-3", "coord-string", "coord-nan",
        "edge-to-missing-vertex", "property-without-flag",
        "property-flag-not-a-boolean", "flag-without-property-kind",
        "id-not-a-string", "parish-list", "parish-number", "walls-yes",
        "walls-false-string", "source-object-number", "source-segment-list",
        "unknown-edge-origin", "k-float", "k-bool", "threshold-float",
        "method-code-number", "binding-number", "binding-list",
        "binding-bool", "binding-object"])
def test_a_corrupt_cache_is_a_located_data_error(capsys, tmp_path, command,
                                                 where, value):
    graphs = tmp_path / "graphs"
    path = graphs / f"g{CACHE_SUFFIX}"
    # v3 has no edge, so its id can change without orphaning one.
    g = make_graph([(0, 1), (1, 2), (0, 2)], n=4,
                   coords={i: (float(i), 0.0) for i in range(3)})
    g.method = ExtractionMethod.from_code("EFS_k", k=7)
    write_cache(g, path)
    payload = json.loads(gzip.decompress(path.read_bytes()))
    *head, last = where
    item = payload
    for step in head:
        item = item[step]
    item[last] = value
    path.write_bytes(gzip.compress(json.dumps(payload).encode()))
    argv = (["stats", "--graphs", str(graphs)] if command == "stats" else
            ["communities", "--graph", str(path),
             "--out", str(tmp_path / "out")])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: corrupt graph cache: ")
    assert err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("damage", [
    lambda data: data[:300],
    lambda data: data[:200] + bytes([data[200] ^ 0xFF]) + data[201:],
    lambda data: gzip.compress(b"[" * 100_000),
], ids=["truncated", "flipped-byte", "nested-past-the-recursion-limit"])
def test_an_unreadable_cache_is_a_located_data_error(capsys, tmp_path,
                                                     damage):
    graphs = tmp_path / "graphs"
    path = graphs / f"g{CACHE_SUFFIX}"
    write_cache(make_graph([(i, i + 1) for i in range(99)],
                           coords={i: (1.5 * i, 0.0) for i in range(100)}),
                path)
    data = path.read_bytes()
    assert len(data) > 400
    path.write_bytes(damage(data))
    code, out, err = run(capsys, "stats", "--graphs", str(graphs))
    assert code == 2
    assert err.startswith("error: unreadable graph cache: ")
    assert err.rstrip().endswith(f"[{path}]")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("command", ["stats", "communities"])
def test_a_cache_from_another_normalization_table_is_refused(
        capsys, tmp_path, command):
    graphs = tmp_path / "graphs"
    path = graphs / f"g{CACHE_SUFFIX}"
    write_cache(make_graph([(0, 1), (1, 2)],
                           coords={i: (float(i), 0.0) for i in range(3)}),
                path)
    payload = json.loads(gzip.decompress(path.read_bytes()))
    payload["table_version"] = "0.1-stale"
    path.write_bytes(gzip.compress(json.dumps(payload).encode()))
    argv = (["stats", "--graphs", str(graphs)] if command == "stats" else
            ["communities", "--graph", str(path),
             "--out", str(tmp_path / "out")])
    assert run(capsys, *argv) == (
        2, "", f"error: cache written under normalization table "
               f"'0.1-stale' (expected '1.0') [{path}]\n")


# An integer too large for a float, as JSON text: 10**400 overflows a
# float; a 5000-digit literal also exceeds Python's int parsing limit.
BIG = "1" + "0" * 400
HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("record,message", [
    ('{"id": "h", "kind": "Property", "dim": "Punctual", "coord": [%s, 0]}'
     % BIG, "object 'h': coordinates must be two finite numbers"),
    ('{"id": "h", "kind": "Property", "dim": "Punctual", "coord": [0, -%s]}'
     % BIG, "object 'h': coordinates must be two finite numbers"),
    ('{"id": "s", "kind": "Street", "dim": "Linear", "length_m": %s}' % BIG,
     "object 's': length_m must be a finite positive number, got inf"),
    ('{"id": "s", "kind": "Street", "dim": "Linear", "segments": '
     '[{"id": "s0", "coord": [%s, 0]}]}' % BIG,
     "segment 's0': coordinates must be two finite numbers"),
    ('{"id": "h", "kind": "Property", "dim": "Punctual", "coord": [%s, 0]}'
     % HUGE, "invalid JSON: Exceeds the limit"),
], ids=["coord-x", "coord-y-negative", "length_m", "segment-coord",
        "coord-beyond-int-parsing"])
def test_oversized_json_integers_are_located_data_errors(capsys, tmp_path,
                                                         record, message):
    objects, relations = tmp_path / "objects.json", tmp_path / "relations.json"
    objects.write_text(f"[{record}]")
    relations.write_text("[]")
    code, _, err = run(capsys, "extract", "--objects", str(objects),
                       "--relations", str(relations), "--method", "RFW_all",
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert err.rstrip().endswith(f"[{objects}]")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("bad,owner", [("objects", "object 'h'"),
                                       ("segments", "segment 's0'")])
def test_non_finite_csv_coordinates_are_located_data_errors(
        capsys, tmp_path, value, bad, owner):
    files = {
        "objects": [
            "id,name,kind,dim,x,y,length_m,parish,inside_old_walls,declared",
            "st,st,Street,Linear,,,80.0,,,",
            "h,h,Property,Punctual,%s,0,,,," % (
                value if bad == "objects" else "1.0")],
        "segments": [
            "object_id,segment_id,order,x,y",
            "st,s0,0,0,%s" % (value if bad == "segments" else "2.0"),
            "st,s1,1,0,3.0"],
        "relations": ["id,source_id,target_id,raw_type,origin,"
                      "target_segment", "r1,h,st,Juxta,,s0"],
    }
    paths = {name: tmp_path / f"{name}.csv" for name in files}
    for name, lines in files.items():
        paths[name].write_text("\n".join(lines) + "\n")
    line = 3 if bad == "objects" else 2
    code, _, err = run(capsys, "extract", "--objects", str(paths["objects"]),
                       "--relations", str(paths["relations"]),
                       "--segments", str(paths["segments"]),
                       "--method", "RFW_all", "--threshold", "1",
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == (f"error: {owner}: coordinates must be two finite numbers "
                   f"[{paths[bad]}:{line}]\n")


@pytest.mark.parametrize("coord", [BIG, HUGE], ids=["overflow", "too-long"])
def test_a_cache_with_an_oversized_coordinate_is_a_data_error(capsys,
                                                              tmp_path, coord):
    path = tmp_path / f"g{CACHE_SUFFIX}"
    write_cache(make_graph([(0, 1)], coords={0: (1.0, 0.0)}), path)
    text = gzip.decompress(path.read_bytes()).decode()
    assert text.count("[1.0,0.0]") == 1
    path.write_bytes(gzip.compress(
        text.replace("[1.0,0.0]", f"[{coord},0.0]").encode()))
    code, _, err = run(capsys, "communities", "--graph", str(path),
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error: ")
    assert str(path) in err and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_coordinates_whose_difference_overflows_warn_nothing(capsys,
                                                            tmp_path):
    # a-b is 2e308 m apart, which float64 overflows to an infinite metre.
    objects = tmp_path / "objects.csv"
    objects.write_text(
        "id,name,kind,dim,x,y,length_m,parish,inside_old_walls,declared\n"
        "a,a,Property,Punctual,1e308,0,,,,\n"
        "b,b,Property,Punctual,-1e308,0,,,,\n"
        "c,c,Property,Punctual,0,0,,,,\n")
    relations = tmp_path / "relations.csv"
    relations.write_text("id,source_id,target_id,raw_type,origin,"
                         "target_segment\nr1,a,b,Juxta,,\nr2,b,c,Juxta,,\n")
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "stats", "--objects", str(objects),
                            "--relations", str(relations), "--all",
                            "--k", "0", "--threshold", "1", "--out", str(out),
                            "--profile")
    assert (code, stdout, err) == (0, "", "")
    rows = out.read_text().splitlines()[2:]
    assert rows[0] == "full,3,2,0.3333,3,100.00,1,2,1.20,-0.50"
    assert len(set(row.partition(",")[2] for row in rows)) == 1
    profile = (tmp_path / "profile_full.csv").read_text().splitlines()[2:]
    assert profile[0] == "1,2,inf,"  # a-b is infinite, b-c is 1e308
    assert profile[1].startswith("2,1,1000000000000000010979")
    assert profile[1].endswith(".000,0.000")


@pytest.mark.parametrize("blocked,loads_hashlib", [
    (("hashlib",), False), (("_sha2", "_sha256"), True)],
    ids=["built-in", "hashlib-fallback"])
def test_manifest_digests_are_hashlib_sha256(tmp_path, blocked,
                                             loads_hashlib):
    """Every command writes the SHA-256 digests hashlib computes, whether
    it takes sha256 from the interpreter's own module (without loading
    hashlib or, on numpy 2 and later, OpenSSL) or, where that module is
    missing, from hashlib."""
    db = synthetic_database(SEED)
    reg = ["--objects", str(tmp_path / "objects.csv"),
           "--relations", str(tmp_path / "relations.csv"),
           "--segments", str(tmp_path / "segments.csv")]
    save_database(db, *reg[1::2])
    out = tmp_path / "out"
    argvs = [
        ["extract", *reg, "--all", "--k", "2", "--threshold", "4",
         "--out", str(out / "extract")],
        ["stats", *reg, "--method", "EFS_k", "--k", "2", "--threshold", "4",
         "--profile", "--out", str(out / "stats.csv")],
        ["stats", "--graphs", str(out / "extract"),
         "--out", str(out / "graphs.csv")],
        ["sweep", *reg, "--base", "EFS", "--threshold", "4",
         "--out", str(out / "sweep.csv")],
        ["communities", "--graph",
         str(out / "extract" / f"EFS_k{CACHE_SUFFIX}"),
         "--out", str(out / "communities")]]
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    probe = run_python(
        "import json, sys\n"
        f"for name in {blocked!r}: sys.modules[name] = None\n"
        "from confront_net import cli\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        f"empty = cli._hash_inputs({{'empty': {str(empty)!r}}})\n"
        "print(json.dumps([codes, empty, sorted(m for m in "
        "('hashlib', '_hashlib') if sys.modules.get(m))]))")
    assert probe.returncode == 0, probe.stderr
    codes, empty_hash, loaded = json.loads(probe.stdout.splitlines()[-1])
    assert codes == [0] * len(argvs), probe.stderr
    assert empty_hash == {"empty": hashlib.sha256(b"").hexdigest()}
    if loads_hashlib:
        assert "hashlib" in loaded
    elif int(np.__version__.split(".")[0]) >= 2:
        # numpy 1.x imports numpy.random eagerly, and through secrets and
        # hmac that maps _hashlib whatever the CLI does.
        assert loaded == []  # neither hashlib nor OpenSSL's _hashlib

    caches = hashlib.sha256()
    for path in sorted((out / "extract").glob(f"*{CACHE_SUFFIX}")):
        caches.update(path.name.encode() + path.read_bytes())
    manifests = [out / "extract" / "manifest.json",
                 out / "stats.csv.manifest.json",
                 out / "graphs.csv.manifest.json",
                 out / "sweep.csv.manifest.json",
                 out / "communities" / "manifest.json"]
    for path in manifests:
        manifest = json.loads(path.read_text())
        hashed = {key: value for key, value in manifest.items()
                  if key not in ("created", "manifest_hash")}
        assert manifest["manifest_hash"] == hashlib.sha256(json.dumps(
            hashed, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(), path
        assert manifest["input_hashes"] == {
            name: (caches.hexdigest() if name == "graphs" else
                   hashlib.sha256(Path(value).read_bytes()).hexdigest())
            for name, value in manifest["inputs"].items()}, path
    assert {name for path in manifests for name in json.loads(
        path.read_text())["inputs"]} == {
        "objects", "relations", "segments", "graph", "graphs"}
