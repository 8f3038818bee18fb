"""confront-net benchmark: four CLI workloads, a layer trace, an output gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from the root of a checkout. Each run generates the workload's
register from the seed (set-up, repeated several times), then
starts one fresh interpreter per sample (``child.py``), one at a time,
until ``--seconds`` have passed: a closed loop with a single client.
Each child imports ``confront_net.cli`` from ``src/`` and runs the
workload's commands through ``cli.main``. Wall time, CPU time and peak
RSS come from ``os.wait4`` on that child alone. Every child's result
tables are hashed and compared with the hashes in ``reference.json``,
recorded at the commit that introduced the benchmark; a mismatch fails
the command. With ``--trace 1`` traced children alternate with untraced
ones and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from register import write_register  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

#: Registers are drawn from this many generator seeds (seed mod POOL) so
#: that every run's outputs have a committed reference.
POOL = 64
#: Set-up runs at least SETUP_REPEATS times, and until SETUP_MIN_S have
#: been spent on it, so that a millisecond set-up still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200
CHILD_TIMEOUT_S = 100
SMOKE_SCALE = 0.04
LOUVAIN_SEEDS = (0, 1, 2)

_REG = ["--objects", "register/objects.csv",
        "--relations", "register/relations.csv",
        "--segments", "register/segments.csv"]


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float  # register size, 1.0 ~ Avignon (3000 properties)
    commands: tuple[tuple[str, ...], ...]
    gated: tuple[str, ...]  # globs under out/, hashed and compared
    reported: tuple[str, ...] = ()  # globs under out/, hashed, not gated
    gated_stdout: str | None = None  # prefix of a stdout line to gate
    setup: tuple[str, ...] | None = None  # command run in set-up


WORKLOADS = {w.name: w for w in (
    Workload("extract-all", 0.12,
             (("extract", *_REG, "--all", "--k", "7", "--out", "out"),),
             gated=("stats.csv",),
             reported=("*.graphml", "*.graph.json.gz")),
    Workload("stats-avignon", 0.36,
             (("stats", *_REG, "--method", "EFS_k", "--k", "7",
               "--out", "out/stats.csv", "--profile"),),
             gated=("stats.csv", "profile_*.csv")),
    Workload("sweep-efs", 0.2,
             (("sweep", *_REG, "--base", "EFS", "--out", "out/sweep.csv"),),
             gated=("sweep.csv",), gated_stdout="selected k="),
    Workload("communities", 0.5,
             tuple(("communities", "--graph", "cache/EFS_k.graph.json.gz",
                    "--seed", str(s), "--out", f"out/s{s}")
                   for s in LOUVAIN_SEEDS),
             gated=("s*/partition.csv", "s*/community_stats.csv",
                    "s*/composition_*.csv"),
             reported=("s*/community_network.gexf",),
             setup=("extract", *_REG, "--method", "EFS_k", "--k", "7",
                    "--out", "cache")),
)}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {"cli.import_s": "s", "cli.build_manifest.s": "s",
                             "cli.self_s": "s"}
    timed = ("data_model.load_database", "data_model.validate_database",
             "normalize.merge_equal_objects")
    counted = tuple(f"extract.{f}" for f in (
        "build_full_graph", "filter_hierarchy", "handle_nonpunctual",
        "inject_additional", "filter_components", "extract")) + (
        "graph.ConfrontGraph.components", "graph.ConfrontGraph.induced_subgraph")
    units.update({f"{n}.s": "s" for n in timed})
    for name in counted:
        units.update({f"{name}.s": "s", f"{name}.calls": "count"})
    units["extract.distinct_graphs"] = "count"
    units.update({"metrics.summarize.s": "s", "metrics.summarize.self_s": "s",
                  "metrics.summarize.calls": "count",
                  "metrics.all_pairs_graph_distance.s": "s",
                  "metrics.all_pairs_graph_distance.calls": "count",
                  "metrics.apsp_cells": "count",
                  "metrics.apsp_bytes_computed": "bytes"})
    for f in ("finite_diameter", "harmonic_mean_distance",
              "spearman_distance_correlation", "rank_correlation",
              "distance_profile"):
        units[f"metrics.{f}.s"] = "s"
    units.update({"metrics.errors": "count",
                  "sweep.sweep_k.s": "s", "sweep.sweep_k.self_s": "s",
                  "sweep.points": "count",
                  "community.louvain.s": "s", "community.louvain.calls": "count",
                  "community.louvain.levels": "count",
                  "community.community_stats.s": "s",
                  "community.community_network.s": "s",
                  "community.communities": "count"})
    for f in ("graphml_bytes", "cache_bytes", "community_gexf_bytes",
              "read_cache", "atomic_write_bytes"):
        units[f"serialize.{f}.s"] = "s"
    units.update({"serialize.bytes_written": "bytes",
                  "trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER = _per_layer()
#: Per-layer metrics that are counts and must repeat exactly.
COUNTS = tuple(n for n, u in PER_LAYER.items() if u in ("count", "bytes"))


class BenchError(Exception):
    """The benchmark itself cannot run: no result may be printed."""


# --- children ------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # One client, no thread pool: the load stays within two cores. The
    # hash seed stays random so the gate also checks hash-order
    # independence.
    for name in ("CONFRONT_THREADS", "PYTHONHASHSEED"):
        env.pop(name, None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    result: dict


def run_child(workdir: Path, commands, trace: bool) -> Sample:
    """Run one child to completion; rusage is that child's alone."""
    job = workdir / "job.json"
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    job.write_text(json.dumps({"workdir": str(workdir), "src": str(SRC),
                               "commands": [list(c) for c in commands],
                               "trace": trace, "result": str(result_path)}))
    log = workdir / "child.log"
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    argv = [sys.executable, str(BENCH / "child.py"), str(job)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, _child_env(),
                         file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException as exc:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        if isinstance(exc, _Timeout):
            raise BenchError(
                f"child timed out after {CHILD_TIMEOUT_S} s") from None
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not result_path.exists():
        raise BenchError(f"child exited with {code}; see {log}:\n"
                         + log.read_text(errors="replace")[-2000:])
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  result=json.loads(result_path.read_text()))


# --- output gate -----------------------------------------------------------

def _table_hash(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(ln for ln in lines if not ln.startswith(b"# manifest:"))
    return hashlib.sha256(kept).hexdigest()


def _digest(hashes: dict[str, str]) -> str:
    text = "".join(f"{name} {h}\n" for name, h in sorted(hashes.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def output_digests(w: Workload, out: Path, result: dict) -> tuple[str, str]:
    """(gated digest, reported digest) of one child's outputs."""
    gated = {}
    for pattern in w.gated:
        for path in sorted(out.glob(pattern)):
            gated[str(path.relative_to(out))] = _table_hash(path)
    if not gated:
        gated["<none>"] = ""
    if w.gated_stdout is not None:
        lines = [ln for c in result["commands"]
                 for ln in c["stdout"].splitlines()
                 if ln.startswith(w.gated_stdout)]
        gated["<stdout>"] = hashlib.sha256(
            "\n".join(lines).encode()).hexdigest()
    reported = {str(p.relative_to(out)): hashlib.sha256(
        p.read_bytes()).hexdigest()
        for pattern in w.reported for p in sorted(out.glob(pattern))}
    return _digest(gated), _digest(reported)


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())


# --- one run ---------------------------------------------------------------

def setup(w: Workload, seed: int, scale: float) -> tuple[Path, float]:
    """Generate the register (and the cache) into a fresh work directory."""
    workdir = WORK / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    write_register(workdir / "register", scale, seed)
    if w.setup is not None:
        sample = run_child(workdir, [w.setup], trace=False)
        if sample.result["commands"][0]["rc"] != 0:
            raise BenchError(f"{w.name}: set-up command failed")
    return workdir, time.perf_counter() - start


def sample_once(w: Workload, workdir: Path, trace: bool) -> Sample:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    sample = run_child(workdir, w.commands, trace)
    sample.result["digests"] = output_digests(w, out, sample.result)
    return sample


def layer_metrics(sample: Sample) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    result = sample.result
    spans = result["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), inner in zip(spans, covered):
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - inner)
        calls[name] = calls.get(name, 0) + 1
    layers_self = sum(v for k, v in own.items() if k != "cli.main")
    values: dict[str, float] = {
        "cli.import_s": result["import_s"],
        # Residual: interpreter start, argument parsing, command bodies
        # and rendering, so that layer self times plus this and the
        # import add up to the traced wall time.
        "cli.self_s": sample.wall_s - result["import_s"] - layers_self,
    }
    if values["cli.self_s"] < 0:
        raise BenchError("layer self times exceed the traced wall time")
    for name in PER_LAYER:
        if name in values:
            continue
        base, _, stat = name.rpartition(".")
        if stat == "s":
            values[name] = incl.get(base, 0.0)
        elif stat == "self_s":
            values[name] = own.get(base, 0.0)
        elif stat == "calls":
            values[name] = calls.get(base, 0)
    counters = result["counters"]
    values.update(counters)
    values["metrics.apsp_bytes_computed"] = 8 * counters["metrics.apsp_cells"]
    values["trace.wall_s"] = sample.wall_s
    return values


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 scale: float | None = None,
                 reference: dict | None = None) -> dict:
    """Set up, measure for ``seconds``, gate, and return the run summary."""
    register_seed = seed % POOL
    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        workdir, took = setup(w, register_seed, scale or w.scale)
        setups.append(took)
    run_child(workdir, [], trace=False)  # compile and page in the imports
    untraced: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while (not untraced or (trace and not traced)
           or time.perf_counter() < deadline):
        use_trace = trace and len(traced) < len(untraced)
        (traced if use_trace else untraced).append(
            sample_once(w, workdir, use_trace))

    expected = None
    if reference is not None:
        if reference["scales"].get(w.name) != (scale or w.scale):
            raise BenchError(f"{w.name}: reference.json was recorded at "
                             f"another register scale")
        expected = reference.get("workloads", {}).get(w.name, {}).get(
            str(register_seed))
        if expected is None:
            raise BenchError(f"{w.name}: no reference hashes for register "
                             f"seed {register_seed}")
    attempted = failed = 0
    digests = set()
    for s in untraced + traced:
        gated, reported = s.result["digests"]
        digests.add(s.result["digests"])
        ok_gate = expected is None or gated == expected["gated"]
        if not ok_gate:
            print(f"{w.name}: output gate failed: result tables hash to "
                  f"{gated}, reference {expected['gated']}", file=sys.stderr)
        for command in s.result["commands"]:
            attempted += 1
            if command["rc"] != 0 or not ok_gate:
                failed += 1
    summary = {
        "attempted": attempted, "failed": failed,
        "register_seed": register_seed, "samples": len(untraced),
        "traced_samples": len(traced), "digests": sorted(digests),
        "reference": expected,
        "end_to_end": {
            "wall_s": statistics.median(s.wall_s for s in untraced),
            "cpu_s": statistics.median(s.cpu_s for s in untraced),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in untraced),
            "setup_s": statistics.median(setups)},
    }
    if trace:
        unbound = [n for n, c in traced[0].result["bindings"].items() if not c]
        if unbound:
            print(f"{w.name}: not found in the package, reported as 0: "
                  f"{', '.join(unbound)}", file=sys.stderr)
        per_sample = [layer_metrics(s) for s in traced]
        layers = {name: (statistics.median_low if name in COUNTS
                         else statistics.median)([v[name] for v in per_sample])
                  for name in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - summary["end_to_end"]["wall_s"])
        summary["per_layer"] = layers
        summary["per_sample_layers"] = per_sample
    return summary


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def _print_table(name: str, summary: dict) -> None:
    print(f"== {name}: register seed {summary['register_seed']}, "
          f"{summary['samples']} untraced + {summary['traced_samples']} "
          f"traced samples, {summary['failed']}/{summary['attempted']} failed")
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<44} {summary['end_to_end'][metric]:>14.6f} {unit}")
    for metric, unit in PER_LAYER.items():
        if "per_layer" in summary:
            print(f"  {metric:<44} {summary['per_layer'][metric]:>14.6f} "
                  f"{unit}")
    gate = summary["reference"]
    if gate is None:
        print("  output gate: no reference for this register")
    else:
        gated = {d[0] for d in summary["digests"]}
        reported = {d[1] for d in summary["digests"]}
        print(f"  output gate: {'PASS' if gated == {gate['gated']} else 'FAIL'}"
              f"; graph files {'match' if reported == {gate['reported']} else 'differ from'}"
              f" the seed reference (not gated)")


# --- smoke -----------------------------------------------------------------

def smoke(seed: int) -> int:
    """Every workload on a tiny register: names, units, repeatable counts."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []
    if want_e2e != END_TO_END:
        problems.append(f"end_to_end names/units differ: {want_e2e} vs "
                        f"{END_TO_END}")
    if want_layer != PER_LAYER:
        problems.append("per_layer names/units differ: "
                        f"{sorted(set(want_layer) ^ set(PER_LAYER))}")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for w in WORKLOADS.values():
        summary = run_workload(w, seed, 0.0, trace=True, scale=SMOKE_SCALE)
        # Two traced samples: run one more traced child on the same set-up.
        second = layer_metrics(sample_once(w, WORK / w.name, trace=True))
        first = summary["per_sample_layers"][0]
        for name in COUNTS:
            if first[name] != second[name]:
                problems.append(f"{w.name}: {name} {first[name]} then "
                                f"{second[name]}")
        if summary["failed"] or len(summary["digests"]) != 1:
            problems.append(f"{w.name}: {summary['failed']} failed, "
                            f"{len(summary['digests'])} distinct outputs")
        print(f"{w.name}: {summary['attempted']} commands, "
              f"apsp calls {first['metrics.all_pairs_graph_distance.calls']}, "
              f"wall {summary['end_to_end']['wall_s']:.3f} s")
    shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


# --- entry -----------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="confront-net end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on a tiny register "
                             "and check names, units and counts")
    args = parser.parse_args(argv)
    if not (SRC / "confront_net" / "cli.py").is_file():
        print(f"error: no confront_net sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        reference = load_reference()
        if args.workload == "all":
            names, trace = list(WORKLOADS), True
        else:
            names, trace = [args.workload], bool(args.trace)
        attempted = failed = 0
        metrics: dict = {}
        for name in names:
            summary = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   trace, reference=reference)
            _print_table(name, summary)
            attempted += summary["attempted"]
            failed += summary["failed"]
            if args.workload == "all":
                for block, units in (("end_to_end", END_TO_END),
                                     ("per_layer", PER_LAYER)):
                    for metric, unit in units.items():
                        metrics[f"{name}/{metric}"] = {
                            "value": summary[block][metric], "unit": unit}
            elif trace:
                metrics = _metric_block(summary["per_layer"], PER_LAYER)
            else:
                metrics = _metric_block(summary["end_to_end"], END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
