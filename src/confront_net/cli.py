"""Command-line interface.

Subcommands: extract, stats, sweep, communities, dump-normalization.
Exit codes: 0 success, 1 usage error, 2 data error. Every file-writing
run drops a manifest (inputs, hashes, parameters) and stamps its hash
into the produced files; re-running with identical inputs reproduces
every output byte-for-byte (the manifest's timestamp aside).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .community import community_network, community_stats, louvain, size_gini
from .data_model import Database, load_database, validate_database
from .errors import (ConflictingMerge, ConfrontNetError, EmptyResult,
                     GraphTooLarge, MalformedRecord, MissingLength,
                     MissingSegments, TakenVertexId)
from .extract import (DEFAULT_COMPONENT_THRESHOLD, METHOD_CODES,
                      ExtractionMethod, Scope, extract_each)
from .graph import ConfrontGraph
from .metrics import DistanceProfile, GraphSummary, measure
from .normalize import merge_equal_objects, normalization_rows
from .relation_types import TABLE_VERSION
from .serialize import (atomic_write_bytes, cache_bytes, community_gexf_bytes,
                        gexf_bytes, graphml_bytes, read_cache)
from .sweep import default_k_range, select_best, sweep_k

try:  # the built-in SHA-256: OpenSSL's libcrypto (3.3 MB resident) stays out
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

CACHE_SUFFIX = ".graph.json.gz"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)  # argparse: "invalid integer value: ..."
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _parse_range(text: str) -> list[int]:
    """An argparse type: the integers of an inclusive range A..B, with
    0 <= A <= B."""
    try:
        low_s, high_s = text.split("..", 1)
        low, high = int(low_s), int(high_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r} (expected A..B)") from None
    if low < 0 or high < low:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r} (need 0 <= A <= B)")
    return list(range(low, high + 1))


def _add_db_arguments(parser: argparse.ArgumentParser,
                      required: bool = True) -> None:
    parser.add_argument("--objects", type=Path, required=required,
                        help="objects file (CSV or JSON)")
    parser.add_argument("--relations", type=Path, required=required,
                        help="relations file (CSV or JSON)")
    parser.add_argument("--segments", type=Path, default=None,
                        help="optional segments CSV")


def _load_merged(args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> Database:
    if args.objects.suffix == ".json" and args.segments is not None:
        parser.error("--segments not allowed with JSON --objects; the "
                     "objects file carries its segments inline")
    db = load_database(args.objects, args.relations, args.segments)
    warnings = validate_database(db)
    if warnings:
        if getattr(args, "warnings", False):
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
        else:
            print(f"note: {len(warnings)} data warnings "
                  f"(re-run with --warnings for details)", file=sys.stderr)
    return merge_equal_objects(db)


def _check_inputs(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  cache: str) -> None:
    """Refuse, as a usage error, what the input mode would ignore or
    lacks, then give --threshold its default. Beside the graph cache
    option `cache`: a register or extraction option (the parser refuses
    --method and --all). Without it: a missing register file, or
    --baseline, which the register gives."""
    if getattr(args, cache) is not None:
        given = [f"--{name}" for name in ("objects", "relations",
                                          "segments", "k", "threshold")
                 if getattr(args, name) is not None]
        if args.warnings:
            given.append("--warnings")
        if given:
            parser.error(f"{', '.join(given)} not allowed with --{cache}; "
                         f"the cache holds an extracted graph")
    elif args.objects is None or args.relations is None:
        parser.error(f"--objects and --relations are needed without "
                     f"--{cache}")
    elif getattr(args, "baseline", None) is not None:
        parser.error("--baseline applies to --graphs mode only; "
                     "the register gives the baseline")
    if args.threshold is None:
        args.threshold = DEFAULT_COMPONENT_THRESHOLD


def _extractions(args: argparse.Namespace, parser: argparse.ArgumentParser
                 ) -> tuple[list[str], ConfrontGraph, Iterable[ConfrontGraph]]:
    """The method codes asked for, the register's full graph, and the
    variants extracted from it in code order: under --all one at a time,
    as `extract_each` yields them, an emptied one the empty graph; a
    single --method's before anything is measured, refused when the size
    filter (threshold above 1) emptied it."""
    every = getattr(args, "all", False)
    codes = list(METHOD_CODES) if every else [args.method]
    methods = [ExtractionMethod.from_code(
        code, k=args.k or 0, component_threshold=args.threshold)
        for code in codes]
    for method in methods:
        takes_k = method.scope is Scope.TOP_K
        if takes_k and args.k is None:
            parser.error(f"--k is required for method {method.code}")
        if not (takes_k or every or args.k is None):
            parser.error(f"--k not allowed with method {method.code}; only "
                         f"the _k methods take k")
    db = _load_merged(args, parser)
    graphs = extract_each(db, methods)
    full = next(graphs)
    if not every:
        graphs = list(graphs)
        if args.threshold > 1 and graphs[0].n == 0:
            raise EmptyResult(f"no component reaches the size "
                              f"threshold {args.threshold}")
    return codes, full, graphs


def _input_manifest(args: argparse.Namespace) -> dict[str, str]:
    inputs = {}
    for name in ("objects", "relations", "segments", "graph", "graphs"):
        value = getattr(args, name, None)
        if value is not None:
            inputs[name] = str(value)
    return inputs


def _hash_inputs(inputs: dict[str, str]) -> dict[str, str]:
    hashes = {}
    for name, value in sorted(inputs.items()):
        path = Path(value)
        if path.is_file():
            hashes[name] = sha256(path.read_bytes()).hexdigest()
        elif path.is_dir():
            digest = sha256()
            for child in sorted(path.glob(f"*{CACHE_SUFFIX}")):
                digest.update(child.name.encode())
                digest.update(child.read_bytes())
            hashes[name] = digest.hexdigest()
    return hashes


def build_manifest(command: str, args: argparse.Namespace,
                   methods: list[str], parameters: dict) -> dict:
    inputs = _input_manifest(args)
    manifest = {
        "tool": "confront-net",
        "version": __version__,
        "table_version": TABLE_VERSION,
        "command": command,
        "inputs": inputs,
        "input_hashes": _hash_inputs(inputs),
        "methods": methods,
        "parameters": parameters,
    }
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    manifest["manifest_hash"] = sha256(canonical.encode()).hexdigest()
    return manifest


def _write_manifest(manifest: dict, path: Path) -> None:
    # `created` sits outside the hash: it is the one non-reproducible field.
    payload = dict(manifest)
    payload["created"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    atomic_write_bytes(path, json.dumps(payload, indent=2,
                                        sort_keys=True).encode() + b"\n")


# --- CSV rendering --------------------------------------------------------

STATS_COLUMNS = ("method", "n", "m", "delta", "properties", "coverage",
                 "components", "d_max", "d_harm", "rho_d")


def _fmt_float(value: float, digits: int) -> str:
    if math.isnan(value):
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.{digits}f}"


def _stats_row(label: str, s: GraphSummary) -> list[str]:
    return [label, str(s.n), str(s.m), _fmt_float(s.delta, 4),
            str(s.property_count),
            _fmt_float(100.0 * s.property_coverage, 2),
            str(s.components), str(s.d_max), _fmt_float(s.d_harm, 2),
            _fmt_float(s.rho_d, 2)]


def _render_csv(header: tuple[str, ...], rows: list[list[str]],
                comment: str | None) -> bytes:
    """The table as CSV bytes, below a `# comment` line when given."""
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _emit(data: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        atomic_write_bytes(out, data)


def _write_table(header: tuple[str, ...], rows: list[list[str]],
                 manifest: dict, out: Path | None) -> None:
    """A command's table, to stdout or to `out`; a file is stamped with
    the manifest hash and gets the manifest beside it."""
    comment = None if out is None else f"manifest: {manifest['manifest_hash']}"
    _emit(_render_csv(header, rows, comment), out)
    if out is not None:
        _write_manifest(manifest, out.with_name(out.name + ".manifest.json"))


def _warn_empty(label: str) -> None:
    print(f"warning: graph {label!r} is empty; reporting zeros",
          file=sys.stderr)


def _measure(labels: list[str], graphs: Iterable[ConfrontGraph],
             baseline: int | None, profile: bool
             ) -> list[tuple[GraphSummary, DistanceProfile | None]]:
    """`measure` of each labelled graph, taken one at a time. A graph
    equal to an earlier one (vertex order included: a profile sums its
    metres in pair order) takes over that one's result. Only what graph
    equality compares is kept, not the graph with its pairs."""
    done: list[tuple[tuple, tuple[GraphSummary, DistanceProfile | None]]] = []
    results = []
    for label, g in zip(labels, graphs):
        key = (tuple(g.vertices.values()), g.edges)
        for seen, result in done:
            if seen == key:
                break
        else:
            try:
                result = measure(g, baseline, profile)
            except GraphTooLarge as exc:
                raise GraphTooLarge(f"graph {label!r}: {exc}") from None
            done.append((key, result))
        results.append(result)
    return results


# --- subcommands ----------------------------------------------------------

def cmd_extract(args: argparse.Namespace,
                parser: argparse.ArgumentParser) -> int:
    # Every variant before the first file: a data error writes none.
    codes, full, graphs = _extractions(args, parser)
    graphs = list(graphs)
    manifest = build_manifest(
        "extract", args, codes,
        {"k": args.k, "threshold": args.threshold, "format": args.format})
    mhash = manifest["manifest_hash"]
    if args.all:
        labels = ["full", *codes]
        summaries = [summary for summary, _ in _measure(
            labels, [full, *graphs], full.property_count(), False)]
        rows = [_stats_row(label, summary)
                for label, summary in zip(labels, summaries)]
        atomic_write_bytes(args.out / "stats.csv",
                           _render_csv(STATS_COLUMNS, rows,
                                       f"manifest: {mhash}"))
    render = graphml_bytes if args.format == "graphml" else gexf_bytes
    for i, (code, g) in enumerate(zip(codes, graphs), 1):
        atomic_write_bytes(args.out / f"{code}.{args.format}",
                           render(g, mhash))
        atomic_write_bytes(args.out / f"{code}{CACHE_SUFFIX}",
                           cache_bytes(g, mhash))
        components = (summaries[i].components if args.all
                      else len(g.components()))
        print(f"{code}: n={g.n} m={g.m} components={components}")
        if g.n == 0:
            _warn_empty(code)
    _write_manifest(manifest, args.out / "manifest.json")
    return 0


def cmd_stats(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    if args.profile and args.out is None:
        parser.error("--profile requires --out")
    _check_inputs(args, parser, "graphs")
    if args.graphs is not None:
        caches = sorted(args.graphs.glob(f"*{CACHE_SUFFIX}"))
        if not caches:
            raise MalformedRecord(
                f"no {CACHE_SUFFIX} files in {args.graphs}")
        labels = [path.name[:-len(CACHE_SUFFIX)] for path in caches]
        measured = _measure(labels, (read_cache(path) for path in caches),
                            args.baseline, args.profile)
        parameters: dict = {"baseline": args.baseline}
    else:
        codes, full, variants = _extractions(args, parser)
        labels = ["full", *codes]
        measured = _measure(labels, itertools.chain([full], variants),
                            full.property_count(), args.profile)
        parameters = {"k": args.k, "threshold": args.threshold}
    manifest = build_manifest("stats", args, labels, parameters)
    if args.profile:
        for label, (_, profile) in zip(labels, measured):
            if profile is None:
                print(f"warning: graph {label!r} has fewer than 2 located "
                      f"vertices; no profile written", file=sys.stderr)
    for label, (summary, _) in zip(labels, measured):
        if summary.n == 0:
            _warn_empty(label)
    rows = [_stats_row(label, summary)
            for label, (summary, _) in zip(labels, measured)]
    _write_table(STATS_COLUMNS, rows, manifest, args.out)
    for label, (_, profile) in zip(labels, measured):
        if profile is not None:  # graph_distance: a whole number or inf
            atomic_write_bytes(
                args.out.parent / f"profile_{label}.csv",
                _render_csv(("graph_distance", "pairs", "mean_spatial_m",
                             "std_spatial_m"),
                            [[_fmt_float(b.graph_distance, 0), str(b.count),
                              _fmt_float(b.mean_spatial, 3),
                              _fmt_float(b.std_spatial, 3)]
                             for b in profile.buckets],
                            f"manifest: {manifest['manifest_hash']}"))
    return 0


def cmd_sweep(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    base = ExtractionMethod.from_code(f"{args.base}_k",
                                      component_threshold=args.threshold)
    db = _load_merged(args, parser)
    k_values = (list(default_k_range(db)) if args.k_range is None
                else args.k_range)
    points = sweep_k(db, base, k_values)
    manifest = build_manifest(
        "sweep", args, [f"{args.base}_k"],
        {"k_range": f"{k_values[0]}..{k_values[-1]}",
         "threshold": args.threshold})
    rows = [[str(p.k), str(p.coverage), _fmt_float(p.rho, 4),
             str(p.summary.n), str(p.summary.m), str(p.summary.components),
             _fmt_float(p.summary.d_harm, 2)] for p in points]
    _write_table(("k", "coverage", "rho", "n", "m", "components", "d_harm"),
                 rows, manifest, args.out)
    best = select_best(points)
    print(f"selected k={best.k} coverage={best.coverage} "
          f"rho={_fmt_float(best.rho, 4) or 'nan'}")
    return 0


def cmd_communities(args: argparse.Namespace,
                    parser: argparse.ArgumentParser) -> int:
    _check_inputs(args, parser, "graph")
    if args.graph is not None:
        g = read_cache(args.graph)
        methods = [g.method.code if g.method else "unknown"]
    else:
        methods, _, variants = _extractions(args, parser)
        (g,) = variants
    if g.n == 0:
        raise EmptyResult("cannot partition an empty graph",
                          path=args.graph and str(args.graph))
    manifest = build_manifest(
        "communities", args, methods,
        {"seed": args.seed, "k": args.k, "threshold": args.threshold})
    mhash = manifest["manifest_hash"]
    mark = f"manifest: {mhash}"

    partition = louvain(g, seed=args.seed)
    stats = community_stats(g, partition)
    network = community_network(g, partition)

    atomic_write_bytes(args.out / "partition.csv", _render_csv(
        ("vertex_id", "community"),
        [[vid, str(c)] for vid, c in partition.assignment.items()], mark))
    atomic_write_bytes(args.out / "community_stats.csv", _render_csv(
        ("community", "n", "m", "delta", "properties", "share", "d_max",
         "d_harm", "rho_d"),
        [[str(c), str(s.n), str(s.m), _fmt_float(s.delta, 4),
          str(s.property_count),
          _fmt_float(100.0 * (s.property_count / s.n), 2),
          str(s.d_max), _fmt_float(s.d_harm, 2), _fmt_float(s.rho_d, 2)]
         for c, s in enumerate(stats, 1)], mark))
    atomic_write_bytes(args.out / "community_network.gexf",
                       community_gexf_bytes(network, mhash))
    atomic_write_bytes(args.out / "composition_kinds.csv", _render_csv(
        ("community", "kind", "count"),
        [[str(node.community), kind, str(count)] for node in network.nodes
         for kind, count in node.kind_counts.items()], mark))
    atomic_write_bytes(args.out / "composition_parishes.csv", _render_csv(
        ("community", "parish", "count"),
        [[str(node.community), parish, str(count)]
         for node in network.nodes
         for parish, count in node.parish_counts.items()], mark))
    atomic_write_bytes(args.out / "composition_walls.csv", _render_csv(
        ("community", "inside", "outside", "unknown"),
        [[str(node.community), str(node.walls_inside),
          str(node.walls_outside), str(node.walls_unknown)]
         for node in network.nodes], mark))
    _write_manifest(manifest, args.out / "manifest.json")

    levels = " -> ".join(f"{q:.4f}" for q in partition.level_modularities)
    print(f"communities={partition.community_count()} "
          f"Q={partition.modularity:.4f} "
          f"size_gini={size_gini(partition):.4f}")
    if levels:
        print(f"level modularity: {levels}")
    return 0


def cmd_dump_normalization(args: argparse.Namespace,
                           parser: argparse.ArgumentParser) -> int:
    rows = [[r["raw_type"], r["translation"], r["default"], r["surface"],
             r["street"]] for r in normalization_rows()]
    _emit(_render_csv(("raw_type", "translation", "default", "surface",
                       "street"), rows,
                      f"normalization table v{TABLE_VERSION}"), args.out)
    return 0


# --- parser wiring --------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="confront-net",
                     description="Extract and analyse spatial confrontation "
                                 "networks from land-register databases.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_extract = sub.add_parser(
        "extract", help="extract graphs for one or all method codes")
    _add_db_arguments(p_extract)
    group = p_extract.add_mutually_exclusive_group(required=True)
    group.add_argument("--method", choices=METHOD_CODES,
                       help="method code to extract")
    group.add_argument("--all", action="store_true",
                       help="extract all 16 methods")
    p_extract.add_argument("--k", type=_int_at_least(0), default=None,
                           help="number of longest streets for _k methods")
    p_extract.add_argument(
        "--threshold", type=_int_at_least(1),
        default=DEFAULT_COMPONENT_THRESHOLD,
        help=f"minimum component size (default {DEFAULT_COMPONENT_THRESHOLD})")
    p_extract.add_argument("--out", type=Path, required=True,
                           help="output directory")
    p_extract.add_argument("--format", choices=("graphml", "gexf"),
                           default="graphml", help="graph file format")
    p_extract.add_argument("--warnings", action="store_true",
                           help="print every data warning")
    p_extract.set_defaults(func=cmd_extract, parser=p_extract)

    p_stats = sub.add_parser("stats",
                             help="Table-style statistics CSV per method")
    _add_db_arguments(p_stats, required=False)
    group = p_stats.add_mutually_exclusive_group(required=True)
    group.add_argument("--graphs", type=Path, default=None,
                       help=f"directory of *{CACHE_SUFFIX} files")
    group.add_argument("--method", choices=METHOD_CODES, default=None)
    group.add_argument("--all", action="store_true",
                       help="compute all 16 methods inline")
    p_stats.add_argument("--baseline", type=_int_at_least(1), default=None,
                         help="coverage denominator for --graphs mode")
    p_stats.add_argument("--k", type=_int_at_least(0), default=None)
    p_stats.add_argument("--threshold", type=_int_at_least(1), default=None)
    p_stats.add_argument("--out", type=Path, default=None,
                         help="output CSV (default stdout)")
    p_stats.add_argument("--profile", action="store_true",
                         help="also write per-method distance profiles")
    p_stats.add_argument("--warnings", action="store_true")
    p_stats.set_defaults(func=cmd_stats, parser=p_stats)

    p_sweep = sub.add_parser("sweep",
                             help="sweep k for a TopK method family")
    _add_db_arguments(p_sweep)
    families = tuple(c[:-2] for c in METHOD_CODES if c.endswith("_k"))
    p_sweep.add_argument("--base", choices=families, required=True,
                         help="method family to sweep")
    p_sweep.add_argument("--k-range", type=_parse_range, default=None,
                         metavar="A..B",
                         help="inclusive k range (default 0..10%% of streets)")
    p_sweep.add_argument("--threshold", type=_int_at_least(1),
                         default=DEFAULT_COMPONENT_THRESHOLD)
    p_sweep.add_argument("--out", type=Path, default=None,
                         help="output CSV (default stdout)")
    p_sweep.add_argument("--warnings", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep, parser=p_sweep)

    p_comm = sub.add_parser("communities",
                            help="Louvain partition and community reports")
    _add_db_arguments(p_comm, required=False)
    group = p_comm.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", type=Path, default=None,
                       help=f"graph cache file (*{CACHE_SUFFIX})")
    group.add_argument("--method", choices=METHOD_CODES, default=None)
    p_comm.add_argument("--k", type=_int_at_least(0), default=None)
    p_comm.add_argument("--threshold", type=_int_at_least(1), default=None)
    p_comm.add_argument("--seed", type=int, default=0,
                        help="Louvain shuffle seed (default 0)")
    p_comm.add_argument("--out", type=Path, required=True,
                        help="output directory")
    p_comm.add_argument("--warnings", action="store_true")
    p_comm.set_defaults(func=cmd_communities, parser=p_comm)

    p_dump = sub.add_parser("dump-normalization",
                            help="print the 42-entry normalization table")
    p_dump.add_argument("--out", type=Path, default=None,
                        help="output CSV (default stdout)")
    p_dump.set_defaults(func=cmd_dump_normalization, parser=p_dump)
    return parser


# The register file at fault for an error found after loading. Without a
# segments file, the segments are inline in the objects file.
_FILE_AT_FAULT = {ConflictingMerge: "relations", MissingLength: "objects",
                  MissingSegments: "segments", TakenVertexId: "segments"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args, args.parser)
    except SystemExit as exc:  # parser.error inside a subcommand
        return int(exc.code or 0)
    except (ConfrontNetError, OSError) as exc:
        field = _FILE_AT_FAULT.get(type(exc))
        where = field and (getattr(args, field) or args.objects)
        if where and exc.path is None:
            exc = type(exc)(str(exc), path=str(where))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
