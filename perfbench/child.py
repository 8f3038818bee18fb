"""One benchmark child: import the CLI, run a workload's commands in order.

Run by ``run.py`` in a fresh interpreter per sample:

    python3 perfbench/child.py JOB.json

The job names the working directory, the ``src`` directory the package
must be imported from, the argv lists to pass to ``cli.main`` one at a
time, and where to write the result. With ``"trace": true`` every layer
function listed in ``LAYERS`` is replaced, at every module and class
attribute of the package that binds it, by a wrapper that records a
span (name, start, end, parent). Spans stay in memory and are written
with the result when the last command has returned. ``src/`` itself is
never modified.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
import traceback

#: Layer functions traced, by module of definition. Dotted names are
#: class attributes.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("build_manifest",),
    "data_model": ("load_database", "validate_database"),
    "normalize": ("merge_equal_objects",),
    "extract": ("build_full_graph", "filter_hierarchy", "handle_nonpunctual",
                "inject_additional", "filter_components", "extract"),
    "graph": ("ConfrontGraph.components", "ConfrontGraph.induced_subgraph"),
    "metrics": ("summarize", "all_pairs_graph_distance", "finite_diameter",
                "harmonic_mean_distance", "spearman_distance_correlation",
                "rank_correlation", "distance_profile"),
    "sweep": ("sweep_k",),
    "community": ("louvain", "community_stats", "community_network"),
    "serialize": ("graphml_bytes", "cache_bytes", "community_gexf_bytes",
                  "read_cache", "atomic_write_bytes"),
}

#: Exceptions the statistics layer raises on degenerate graphs and its
#: callers catch; each one raised is counted once.
_COUNTED_ERRORS = ("NoFinitePairs", "InsufficientCoordinates")


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters = {"metrics.apsp_cells": 0, "metrics.errors": 0,
                         "sweep.points": 0, "community.louvain.levels": 0,
                         "community.communities": 0,
                         "serialize.bytes_written": 0}
        self.extracted: list = []  # graphs returned by extract()
        self.bindings: dict[str, int] = {}
        self._seen_errors: set[int] = set()
        self._error_types: tuple[type, ...] = ()

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except self._error_types as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.counters["metrics.errors"] += 1
                raise
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        counters = self.counters
        if name == "metrics.all_pairs_graph_distance":
            counters["metrics.apsp_cells"] += args[0].n * args[0].n
        elif name == "extract.extract":
            self.extracted.append(result)
        elif name == "sweep.sweep_k":
            counters["sweep.points"] += len(result)
        elif name == "community.louvain":
            counters["community.louvain.levels"] += len(
                result.level_modularities)
            counters["community.communities"] += result.community_count()
        elif name == "serialize.atomic_write_bytes":
            counters["serialize.bytes_written"] += len(args[1])

    def install(self) -> None:
        """Wrap every listed function wherever the package binds it."""
        package = [m for name, m in sys.modules.items()
                   if name == "confront_net" or name.startswith("confront_net.")]
        errors = sys.modules["confront_net.errors"]
        self._error_types = tuple(getattr(errors, n) for n in _COUNTED_ERRORS
                                  if hasattr(errors, n))
        namespaces = []
        for module in package:
            namespaces.append(module)
            namespaces.extend(
                value for value in vars(module).values()
                if isinstance(value, type)
                and value.__module__.startswith("confront_net"))
        for module_name, functions in LAYERS.items():
            module = sys.modules.get(f"confront_net.{module_name}")
            for dotted in functions:
                name = f"{module_name}.{dotted}"
                original = module
                for part in dotted.split("."):
                    original = getattr(original, part, None)
                if original is None:
                    self.bindings[name] = 0
                    continue
                wrapper = self.span(name, original)
                count = 0
                for ns in set(namespaces):
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            count += 1
                self.bindings[name] = count

    def distinct_graphs(self) -> int:
        """Distinct (vertex ids, undirected pairs) among extracted graphs."""
        prints = set()
        for g in self.extracted:
            ids = g.vertex_ids()
            pairs = frozenset((ids[i], ids[j]) for i, j in g.undirected_pairs())
            prints.add((frozenset(ids), pairs))
        return len(prints)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    os.chdir(job["workdir"])
    before_import = time.perf_counter()
    import confront_net.cli as cli
    import_s = time.perf_counter() - before_import
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"confront_net imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    run = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    commands = []
    for argv in job["commands"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = run(list(argv))
        except Exception:  # an uncaught crash fails the command, not the run
            traceback.print_exc()
            rc = -1
        commands.append({"rc": rc, "stdout": out.getvalue()})
    result = {"commands": commands, "import_s": import_s}
    if tracer is not None:
        counters = dict(tracer.counters)
        counters["extract.distinct_graphs"] = tracer.distinct_graphs()
        result.update(spans=tracer.spans, counters=counters,
                      bindings=tracer.bindings)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
