"""Record the output-gate reference hashes for every register in the pool.

Run only at a commit whose outputs are the accepted ones (the hashes in
``reference.json`` were taken at the commit that introduced the
benchmark); a later change that alters a result table must not
re-record them.

    python3 perfbench/make_reference.py [--workload NAME ...]

Entries for workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(run.WORKLOADS))
    args = parser.parse_args()
    recorded = {}
    for name in args.workload or list(run.WORKLOADS):
        w = run.WORKLOADS[name]
        entries = {}
        for seed in range(run.POOL):
            workdir, _ = run.setup(w, seed, w.scale)
            sample = run.sample_once(w, workdir, trace=False)
            codes = [c["rc"] for c in sample.result["commands"]]
            if any(codes):
                raise SystemExit(f"{name} register seed {seed}: exit codes "
                                 f"{codes}; see {workdir}")
            gated, reported = sample.result["digests"]
            entries[str(seed)] = {"gated": gated, "reported": reported}
            print(f"{name} {seed} {gated}", file=sys.stderr, flush=True)
        recorded[name] = entries
        shutil.rmtree(run.WORK / name, ignore_errors=True)
    doc = {"pool": run.POOL, "scales": {}, "workloads": {}}
    if run.REFERENCE.is_file():
        doc = json.loads(run.REFERENCE.read_text())
        if doc["pool"] != run.POOL:
            raise SystemExit(f"{run.REFERENCE} was recorded for a pool of "
                             f"{doc['pool']}, not {run.POOL}")
    for name, entries in recorded.items():
        doc["scales"][name] = run.WORKLOADS[name].scale
        doc["workloads"][name] = entries
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
