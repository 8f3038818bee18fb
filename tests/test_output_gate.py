"""The output gate: every benchmark workload's commands, run in-process
through `cli.main` on the generated register of four seeds, must give
the result tables recorded in `perfbench/reference.json`. The workloads,
the register generator and the hashing rule are perfbench's own
(`run.WORKLOADS`, `run.write_register`, `run.output_digests`), so the
gate has no second copy of them. The seeds are spread over the 64 of
the reference: rho_d and d_harm are rounded once, and a seed near a
printed digit's boundary shows a change of rounding."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from confront_net import cli

SEEDS = (0, 21, 42, 63)


def load_perfbench_run():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = load_perfbench_run()


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def call(argv):
    """`cli.main(argv)`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_the_result_tables_match_the_reference(name, seed, reference,
                                               tmp_path, monkeypatch):
    w = run.WORKLOADS[name]
    assert reference["scales"][name] == w.scale
    monkeypatch.chdir(tmp_path)
    run.write_register(tmp_path / "register", w.scale, seed)
    if w.setup is not None:
        code, _, err = call(w.setup)
        assert code == 0, err
    (tmp_path / "out").mkdir()
    commands = []
    for argv in w.commands:
        code, stdout, err = call(argv)
        assert code == 0, f"{name} at seed {seed}: {argv[0]}: {err}"
        commands.append({"rc": code, "stdout": stdout})
    gated, _ = run.output_digests(w, tmp_path / "out", {"commands": commands})
    assert gated == reference["workloads"][name][str(seed)]["gated"], (
        f"{name} at register seed {seed}: the result tables differ from "
        f"perfbench/reference.json")
