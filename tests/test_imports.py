"""Each module of the package imports cleanly when it is the first one
a fresh interpreter asks for, so no import order hides a cycle."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import confront_net

SOURCE_ROOT = str(Path(confront_net.__file__).resolve().parents[1])
MODULES = sorted(info.name for info in pkgutil.iter_modules(
    confront_net.__path__))


def test_every_module_is_listed():
    assert {"graph", "normalize", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         f"import confront_net.{name}"],
        env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
