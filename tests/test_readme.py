"""README's "Library" block, run as written on a small register, so the
documented API cannot drift from the package."""

import contextlib
import io
import re
from pathlib import Path

from conftest import synthetic_database
from register_writer import save_database

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_block_runs_as_written(tmp_path, monkeypatch):
    # At k = 7 this register keeps no RFW_k or EFW_k component of 25.
    save_database(synthetic_database(86), tmp_path / "objects.csv",
                  tmp_path / "relations.csv", tmp_path / "segments.csv")
    monkeypatch.chdir(tmp_path)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_block(), str(README), "exec"), {})
    communities, summary, empty = printed.getvalue().splitlines()
    assert summary.startswith("GraphSummary(")
    assert int(communities) > 0
    assert empty == "['RFW_k', 'EFW_k']"
