"""Malformed inputs, damaged at random, are each a success or a located
data error.

One hypothesis test takes small valid inputs (a CSV register, a JSON
register and a `.graph.json.gz` cache), damages one of their files by a
byte flip, a truncation, two swapped fields, a huge or deeply nested
value, a byte order mark or by emptying it, and runs the CLI on them.
The exit code is 0 or 2, nothing escapes `cli.main` (so no traceback
reaches stderr) and every exit 2 names one of its input files.
The examples found along the way are pinned as plain tests."""

import codecs
import contextlib
import gzip
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_graph, synthetic_database
from register_writer import save_database
from confront_net import cli
from confront_net.extract import ExtractionMethod
from confront_net.serialize import cache_bytes

CACHE = f"g{cli.CACHE_SUFFIX}"

# Values too large for a float, past Python's integer digit limit, past
# the csv module's field limit, nested past the recursion limit, or not
# numbers at all.
HUGE_TEXT = ["1" + "0" * 400, "-1e400", "9" * 5000, "nan", "x" * 200_000,
             "[" * 100_000]
HUGE_JSON = ["1" + "0" * 400, "-1e400", "9" * 5000,
             "[" * 100_000 + "]" * 100_000, '"' + "x" * 200_000 + '"',
             '{"a": ' * 5_000 + "0" + "}" * 5_000, "-0.0", "true", "{}"]
BOMS = [codecs.BOM_UTF8, codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE]
MUTATIONS = ["flip", "truncate", "swap", "huge", "bom", "empty"]


def valid_inputs() -> dict[str, dict[str, bytes]]:
    """Each kind of input as its files' bytes."""
    db = synthetic_database(0)
    g = make_graph([(0, 1), (1, 2), (2, 3), (0, 2)], n=5,
                   coords={i: (float(i), 0.5 * i) for i in range(4)})
    g.method = ExtractionMethod.from_code("EFS_k", k=2)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_database(db, root / "objects.csv", root / "relations.csv",
                      root / "segments.csv")
        save_database(db, root / "objects.json", root / "relations.json")
        files = {name: (root / name).read_bytes()
                 for name in ("objects.csv", "relations.csv", "segments.csv",
                              "objects.json", "relations.json")}
    return {
        "csv": {name: files[name] for name in
                ("objects.csv", "relations.csv", "segments.csv")},
        "json": {name: files[name] for name in
                 ("objects.json", "relations.json")},
        "cache": {CACHE: cache_bytes(g)},
    }


INPUTS = valid_inputs()


def argv_for(kind: str, command: str, root: Path) -> list[str]:
    if kind == "cache":
        if command == "stats":
            return ["stats", "--graphs", str(root)]
        return ["communities", "--graph", str(root / CACHE),
                "--out", str(root / "out")]
    register = [f"--{Path(name).stem}={root / name}" for name in INPUTS[kind]]
    if command == "sweep":
        return ["sweep", *register, "--base", "EFS", "--k-range", "0..2"]
    out = (["--out", str(root / "out")] if command == "extract" else [])
    return [command, *register, "--all", "--k", "2", *out]


def containers(item) -> list:
    """Every JSON array or object under `item` with two or more members."""
    found = []
    stack = [item]
    while stack:
        item = stack.pop()
        members = (list(item.values()) if isinstance(item, dict)
                   else item if isinstance(item, list) else [])
        if len(members) >= 2:
            found.append(item)
        stack.extend(members)
    return found


def mutate_json(data: bytes, mutation: str, draw) -> bytes:
    """Two members of one array or object swapped, or one member
    replaced by a huge value's JSON text."""
    payload = json.loads(data)
    target = draw(st.sampled_from(containers(payload)))
    keys = list(target) if isinstance(target, dict) else range(len(target))
    if mutation == "swap":
        a, b = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2,
                             unique=True))
        target[a], target[b] = target[b], target[a]
        return json.dumps(payload).encode()
    target[draw(st.sampled_from(keys))] = "\0huge\0"
    return json.dumps(payload).encode().replace(
        b'"\\u0000huge\\u0000"', draw(st.sampled_from(HUGE_JSON)).encode())


def mutate_csv(data: bytes, mutation: str, draw) -> bytes:
    """Two fields of one line swapped, or one field replaced by a huge
    value."""
    lines = data.split(b"\n")
    at = draw(st.integers(0, len(lines) - 2))  # the text ends in "\n"
    fields = lines[at].split(b",")
    if mutation == "swap":
        a, b = draw(st.lists(st.integers(0, len(fields) - 1), min_size=2,
                             max_size=2, unique=True))
        fields[a], fields[b] = fields[b], fields[a]
    else:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.sampled_from(HUGE_TEXT)).encode()
    lines[at] = b",".join(fields)
    return b"\n".join(lines)


def mutate(name: str, data: bytes, mutation: str, draw) -> bytes:
    """`data`, the bytes of file `name`, damaged by `mutation`. A cache's
    bytes are damaged as they are, its fields inside the gzip stream."""
    if mutation == "empty":
        return b""
    if mutation == "bom":
        return draw(st.sampled_from(BOMS)) + data
    if mutation == "flip":
        at = draw(st.integers(0, len(data) - 1))
        mask = draw(st.integers(1, 255))
        return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]
    if mutation == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if name == CACHE:
        return gzip.compress(mutate_json(gzip.decompress(data), mutation,
                                         draw))
    if name.endswith(".json"):
        return mutate_json(data, mutation, draw)
    return mutate_csv(data, mutation, draw)


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_success_or_located(argv: list[str], root: Path) -> None:
    """Exit 0, or exit 2 with a one-line message that names one of the
    input files; `cli.main` raising fails the test with the traceback."""
    code, err = run_cli(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        message = err.splitlines()[-1]
        assert message.startswith("error: "), err
        assert any(str(path) in message for path in root.iterdir()
                   if path.is_file()), message


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                  HealthCheck.data_too_large])
@given(data=st.data(), kind=st.sampled_from(sorted(INPUTS)),
       mutation=st.sampled_from(MUTATIONS))
def test_damaged_inputs_exit_0_or_with_a_located_error(data, kind, mutation):
    files = dict(INPUTS[kind])
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    files[name] = mutate(name, files[name], mutation, data.draw)
    commands = (["stats", "communities"] if kind == "cache"
                else ["stats", "extract", "sweep"])
    command = data.draw(st.sampled_from(commands), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file, content in files.items():
            (root / file).write_bytes(content)
        assert_success_or_located(argv_for(kind, command, root), root)


@pytest.mark.parametrize("kind,command", [
    ("csv", "stats"), ("csv", "extract"), ("csv", "sweep"), ("json", "stats"),
    ("json", "extract"), ("json", "sweep"), ("cache", "stats"),
    ("cache", "communities")])
def test_the_valid_inputs_exit_0(tmp_path, kind, command):
    for name, content in INPUTS[kind].items():
        (tmp_path / name).write_bytes(content)
    code, err = run_cli(argv_for(kind, command, tmp_path))
    assert code == 0, err


@pytest.mark.parametrize("command", ["stats", "extract", "sweep"])
@pytest.mark.parametrize("street,a,b,lacking,message", [
    # Found by the test above: st00 has no segments, and its y swapped
    # into length_m (868 m) ranks it among the k longest.
    ("st00", 5, 6, "segments.csv",
     "street 'st00' is among the {k} longest but has no segments to split "
     "into"),
    # The same fault through the length: st01's swapped with its empty
    # parish field.
    ("st01", 6, 7, "objects.csv",
     "street 'st01' has no length_m; cannot rank streets"),
], ids=["y-as-length", "no-length"])
def test_a_street_the_plan_cannot_use_names_the_file_that_lacks_it(
        tmp_path, command, street, a, b, lacking, message):
    lines = INPUTS["csv"]["objects.csv"].split(b"\n")
    at = next(i for i, line in enumerate(lines)
              if line.startswith(f"{street},".encode()))
    fields = lines[at].split(b",")
    fields[a], fields[b] = fields[b], fields[a]
    lines[at] = b",".join(fields)
    files = {**INPUTS["csv"], "objects.csv": b"\n".join(lines)}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    code, err = run_cli(argv_for("csv", command, tmp_path))
    message = message.format(k=1 if command == "sweep" else 2)  # k 0..2
    assert (code, err.splitlines()[-1]) == (
        2, f"error: {message} [{tmp_path / lacking}]")


def test_a_json_street_whose_segments_are_damaged_names_its_file(tmp_path):
    """Found by the test above: one flipped bit puts street st06's
    inline segments under the key "segmentr", so it has none."""
    objects, relations = (tmp_path / "objects.json",
                          tmp_path / "relations.json")
    records = json.loads(INPUTS["json"]["objects.json"])
    st06 = next(rec for rec in records if rec["id"] == "st06")
    st06["segmentr"] = st06.pop("segments")
    objects.write_text(json.dumps(records))
    relations.write_bytes(INPUTS["json"]["relations.json"])
    code, err = run_cli(argv_for("json", "stats", tmp_path))
    assert (code, err.splitlines()[-1]) == (
        2, f"error: street 'st06' is among the 2 longest but has no segments "
           f"to split into [{objects}]")
