"""Every file the CLI reads: whatever it holds or wherever it points, every
subcommand exits 0, 1 or 2 and nothing escapes `main`.

Each example writes a small, valid set of input files, breaks one file a
subcommand reads (its contents, one value inside it, or the path that
names it) and runs the subcommand in-process.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.cli import main
from scenekit.promptgen.stubserver import StubLLMServer

DATA = Path(__file__).resolve().parent.parent / "src" / "scenekit" / "data"
SCRIPT = "ego = new Car on lane main_a at 30.0 with speed 10.0\nterminate when time above 0.2\n"
GOOD_RESPONSE = "```\nego = new Car at (0.0, 0.0) with speed 5.0\n```"
CAMERA = {"variant": "topdown", "center": [30.0, 0.0], "meters_per_pixel": 1.0, "width": 16, "height": 16}
STUB_URL = "STUB_URL"

# every subcommand: its argv (file names relative to the example's directory)
# and the files it reads, directly or through a config file
COMMANDS = {
    "validate": (["validate", "script.scn"], ["script.scn"]),
    "sim": (
        ["sim", "script.scn", "--map", "map.json", "--max-duration", "1", "-o", "out"],
        ["script.scn", "map.json"],
    ),
    "render": (
        ["render", "trace.json", "--map", "map.json", "--camera", "camera.json",
         "--weights", "weights.json", "-o", "out"],
        ["trace.json", "map.json", "camera.json", "weights.json"],
    ),
    "bundle": (
        ["bundle", "trace.json", "--map", "map.json", "--camera", "camera.json",
         "--weights", "weights.json", "--steps", "1", "-o", "out"],
        ["trace.json", "map.json", "camera.json", "weights.json"],
    ),
    "bundle-verify": (["bundle", "--verify", "bundle"], ["bundle/manifest.json"]),
    "pipeline": (
        ["pipeline", "--config", "pipeline.json", "-o", "out"],
        ["pipeline.json", "script.scn", "map.json", "camera.json", "weights.json"],
    ),
    "gen": (
        ["gen", "--base-url", STUB_URL, "--model", "m", "--type", "vehicle-cut-in",
         "--config", "gen.json", "-o", "out"],
        ["gen.json", "lib/index.json", "lib/a.scn"],
    ),
    "stub-llm": (["stub-llm", "--responses", "responses.json"], ["responses.json"]),
}

DEEP = "[" * 5000 + "]" * 5000
# JSON text put in place of one value, or of the whole file
FRAGMENTS = [
    "NaN", "Infinity", "-Infinity", "1e400", "1" * 401, "1" * 5000, DEEP,
    "null", "true", "0", "-1", "[]", "{}",
    '""', '"\\u0000"', '"a\\u0000b"', '"missing.json"', '"."', json.dumps("a" * 5000),
]
# whole files that are not JSON, or not UTF-8
NOT_JSON = [b"", b"{", b"\xff\xfe", b'{"a": "\xff"}', b"ego = new Car at (0.0, 0.0) \xff\n"]
# what an argv path is swapped for
BAD_PATHS = ["missing.json", ".", "a" * 5000, "a\x00b", ""]

_SENTINEL = "\u0001swap\u0001"


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


def _swap(good, path, fragment: str) -> bytes:
    """`good` as JSON with the value at `path` replaced by the text `fragment`."""
    if not path:
        return fragment.encode()
    out = copy.deepcopy(good)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = _SENTINEL
    return json.dumps(out).replace(json.dumps(_SENTINEL), fragment).encode()


@pytest.fixture(scope="module")
def stub():
    with StubLLMServer([GOOD_RESPONSE]) as server:
        yield server


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """name -> the valid contents of every input file, JSON ones as values;
    plus the directory of a valid bundle to verify."""
    root = tmp_path_factory.mktemp("good")
    files = {
        "script.scn": SCRIPT,
        "map.json": json.loads((DATA / "maps" / "straight.map.json").read_text()),
        "camera.json": CAMERA,
        "weights.json": {"depth": 0.5, "edge": 0.5},
        "pipeline.json": {
            "script": "script.scn", "map": "map.json", "camera": "camera.json",
            "weights": "weights.json", "variations": 1, "steps": 1, "max_duration": 1.0,
        },
        "gen.json": {"library": "lib", "examples": 1, "temperature": 0.5, "repair_limit": 0},
        "lib/index.json": {
            "entries": [{"id": "a", "scenario_type": "vehicle-cut-in", "description": "d", "file": "a.scn"}]
        },
        "lib/a.scn": "ego = new Car at (0.0, 0.0)\n",
        "responses.json": [GOOD_RESPONSE],
    }
    _write_all(root, files)
    assert main(["sim", str(root / "script.scn"), "--map", "straight", "-o", str(root / "sim")]) == 0
    files["trace.json"] = json.loads((root / "sim" / "trace.json").read_text())
    _write_all(root, files)
    bundle = root / "bundle"
    argv = ["bundle", str(root / "sim" / "trace.json"), "--map", "straight"]
    assert main([*argv, "--camera", str(root / "camera.json"), "--steps", "1", "-o", str(bundle)]) == 0
    files["bundle/manifest.json"] = json.loads((bundle / "manifest.json").read_text())
    return files, bundle


def _write_all(root: Path, files: dict) -> None:
    for name, value in files.items():
        path = root / name
        path.parent.mkdir(exist_ok=True)
        if isinstance(value, str):
            path.write_text(value)
        else:
            path.write_text(json.dumps(value))


@st.composite
def _broken_run(draw, files):
    """(command, argv, the file it breaks, how, the bytes or argv path put in) for one example."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, reads = COMMANDS[command]
    argv = list(argv)
    target = draw(st.sampled_from(reads))
    value = files[target]
    breaks = [("missing", None), ("directory", None), ("bytes", st.sampled_from(NOT_JSON))]
    if not isinstance(value, str):
        paths = list(_paths(value))
        swapped = st.builds(_swap, st.just(value), st.sampled_from(paths), st.sampled_from(FRAGMENTS))
        breaks.append(("bytes", swapped))
    reference = target.split("/")[0]
    if reference in argv[1:]:  # not the subcommand `bundle`
        breaks.append(("argv", st.sampled_from(BAD_PATHS)))
    how, strategy = draw(st.sampled_from(breaks))
    detail = draw(strategy) if strategy is not None else None
    if how == "argv":
        argv[argv.index(reference, 1)] = detail
    if command == "pipeline":
        argv += ["--jobs", draw(st.sampled_from(["1", "2"]))]
    return command, argv, target, how, detail


class _Served(Exception):
    """The stub server would have started: its responses file loaded."""


def _refuse_to_serve(self):
    raise _Served


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_no_input_file_makes_a_subcommand_escape(good, stub, data):
    files, bundle = good
    command, argv, target, how, detail = data.draw(_broken_run(files))
    argv = [stub.base_url if arg == STUB_URL else arg for arg in argv]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_all(root, {k: v for k, v in files.items() if not k.startswith("bundle/")})
        shutil.copytree(bundle, root / "bundle")
        path = root / target
        if how in ("missing", "directory"):
            path.unlink()
            if how == "directory":
                path.mkdir()
        elif how == "bytes":
            path.write_bytes(detail)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(root)
        try:
            with mock.patch.object(StubLLMServer, "start", _refuse_to_serve):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        except _Served:
            code = 0
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (command, target, how, err.getvalue())
    assert "Traceback" not in err.getvalue()
