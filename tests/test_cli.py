"""Subcommand behavior and exit-code contract."""

import hashlib
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import tracemalloc
import types
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

from scenekit import cli
from scenekit.cli import main
from scenekit.condgen.bundle import verify_bundle
from scenekit.condgen.diffusion import MockDenoiser, run_diffusion
from scenekit.dsl.nodes import AgentClass
from scenekit.promptgen.stubserver import StubLLMServer
from scenekit.render.cameras import MAX_IMAGE_SIDE, MAX_RAY_SLOPE, MAX_WORLD_COORD, PinholeCamera, TopDownCamera
from scenekit.render.cameras import camera_from_dict
from scenekit.render.combine import combine_controls, normalize_modality
from scenekit.render.formats import encode_pfm, read_pfm, read_pgm
from scenekit.render.raster import prepare_static
from scenekit.sim.engine import AgentState
from scenekit.sim.worldmap import builtin_map
from test_sim import LIBRARY, LIBRARY_MAPS

FIXTURES = Path(__file__).parent / "data" / "fixtures"

GOOD_RESPONSE = "```\nego = new Car at (0.0, 0.0) with speed 5.0\nterminate when time above 3.0\n```"
BAD_RESPONSE = "```\nego = new Car at (0.0, 0.0) with speed Range(9.0, 2.0)\n```"

VARIATION_SCRIPT = """param gap = Range(25.0, 40.0)

behavior Cruise(v):
    follow lane at v

behavior HardBrake(rate):
    brake at rate when time above 1.0

ego = new Car on lane main_a at 20.0 with speed 14.0 with behavior Cruise(14.0)
lead = new Car ahead of ego by gap with speed 8.0 with behavior HardBrake(4.5)

require collision of rear-end
terminate when time above 15.0
"""


def _small_camera(tmp_path, size=48, mpp=0.5, center=(50.0, 0.0)):
    path = tmp_path / "camera.json"
    path.write_text(
        json.dumps(
            {
                "variant": "topdown",
                "center": list(center),
                "meters_per_pixel": mpp,
                "width": size,
                "height": size,
            }
        )
    )
    return str(path)


# --- validate -----------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURES / "rear_end.scn")]) == 0
    # diagnostics stream is empty for a clean script
    assert capsys.readouterr().out == ""


def test_validate_domain_failure(tmp_path, capsys):
    script = tmp_path / "bad.scn"
    script.write_text("other = new Truck at (0.0, 0.0)\n")
    assert main(["validate", str(script)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert any(r["code"] == "E_NO_EGO" for r in records)
    assert all({"severity", "code", "line", "col", "message"} <= set(r) for r in records)


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.scn")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_no_subcommand_is_env_failure(capsys):
    assert main([]) == 2


# --- gen ----------------------------------------------------------------


def test_gen_success_writes_script_and_transcript(tmp_path):
    with StubLLMServer([BAD_RESPONSE, GOOD_RESPONSE]) as stub:
        code = main(
            [
                "gen",
                "--base-url",
                stub.base_url,
                "--model",
                "m",
                "--type",
                "t-bone-collision",
                "--seed",
                "4",
                "-o",
                str(tmp_path / "gen"),
            ]
        )
    assert code == 0
    transcript = json.loads((tmp_path / "gen" / "transcript.json").read_text())
    assert transcript["outcome"] == "success"
    assert len(transcript["rounds"]) == 2
    script = (tmp_path / "gen" / "scenario.scn").read_text()
    assert script.startswith("ego = new Car")


def test_gen_exhausted_is_domain_failure(tmp_path):
    with StubLLMServer([BAD_RESPONSE]) as stub:
        code = main(
            [
                "gen",
                "--base-url",
                stub.base_url,
                "--model",
                "m",
                "--type",
                "vehicle-cut-in",
                "--repair-limit",
                "1",
                "-o",
                str(tmp_path / "gen"),
            ]
        )
    assert code == 1
    transcript = json.loads((tmp_path / "gen" / "transcript.json").read_text())
    assert transcript["outcome"] == "exhausted"
    assert not (tmp_path / "gen" / "scenario.scn").exists()


def test_gen_unconfigured_endpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SCENEKIT_LLM_BASE_URL", raising=False)
    monkeypatch.delenv("SCENEKIT_LLM_MODEL", raising=False)
    assert main(["gen", "--type", "vehicle-cut-in", "-o", str(tmp_path)]) == 2
    assert "endpoint not configured" in capsys.readouterr().err


def test_gen_endpoint_from_environment(tmp_path, monkeypatch):
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        monkeypatch.setenv("SCENEKIT_LLM_BASE_URL", stub.base_url)
        monkeypatch.setenv("SCENEKIT_LLM_MODEL", "env-model")
        code = main(["gen", "--type", "vehicle-cut-in", "-o", str(tmp_path / "gen")])
        assert code == 0
        assert stub.requests[0]["model"] == "env-model"


def test_gen_unknown_type(tmp_path, capsys):
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        code = main(
            ["gen", "--base-url", stub.base_url, "--model", "m", "--type", "head-on", "-o", str(tmp_path)]
        )
    assert code == 2
    assert "unknown scenario type" in capsys.readouterr().err


LIBRARY_SCRIPT = b"ego = new Car at (0.0, 0.0)\n"
ENTRY = {"id": "a", "scenario_type": "vehicle-cut-in", "description": "d", "file": "a.scn"}
BAD_LIBRARIES = {
    "index_not_object": (b"[1]", LIBRARY_SCRIPT),
    "entry_not_object": (b'{"entries": [5]}', LIBRARY_SCRIPT),
    "entry_id_not_string": (json.dumps({"entries": [{**ENTRY, "id": [1]}]}).encode(), LIBRARY_SCRIPT),
    "index_not_utf8": (b'{"entries": [], "x": "\xff\xfe"}', LIBRARY_SCRIPT),
    "script_not_utf8": (json.dumps({"entries": [ENTRY]}).encode(), b"ego = new Car \xff\xfe\n"),
    "no_entries": (b'{"entries": []}', LIBRARY_SCRIPT),
}


@pytest.mark.parametrize("case", sorted(BAD_LIBRARIES))
def test_gen_rejects_malformed_library(tmp_path, capsys, case):
    index, script = BAD_LIBRARIES[case]
    library = tmp_path / "lib"
    library.mkdir()
    (library / "index.json").write_bytes(index)
    (library / "a.scn").write_bytes(script)
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        code = main(
            [
                "gen",
                "--base-url",
                stub.base_url,
                "--model",
                "m",
                "--type",
                "vehicle-cut-in",
                "--library",
                str(library),
                "-o",
                str(tmp_path / "gen"),
            ]
        )
        assert not stub.requests
    assert code == 2
    assert "cannot load example library" in capsys.readouterr().err


def _llm_argv(command, base_url, out, *extra):
    argv = [command, "--base-url", base_url, "--model", "m", "--type", "rear-end-collision"]
    return [*argv, *(["--map", "straight"] if command == "pipeline" else []), *extra, "-o", str(out)]


@pytest.mark.parametrize("command", ["gen", "pipeline"])
def test_blank_completion_is_env_failure(tmp_path, capsys, command):
    with StubLLMServer(["   "]) as stub:
        assert main(_llm_argv(command, stub.base_url, tmp_path / "out")) == 2
        assert len(stub.requests) == 1
    assert "empty completion" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_rejects_empty_library(tmp_path, capsys):
    library = tmp_path / "lib"
    library.mkdir()
    (library / "index.json").write_bytes(BAD_LIBRARIES["no_entries"][0])
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        assert main(_llm_argv("pipeline", stub.base_url, tmp_path / "out", "--library", str(library))) == 2
        assert not stub.requests
    assert "cannot load example library" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- sim ----------------------------------------------------------------


def test_sim_rear_end_fixture(tmp_path, capsys):
    code = main(
        ["sim", str(FIXTURES / "rear_end.scn"), "--map", "straight", "-o", str(tmp_path / "s")]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["termination"] == "collision"
    assert report["events"][0]["classification"] == "rear-end"
    assert all(r["passed"] for r in report["requirements"])
    assert (tmp_path / "s" / "trace.json").is_file()


def test_sim_requirement_failure(tmp_path, capsys):
    script = tmp_path / "lonely.scn"
    script.write_text(
        "ego = new Car on lane main_a at 5.0 with speed 3.0\n"
        "require collision\n"
        "terminate when time above 1.0\n"
    )
    code = main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["requirements"] == [{"text": "require collision", "passed": False}]


# An ego whose position leaves the float range some 1.8 s in.
RUNAWAY_SCRIPT = (
    "ego = new Car at (0.0, 0.0) with speed 1e308\n"
    "lead = new Car at (0.0, 50.0)\n"
    "terminate when time above {horizon}\n"
)


def test_sim_refuses_to_write_a_non_finite_trace(tmp_path, capsys):
    script = tmp_path / "runaway.scn"
    script.write_text(RUNAWAY_SCRIPT.format(horizon=5.0))
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")]) == 1
    assert "non-finite" in json.loads(capsys.readouterr().out)["error"]
    assert not (tmp_path / "s").exists()


def test_pipeline_records_a_non_finite_trace_as_a_row_error(tmp_path, capsys):
    script = tmp_path / "runaway.scn"
    script.write_text(RUNAWAY_SCRIPT.format(horizon=2.0))
    out = tmp_path / "out"
    assert main(_pipeline_args(tmp_path, script, out, ["-n", "1"])) == 1  # no variation passes
    [row] = json.loads((out / "summary.json").read_text())["variations"]
    assert "non-finite" in row["error"] and not row["passed"]


def test_pipeline_fails_a_non_finite_trace_before_rendering(tmp_path, capsys, monkeypatch):
    rendered = []
    render_frame = cli.render_frame
    monkeypatch.setattr(cli, "render_frame", lambda *args: rendered.append(1) or render_frame(*args))
    script = tmp_path / "runaway.scn"
    script.write_text(RUNAWAY_SCRIPT.format(horizon=2.0))
    out = tmp_path / "out"
    assert main(_pipeline_args(tmp_path, script, out, ["-n", "1"])) == 1
    [row] = json.loads((out / "summary.json").read_text())["variations"]
    assert "non-finite" in row["error"]
    assert rendered == []
    assert not (out / "var-000").exists()


PINHOLE_CAMERA = {"variant": "pinhole", "position": [0.0, -30.0, 1.2], "yaw_deg": 90.0,
                  "focal_px": 64.0, "width": 64, "height": 48}


@pytest.mark.parametrize("pinhole", [False, True], ids=["topdown", "pinhole"])
def test_runaway_render_and_pipeline_print_no_warnings(tmp_path, pinhole):
    # A box projected past the float range overflows in the raster's
    # projection; that is handled, and must not leak numpy warnings.
    script = tmp_path / "runaway.scn"
    script.write_text(RUNAWAY_SCRIPT.format(horizon=0.2))
    if pinhole:
        camera = tmp_path / "pinhole.json"
        camera.write_text(json.dumps(PINHOLE_CAMERA))
    else:  # fine enough that the box's pixel coordinates overflow
        camera = _small_camera(tmp_path, mpp=0.05)
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")]) == 0
    runs = [
        ["render", str(tmp_path / "s" / "trace.json"), "--map", "straight", "--camera", str(camera),
         "-o", str(tmp_path / "r")],
        ["pipeline", "--script", str(script), "--map", "straight", "--camera", str(camera),
         "--steps", "1", "-n", "1", "-o", str(tmp_path / "p")],
    ]
    for argv in runs:
        result = subprocess.run(
            [sys.executable, "-W", "default", "-m", "scenekit.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert result.stderr == "", argv[0]
    [row] = json.loads((tmp_path / "p" / "summary.json").read_text())["variations"]
    assert row["error"] is None and row["bundle"] == "var-000"


@pytest.mark.parametrize("pinhole", [False, True], ids=["topdown", "pinhole"])
def test_render_huge_coordinates_draw_nothing(tmp_path, capsys, pinhole):
    # The ego reaches 2e307 m: past the float range once projected.
    script = tmp_path / "runaway.scn"
    script.write_text(RUNAWAY_SCRIPT.format(horizon=0.2))
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    (tmp_path / "camera.json").write_text(json.dumps(PINHOLE_CAMERA))
    argv = ["render", str(tmp_path / "s" / "trace.json"), "--map", "straight", "-o", str(tmp_path / "r")]
    if pinhole:
        argv += ["--camera", str(tmp_path / "camera.json")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == 5


def test_sim_compile_failure(tmp_path, capsys):
    script = tmp_path / "broken.scn"
    script.write_text("ego = new Car at (0.0,\n")
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(json.loads(line)["severity"] == "error" for line in lines)


def test_sim_reports_a_range_that_draws_past_the_float_range(tmp_path, capsys):
    script = tmp_path / "wide.scn"
    script.write_text("param g = Range(-1e308, 1e308)\nego = new Car at (0.0, g)\n")
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")]) == 1
    [line] = capsys.readouterr().out.splitlines()
    assert json.loads(line)["error"].startswith("Range(-1e+308, 1e+308) drew inf")
    assert not (tmp_path / "s").exists()


def test_validate_rejects_a_number_past_the_float_range(tmp_path, capsys):
    script = tmp_path / "huge.scn"
    script.write_text("param g = 1e400\nego = new Car at (0.0, g)\n")
    assert main(["validate", str(script)]) == 1
    [record] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [record[k] for k in ("code", "line", "col", "end_col")] == ["E_LEX", 1, 11, 16]


def test_sim_missing_map(tmp_path, capsys):
    code = main(
        ["sim", str(FIXTURES / "rear_end.scn"), "--map", "atlantis", "-o", str(tmp_path / "s")]
    )
    assert code == 2
    assert "cannot load map" in capsys.readouterr().err


@pytest.mark.parametrize("width", ['"wide"', "NaN", pytest.param("1" * 401, id="int-past-float-range")])
def test_sim_rejects_bad_lane_width_as_env_failure(tmp_path, capsys, width):
    world = tmp_path / "bad.map.json"
    world.write_text(
        '{"lanes": [{"id": "main_a", "width": %s, "centerline": [[0, 0], [100, 0]]}]}' % width
    )
    code = main(["sim", str(FIXTURES / "rear_end.scn"), "--map", str(world), "-o", str(tmp_path / "s")])
    assert code == 2
    assert "width" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sim_refuses_a_map_whose_name_is_not_a_string(tmp_path, capsys):
    # `render` would refuse the trace such a map gives (its `map` must be a string)
    doc = json.loads((Path(cli.__file__).parent / "data" / "maps" / "straight.map.json").read_text())
    world = tmp_path / "m.json"
    world.write_text(json.dumps({**doc, "name": 5}))
    code = main(["sim", str(FIXTURES / "rear_end.scn"), "--map", str(world), "-o", str(tmp_path / "out")])
    assert code == 2
    assert "name must be str" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FOLLOWER_SCRIPT = "behavior Go(v):\n    follow lane at v\nego = new Car {place} with behavior Go({speed})\n"


def _map_file(tmp_path, lanes):
    path = tmp_path / "custom.map.json"
    path.write_text(json.dumps({"name": "custom", "lanes": lanes}))
    return str(path)


@pytest.mark.parametrize(
    "speed,dt,code", [(1e200, 0.05, 0), (1e308, 2.0, 1)], ids=["far-position", "infinite-position"]
)
def test_sim_follows_a_looped_lane_graph_at_any_speed(tmp_path, capsys, speed, dt, code):
    corners = [[0.0, 0.0], [50.0, 0.0], [50.0, 50.0], [0.0, 50.0]]
    world = _map_file(
        tmp_path,
        [
            {"id": lane_id, "width": 3.5, "centerline": [corners[k], corners[(k + 1) % 4]],
             "successors": ["abcd"[(k + 1) % 4]]}
            for k, lane_id in enumerate("abcd")
        ],
    )
    script = tmp_path / "loop.scn"
    script.write_text(FOLLOWER_SCRIPT.format(place="on lane a at 5.0", speed=speed))
    argv = ["sim", str(script), "--map", world, "--dt", str(dt), "--max-duration", "20", "-o", str(tmp_path / "s")]
    assert main(argv) == code
    if code == 1:  # an infinite arc position ends as a trace JSON cannot carry
        assert "non-finite" in json.loads(capsys.readouterr().out)["error"]


def test_sim_and_render_refuse_a_lane_segment_whose_square_overflows(tmp_path, capsys, short_trace):
    world = _map_file(tmp_path, [{"id": "a", "width": 3.5, "centerline": [[0.0, 0.0], [1e200, 0.0]]}])
    script = tmp_path / "car.scn"
    script.write_text(FOLLOWER_SCRIPT.format(place="at (5.0, 0.0)", speed=3.0))
    for argv in (["sim", str(script)], ["render", str(short_trace)]):
        assert main([*argv, "--map", world, "-o", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "centerline segment at (0.0, 0.0) is too long" in line
    assert not (tmp_path / "out").exists()


def test_sim_trace_bytes_deterministic(tmp_path):
    for name in ("one", "two"):
        code = main(
            [
                "sim",
                str(FIXTURES / "t_bone.scn"),
                "--map",
                "crossing",
                "--seed",
                "3",
                "-o",
                str(tmp_path / name),
            ]
        )
        assert code == 0
    assert (tmp_path / "one" / "trace.json").read_bytes() == (tmp_path / "two" / "trace.json").read_bytes()


# --- render -------------------------------------------------------------


@pytest.fixture()
def short_trace(tmp_path):
    script = tmp_path / "short.scn"
    script.write_text(
        "ego = new Car on lane main_a at 30.0 with speed 10.0\nterminate when time above 0.5\n"
    )
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "sim")]) == 0
    return tmp_path / "sim" / "trace.json"


def test_render_writes_four_rasters_per_frame(tmp_path, short_trace):
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    code = main(
        [
            "render",
            str(short_trace),
            "--map",
            "straight",
            "--camera",
            camera,
            "--weights",
            "preset-a",
            "-o",
            str(tmp_path / "r"),
        ]
    )
    assert code == 0
    trace = json.loads(short_trace.read_text())
    n = len(trace["frames"])
    files = sorted(p.relative_to(tmp_path / "r").as_posix() for p in (tmp_path / "r").rglob("*.*"))
    assert len(files) == n * 4
    assert f"frames/{n - 1:06d}/combined.pfm" in files


def test_render_preset_d_is_pixel_mean(tmp_path, short_trace):
    # preset-d weighs depth and edge 0.5 each, so the combined raster is
    # the mean of the two normalized inputs (seg carries no weight).
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    code = main(
        [
            "render",
            str(short_trace),
            "--map",
            "straight",
            "--camera",
            camera,
            "--weights",
            "preset-d",
            "-o",
            str(tmp_path / "r"),
        ]
    )
    assert code == 0
    frame = tmp_path / "r" / "frames" / "000000"
    depth = read_pfm(frame / "depth.pfm")
    edge = read_pgm(frame / "edge.pgm").astype(np.float32)
    combined = read_pfm(frame / "combined.pfm")
    depth_n = 1.0 - np.clip(depth / 100.0, 0.0, 1.0)
    assert np.allclose(combined, (depth_n + edge) / 2.0, atol=1e-6)


def test_render_unknown_preset(tmp_path, short_trace, capsys):
    code = main(
        [
            "render",
            str(short_trace),
            "--map",
            "straight",
            "--weights",
            "preset-z",
            "-o",
            str(tmp_path / "r"),
        ]
    )
    assert code == 2
    assert "bad weights" in capsys.readouterr().err


def test_render_rejects_non_utf8_camera_file(tmp_path, short_trace, capsys):
    camera = tmp_path / "camera.json"
    camera.write_bytes(b'{"variant": "\xff\xfe"}')
    code = main(
        ["render", str(short_trace), "--map", "straight", "--camera", str(camera), "-o", str(tmp_path / "r")]
    )
    assert code == 2
    assert "bad camera config" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


TOPDOWN = {"variant": "topdown", "center": [30.0, 0.0], "meters_per_pixel": 0.5, "width": 48, "height": 48}
PINHOLE = {"variant": "pinhole", "position": [20.0, 0.0, 1.5], "principal": [16.0, 16.0], "width": 32, "height": 32}
BAD_CAMERA_VALUES = [
    (TOPDOWN, "center", [math.nan, 0.0]),
    (TOPDOWN, "center", [0.0, math.inf]),
    (TOPDOWN, "meters_per_pixel", math.inf),
    (TOPDOWN, "ortho_height", math.inf),
    (TOPDOWN, "far_plane", "100"),
    (TOPDOWN, "width", True),
    (TOPDOWN, "width", 1.5),
    (TOPDOWN, "height", MAX_IMAGE_SIDE + 1),
    (PINHOLE, "position", [20.0, -math.inf, 1.5]),
    (PINHOLE, "yaw_deg", math.nan),
    (PINHOLE, "pitch_deg", math.inf),
    (PINHOLE, "focal_px", math.inf),
    (PINHOLE, "principal", [math.nan, 16.0]),
    (PINHOLE, "far_plane", math.inf),
    (PINHOLE, "width", False),
    (PINHOLE, "height", 32.0),
    (PINHOLE, "width", MAX_IMAGE_SIDE + 1),
]


@pytest.mark.parametrize(
    "base,field,value", BAD_CAMERA_VALUES, ids=[f"{b['variant']}-{f}-{v}" for b, f, v in BAD_CAMERA_VALUES]
)
def test_render_rejects_bad_camera_value(tmp_path, short_trace, capsys, base, field, value):
    # the base camera loads, at the largest side too; only the one swapped value is bad
    camera_from_dict({**base, "width": MAX_IMAGE_SIDE})
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({**base, field: value}))
    code = main(
        ["render", str(short_trace), "--map", "straight", "--camera", str(camera), "-o", str(tmp_path / "r")]
    )
    assert code == 2
    assert "bad camera config" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("value", [1e-300, 1e39], ids=["rounds-to-0", "overflows"])
@pytest.mark.parametrize(
    "base,field",
    [(TOPDOWN, "far_plane"), (PINHOLE, "far_plane"), (TOPDOWN, "ortho_height")],
    ids=["topdown", "pinhole", "topdown-ortho_height"],
)
def test_render_rejects_far_plane_outside_float32(tmp_path, short_trace, capsys, base, field, value):
    # finite as a float64 but 0 or inf as float32, the depth raster's type: NaN
    # maps, or inf depth pixels from a top-down camera that high
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({**base, field: value}))
    code = main(
        ["render", str(short_trace), "--map", "straight", "--camera", str(camera), "-o", str(tmp_path / "r")]
    )
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert f"{field} must be positive and finite as a float32" in line
    assert not (tmp_path / "r").exists()


# Cameras whose arithmetic would overflow while rendering: a pinhole pixel
# ray whose square overflows, or a pixel or camera position whose distance
# to the map does.  Each is refused as it loads, naming the field.
OVERFLOWING_CAMERAS = {
    "pinhole-focal_px": ({**PINHOLE, "position": [-20.0, 0.0, 5.0], "focal_px": 1e-300}, "focal_px"),
    "pinhole-position": ({**PINHOLE, "position": [1e308, 0.0, 5.0]}, "position"),
    "topdown-center": ({**TOPDOWN, "center": [1e308, 0.0], "meters_per_pixel": 1e300}, "center"),
    "topdown-meters_per_pixel": ({**TOPDOWN, "meters_per_pixel": 1e300}, "meters_per_pixel"),
}
# The same fields at their limits, which render with no warning.
CAMERAS_AT_THE_LIMITS = {
    # the pixel centre farthest from the principal point (16, 16) is 15.5 px away
    "pinhole-focal_px": {**PINHOLE, "position": [-20.0, 0.0, 5.0], "focal_px": 15.5 / MAX_RAY_SLOPE * 1.01},
    "pinhole-position": {**PINHOLE, "position": [MAX_WORLD_COORD, 0.0, 5.0]},
    "topdown-center": {**TOPDOWN, "center": [MAX_WORLD_COORD - 24 * 0.5, 0.0]},
}


def _render_with_camera(tmp_path, short_trace, camera) -> int:
    """`render` with `camera`; an overflow warning while it runs raises."""
    path = tmp_path / "camera.json"
    path.write_text(json.dumps(camera))
    argv = ["render", str(short_trace), "--map", "straight", "--camera", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main([*argv, "-o", str(tmp_path / "r")])


@pytest.mark.parametrize("name", OVERFLOWING_CAMERAS)
def test_render_refuses_a_camera_whose_pixels_overflow(tmp_path, short_trace, capsys, name):
    camera, field = OVERFLOWING_CAMERAS[name]
    assert _render_with_camera(tmp_path, short_trace, camera) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "bad camera config" in line and field in line
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", CAMERAS_AT_THE_LIMITS)
def test_render_takes_a_camera_at_the_pixel_limits(tmp_path, short_trace, name):
    assert _render_with_camera(tmp_path, short_trace, CAMERAS_AT_THE_LIMITS[name]) == 0


# A map point past MAX_WORLD_COORD is a map error: a lane that far from the
# camera would overflow the rasterizer's squared distances, and an anchor
# that far puts the default camera's image edge past the same bound.  An
# anchor at the bound loads, and its default camera is refused like a camera
# file's.
def test_render_refuses_a_lane_past_the_world_bound(tmp_path, short_trace, capsys):
    world = _map_file(tmp_path, [{"id": "far", "width": 3.5, "centerline": [[1e200, 0.0], [1e200, 100.0]]}])
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({**TOPDOWN, "center": [0.0, 0.0], "width": 32, "height": 32}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["render", str(short_trace), "--map", world, "--camera", str(camera), "-o", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert "lane 'far' centerline: point (1e+200, 0) lies more than 1e+12 m" in line
    assert "Traceback" not in err and not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "x,named",
    [(1e200, "anchor 'center': point (1e+200, 0)"), (MAX_WORLD_COORD, "bad default camera for map 'far'")],
    ids=["anchor-past-the-bound", "anchor-at-the-bound"],
)
@pytest.mark.parametrize("command", ["render", "pipeline"])
def test_default_camera_over_a_far_anchor_is_env_failure(tmp_path, short_trace, capsys, command, x, named):
    world = tmp_path / "far.map.json"
    lane = {"id": "main_a", "width": 3.5, "centerline": [[0.0, 0.0], [100.0, 0.0]]}
    world.write_text(json.dumps({"name": "far", "lanes": [lane], "anchors": {"center": {"x": x, "y": 0.0}}}))
    script = tmp_path / "short.scn"  # written by short_trace
    argv = {
        "render": ["render", str(short_trace)],
        "pipeline": ["pipeline", "--script", str(script), "-n", "1", "--steps", "1"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--map", str(world), "-o", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert named in line and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_render_rejects_camera_integer_too_long_to_parse(tmp_path, short_trace, capsys):
    camera = tmp_path / "camera.json"
    camera.write_text('{"variant": "topdown", "width": ' + "1" * 5000 + "}")
    code = main(
        ["render", str(short_trace), "--map", "straight", "--camera", str(camera), "-o", str(tmp_path / "r")]
    )
    assert code == 2
    assert "bad camera config" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_validate_rejects_non_utf8_script(tmp_path, capsys):
    script = tmp_path / "bad.scn"
    script.write_bytes(b"ego = new Car at (0.0, 0.0) \xff\xfe\n")
    assert main(["validate", str(script)]) == 2
    assert "cannot read script" in capsys.readouterr().err


def test_render_bad_trace_path(tmp_path, capsys):
    code = main(
        ["render", str(tmp_path / "nope.json"), "--map", "straight", "-o", str(tmp_path / "r")]
    )
    assert code == 2


@pytest.mark.parametrize("weight", ["[1]", "null", "true", '"0.5"'])
def test_render_rejects_non_number_weight(tmp_path, short_trace, capsys, weight):
    weights = tmp_path / "w.json"
    weights.write_text('{"depth": %s}' % weight)
    args = ["render", str(short_trace), "--map", "straight", "--weights", str(weights)]
    assert main([*args, "-o", str(tmp_path / "r")]) == 2
    assert "bad weights" in capsys.readouterr().err


def _set(trace, path, value):
    node = trace
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return trace


ROW = ("frames", 0, "states", 0)
# case: (break the trace dict, what the error names)
BAD_TRACES = {
    "top_level_list": (lambda t: [t], "trace must be an object"),
    "frame_not_object": (lambda t: _set(t, ("frames", 0), 5), "frames[0] must be an object"),
    "agent_not_object": (lambda t: _set(t, ("agents", 0), 5), "agents[0] must be an object"),
    "state_row_of_five": (lambda t: _set(t, ROW, [0.0] * 5), "frames[0] ego must have 6 entries"),
    "x_not_number": (lambda t: _set(t, ROW + (0,), "abc"), "frames[0] ego x must be a finite number"),
    "x_nan": (lambda t: _set(t, ROW + (0,), float("nan")), "frames[0] ego x must be a finite number"),
    "heading_null": (lambda t: _set(t, ROW + (2,), None), "frames[0] ego heading must be a finite number"),
    "length_infinite": (lambda t: _set(t, ("agents", 0, "length"), float("inf")), "agents[0].length"),
    "width_bool": (lambda t: _set(t, ("agents", 0, "width"), True), "agents[0].width"),
    "unknown_class": (lambda t: _set(t, ("agents", 0, "class"), "Tank"), "unknown AgentClass 'Tank'"),
    "no_frames": (lambda t: _set(t, ("frames",), []), "trace has no frames"),
    "map_number": (lambda t: _set(t, ("map",), 5), "map must be str"),
    "termination_nan": (lambda t: _set(t, ("termination",), math.nan), "termination must be str, got nan"),
    "agent_name_null": (lambda t: _set(t, ("agents", 0, "name"), None), "agents[0].name must be str"),
    "behavior_state_number": (lambda t: _set(t, ROW + (5,), 1), "frames[0] ego behavior_state must be str"),
    "event_time_nan": (lambda t: _with_event(t, "time", math.nan), "events[0].time must be a finite number"),
    "event_frame_float": (lambda t: _with_event(t, "frame", 1.5), "events[0].frame must be int"),
    "event_frame_bool": (lambda t: _with_event(t, "frame", True), "events[0].frame must be int"),
    "event_a_number": (lambda t: _with_event(t, "a", 3), "events[0].a must be str"),
    "event_b_null": (lambda t: _with_event(t, "b", None), "events[0].b must be str"),
    "event_impact_infinite": (lambda t: _with_event(t, "impact", [math.inf, 0.0]), "events[0].impact must be"),
    "event_rel_heading_past_float_range": (
        lambda t: _with_event(t, "rel_heading_deg", 10**400), "events[0].rel_heading_deg must be"
    ),
    "event_faces_null": (lambda t: _with_event(t, "faces", ["front", None]), "events[0].faces must be str"),
}


def _with_event(trace, key, value):
    """`trace` with one well-formed collision event whose `key` is `value`."""
    event = {"time": 0.05, "frame": 1, "a": "ego", "b": "ego", "impact": [30.0, 0.0],
             "rel_heading_deg": 0.0, "faces": ["front", "rear"], "classification": "rear-end"}
    trace["events"] = [{**event, key: value}]
    return trace


@pytest.mark.parametrize("case", sorted(BAD_TRACES))
def test_render_rejects_malformed_trace(tmp_path, short_trace, capsys, case):
    breaks, named = BAD_TRACES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(breaks(json.loads(short_trace.read_text()))))
    code = main(["render", str(bad), "--map", "straight", "-o", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err
    assert named in err


def test_well_formed_event_passes_the_trace_checks(tmp_path, short_trace):
    # the event the BAD_TRACES rows break one field of renders as it is
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_with_event(json.loads(short_trace.read_text()), "time", 0.05)))
    assert main(["render", str(good), "--map", "straight", "-o", str(tmp_path / "r")]) == 0


# --- bundle -------------------------------------------------------------


@pytest.mark.parametrize("termination", [math.nan, 10**400], ids=["nan", "int-past-float-range"])
def test_bundle_rejects_trace_field_json_cannot_carry(tmp_path, short_trace, capsys, termination):
    # the export writes the trace back, so a value JSON cannot carry failed
    # there, after the inputs had loaded, with a traceback
    trace = json.loads(short_trace.read_text())
    trace["termination"] = termination
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(trace))
    out = tmp_path / "b"
    code = main(["bundle", str(bad), "--map", "straight", "--steps", "1", "-o", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read trace" in err and "termination" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_bundle_build_and_verify(tmp_path, short_trace):
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    out = tmp_path / "b"
    code = main(
        [
            "bundle",
            str(short_trace),
            "--map",
            "straight",
            "--camera",
            camera,
            "--steps",
            "5",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert main(["bundle", "--verify", str(out)]) == 0
    target = out / "frames" / "000000" / "seg.pgm"
    data = bytearray(target.read_bytes())
    data[-1] ^= 0x01
    target.write_bytes(bytes(data))
    assert main(["bundle", "--verify", str(out)]) == 1


def test_bundle_missing_args(capsys):
    assert main(["bundle"]) == 2
    assert "bundle needs" in capsys.readouterr().err


def test_bundle_peak_memory_does_not_grow_with_the_frame_count(tmp_path, monkeypatch):
    # Each frame is written and hashed as soon as it is diffused, so only the
    # frames in flight are held.  Bound: a 41-frame export at 128x128 on 2
    # threads may peak above a 4-frame one by at most (threads + 2) frames'
    # five rasters, in memory traced by tracemalloc (numpy reports its
    # buffers to it).  Holding every frame until the manifest is written
    # raises the peak by about 34 frames' rasters instead.
    script = tmp_path / "long.scn"
    script.write_text("ego = new Car on lane main_a at 30.0 with speed 10.0\nterminate when time above 2.0\n")
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "sim")]) == 0
    trace = json.loads((tmp_path / "sim" / "trace.json").read_text())
    assert len(trace["frames"]) >= 40
    (tmp_path / "short.json").write_text(json.dumps({**trace, "frames": trace["frames"][:4]}))
    camera = _small_camera(tmp_path, size=128, mpp=0.25, center=(30.0, 0.0))
    threads = 2
    monkeypatch.setattr(cli, "usable_cpus", lambda: threads)
    peaks = []
    for name in ("short.json", "sim/trace.json"):
        argv = ["bundle", str(tmp_path / name), "--map", "straight", "--camera", camera, "--steps", "2"]
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            assert main([*argv, "-o", str(tmp_path / f"out{len(peaks)}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    frame_bytes = 128 * 128 * (1 + 4 + 1 + 4 + 4)  # uint8 seg, edge; float32 depth, combined, latent
    assert peaks[1] - peaks[0] < (threads + 2) * frame_bytes


BAD_DIFFUSION_FLAGS = [
    (["--steps", "0"], "--steps"),
    (["--steps", "-3"], "--steps"),
    (["--strength", "nan"], "--strength"),
    (["--strength", "1.5"], "--strength"),
    (["--strength", "-0.1"], "--strength"),
    (["--prompt", ""], "--prompt"),
    (["--seed", "-1"], "--seed"),  # a negative latent seed used to crash the export
]


@pytest.mark.parametrize("flags,name", BAD_DIFFUSION_FLAGS)
def test_bundle_rejects_bad_diffusion_flags(tmp_path, short_trace, capsys, flags, name):
    out = tmp_path / "b"
    code = main(["bundle", str(short_trace), "--map", "straight", *flags, "-o", str(out)])
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_render_and_bundle_write_identical_rasters(tmp_path, short_trace):
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    shared = [str(short_trace), "--map", "straight", "--camera", camera, "--weights", "preset-b"]
    assert main(["render", *shared, "-o", str(tmp_path / "r")]) == 0
    assert main(["bundle", *shared, "--steps", "2", "-o", str(tmp_path / "b")]) == 0
    n = len(json.loads(short_trace.read_text())["frames"])
    rendered, bundled = _tree(tmp_path / "r"), _tree(tmp_path / "b")
    assert len(rendered) == n * 4
    for rel, data in rendered.items():
        assert data == bundled[rel], rel
    assert not any(rel.endswith("latent_final.pfm") for rel in rendered)
    assert "manifest.json" not in rendered and "manifest.json" in bundled


def test_render_output_does_not_depend_on_the_thread_count(tmp_path, short_trace, monkeypatch):
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    trees = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            argv = ["render", str(short_trace), "--map", "straight", "--camera", camera, "-o", str(out)]
            assert main(argv) == 0
            trees.append(_tree(out))
    finally:
        sys.setswitchinterval(interval)
    assert trees[0] == trees[1] == trees[2]
    assert "frames/000000/seg.pgm" in trees[0]

# --- pipeline -----------------------------------------------------------


def _pipeline_args(tmp_path, script, out, extra=()):
    camera = _small_camera(tmp_path)
    return [
        "pipeline",
        "--script",
        str(script),
        "--map",
        "straight",
        "--camera",
        camera,
        "--steps",
        "5",
        "--max-duration",
        "10",
        "-o",
        str(out),
        *extra,
    ]


@pytest.fixture()
def variation_script(tmp_path):
    path = tmp_path / "variation.scn"
    path.write_text(VARIATION_SCRIPT)
    return path


def test_pipeline_hermetic_with_prewritten_script(tmp_path, variation_script, capsys):
    out = tmp_path / "out"
    code = main(_pipeline_args(tmp_path, variation_script, out, ["-n", "3", "--seed", "0"]))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 3
    assert [r["index"] for r in summary["variations"]] == [0, 1, 2]
    assert summary["passing"] >= 1
    for row in summary["variations"]:
        if row["passed"]:
            bundle = out / row["bundle"]
            assert (bundle / "manifest.json").is_file()
            assert (bundle / "trace.json").is_file()
    assert (out / "script.scn").is_file()


def test_pipeline_twenty_variations_summary_rows(tmp_path, variation_script):
    out = tmp_path / "out"
    camera = _small_camera(tmp_path, size=24)
    code = main(
        [
            "pipeline",
            "--script",
            str(variation_script),
            "--map",
            "straight",
            "--camera",
            camera,
            "--steps",
            "2",
            "--max-duration",
            "8",
            "-n",
            "20",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["variations"]) == 20
    seeds = [r["seed"] for r in summary["variations"]]
    assert len(set(seeds)) == 20
    bundles = [r["bundle"] for r in summary["variations"] if r["passed"]]
    assert len(bundles) >= 1


def test_pipeline_deterministic_script_cannot_vary(tmp_path, capsys):
    script = tmp_path / "fixed.scn"
    script.write_text(
        "ego = new Car on lane main_a at 5.0 with speed 3.0\nterminate when time above 1.0\n"
    )
    out = tmp_path / "out"
    code = main(_pipeline_args(tmp_path, script, out, ["-n", "4"]))
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().out.splitlines()[0])


def test_pipeline_script_that_does_not_compile_leaves_no_output(tmp_path, capsys):
    script = tmp_path / "bad.scn"
    script.write_text("ego = new Car at (0.0, 0.0) with speed Range(9.0, 2.0)\n")
    out = tmp_path / "out"
    assert main(_pipeline_args(tmp_path, script, out)) == 1
    codes = [json.loads(line)["code"] for line in capsys.readouterr().out.splitlines()]
    assert "E_EMPTY_RANGE" in codes
    assert not out.exists()


def test_pipeline_all_failing_requirements(tmp_path, capsys):
    script = tmp_path / "nope.scn"
    script.write_text(
        "param pace = Range(2.0, 4.0)\n"
        "ego = new Car on lane main_a at 5.0 with speed pace\n"
        "require collision\n"
        "terminate when time above 1.0\n"
    )
    out = tmp_path / "out"
    code = main(_pipeline_args(tmp_path, script, out, ["-n", "2"]))
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passing"] == 0
    assert all(not r["passed"] for r in summary["variations"])


def test_pipeline_through_stub_llm(tmp_path):
    out = tmp_path / "out"
    camera = _small_camera(tmp_path)
    with StubLLMServer([BAD_RESPONSE, "```\n" + VARIATION_SCRIPT + "```"]) as stub:
        code = main(
            [
                "pipeline",
                "--base-url",
                stub.base_url,
                "--model",
                "m",
                "--type",
                "rear-end-collision",
                "--map",
                "straight",
                "--camera",
                camera,
                "--steps",
                "5",
                "--max-duration",
                "10",
                "-n",
                "2",
                "-o",
                str(out),
            ]
        )
    assert code == 0
    transcript = json.loads((out / "transcript.json").read_text())
    assert len(transcript["rounds"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passing"] >= 1


def test_pipeline_summary_identical_across_job_counts(tmp_path, variation_script):
    outs = []
    for name, jobs in (("a", "1"), ("b", "2")):
        out = tmp_path / name
        code = main(
            _pipeline_args(tmp_path, variation_script, out, ["-n", "3", "--jobs", jobs])
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    assert (outs[0] / "var-002" / "manifest.json").read_bytes() == (
        outs[1] / "var-002" / "manifest.json"
    ).read_bytes()


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_output_does_not_depend_on_the_frame_thread_count(
    tmp_path, variation_script, monkeypatch
):
    trees = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
    try:
        for cpus in (1, 2, 3, 8):  # 8: more threads than the host has cores
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            argv = _pipeline_args(tmp_path, variation_script, out, ["-n", "2", "--jobs", "1"])
            assert main(argv) == 0
            trees.append(_tree(out))
    finally:
        sys.setswitchinterval(interval)
    assert trees[0] == trees[1] == trees[2] == trees[3]
    assert "var-001/manifest.json" in trees[0] and "summary.json" in trees[0]


def test_bundle_output_does_not_depend_on_the_frame_thread_count(tmp_path, short_trace, monkeypatch):
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    trees = []
    for cpus in (1, 3):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        argv = ["bundle", str(short_trace), "--map", "straight", "--camera", camera, "--steps", "3"]
        assert main([*argv, "-o", str(out)]) == 0
        trees.append(_tree(out))
    assert trees[0] == trees[1]


def _failing_frames(monkeypatch, delays):
    """Make the backend raise on the frames named in `delays`, each after
    sleeping its delay; returns the list of frame indices started."""
    started = []
    run_diffusion = cli.run_diffusion

    def diffuse(backend, control, prompt, steps, strength, seed):
        index = seed % 1_000_003  # the latent seed is seed * 1_000_003 + index
        started.append(index)
        if index in delays:

            class Broken(cli.MockDenoiser):
                def denoise(self, *args):
                    time.sleep(delays[index])
                    raise RuntimeError(f"frame {index} broke")

            backend = Broken()
        return run_diffusion(backend, control, prompt, steps, strength, seed=seed)

    monkeypatch.setattr(cli, "run_diffusion", diffuse)
    return started


def test_pipeline_frame_failure_under_threads_reports_the_serial_error(
    tmp_path, variation_script, monkeypatch
):
    # frame 5 fails first in time, frame 2 first in frame order
    started = _failing_frames(monkeypatch, {2: 0.3, 5: 0.0})
    rows, runs = [], []
    for cpus in (1, 3):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        argv = _pipeline_args(tmp_path, variation_script, out, ["-n", "1", "--jobs", "1"])
        assert main(argv) == 1
        [row] = json.loads((out / "summary.json").read_text())["variations"]
        rows.append(row)
        runs.append(sorted(started))
        started.clear()
        assert not (out / "var-000").exists()
    assert rows[0] == rows[1]
    assert rows[0]["error"] == "denoiser backend failed at step t=5: frame 2 broke"
    assert rows[0]["bundle"] is None and not rows[0]["passed"]
    assert runs[0] == [0, 1, 2]
    assert 5 in runs[1]  # the later frame did fail, and fail first


def test_interrupted_bundle_reexport_leaves_no_manifest(tmp_path, short_trace, monkeypatch, capsys):
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    out = tmp_path / "b"
    argv = ["bundle", str(short_trace), "--map", "straight", "--camera", camera, "--steps", "2"]
    assert main([*argv, "-o", str(out)]) == 0
    assert verify_bundle(out) == []
    frames = len(json.loads(short_trace.read_text())["frames"])
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    _failing_frames(monkeypatch, {frames // 2: 0.0})
    run_diffusion, seen = cli.run_diffusion, []

    def diffuse(*args, **kwargs):
        seen.append(verify_bundle(out))  # what a reader finds while the re-export runs
        return run_diffusion(*args, **kwargs)

    monkeypatch.setattr(cli, "run_diffusion", diffuse)
    capsys.readouterr()
    assert main([*argv, "-o", str(out)]) == 1
    assert f"frame {frames // 2} broke" in json.loads(capsys.readouterr().out)["error"]
    missing = [f"no manifest.json in {out}"]
    assert len(seen) > frames // 2 and all(problems == missing for problems in seen)
    assert verify_bundle(out) == missing


@pytest.mark.parametrize(
    "weights",
    [{}, {"seg": 0.5}, {"depth": 0.3}, {"edge": 1.0}, {"seg": 0.2, "depth": 0.3, "edge": 0.4}],
    ids=["none", "seg", "depth", "edge", "all"],
)
@pytest.mark.parametrize("variant", ["topdown", "pinhole"])
def test_control_maps_combine_to_the_all_modality_formula(weights, variant):
    world = builtin_map("crossing")
    camera = (
        TopDownCamera(0.0, 0.0, meters_per_pixel=0.5, width=40, height=32)
        if variant == "topdown"
        else PinholeCamera(x=-20.0, y=-6.0, z=6.0, yaw_deg=20.0, pitch_deg=15.0, focal_px=40.0, width=40, height=32)
    )
    ego = AgentState("ego", AgentClass.CAR, -4.0, -1.75, 0.0, 0.0, *AgentClass.CAR.default_dims, "idle")
    static = prepare_static(world, camera)
    seg, depth, edge, combined = cli._control_maps([ego], world, camera, static, weights)
    every = {
        "seg": normalize_modality(seg, "seg"),
        "depth": normalize_modality(depth, "depth", camera.far_plane),
        "edge": normalize_modality(edge, "edge"),
    }
    expected = combine_controls(every, weights)
    assert combined.dtype == np.float32 and combined.shape == seg.shape
    assert combined.tobytes() == expected.tobytes()
    if not weights:
        assert not combined.any()


def test_bundle_frame_with_a_raster_off_the_camera_shape_is_a_domain_failure(
    tmp_path, short_trace, monkeypatch, capsys
):
    control_maps = cli._control_maps

    def cropped(*args):
        seg, depth, edge, combined = control_maps(*args)
        return seg, depth[1:], edge, combined

    monkeypatch.setattr(cli, "_control_maps", cropped)
    camera = _small_camera(tmp_path, center=(30.0, 0.0))
    out = tmp_path / "b"
    capsys.readouterr()
    argv = ["bundle", str(short_trace), "--map", "straight", "--camera", camera, "--steps", "1"]
    assert main([*argv, "-o", str(out)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == "frame 0: raster 'depth' has shape (47, 48), expected (48, 48)"
    assert verify_bundle(out) == [f"no manifest.json in {out}"]


def test_pipeline_frame_failure_cancels_the_frames_not_started(
    tmp_path, variation_script, monkeypatch
):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    argv = ["-n", "1", "--jobs", "1", "--steps", "1"]
    assert main(_pipeline_args(tmp_path, variation_script, tmp_path / "ok", argv)) == 0
    frames = len(json.loads((tmp_path / "ok" / "var-000" / "trace.json").read_text())["frames"])
    started = _failing_frames(monkeypatch, {0: 0.0})
    run_diffusion = cli.run_diffusion

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return run_diffusion(*args, **kwargs)

    monkeypatch.setattr(cli, "run_diffusion", slow)
    assert main(_pipeline_args(tmp_path, variation_script, tmp_path / "failed", argv)) == 1
    assert frames >= 20
    assert 0 in started and len(started) < frames // 2


def test_pipeline_backend_calls_are_steps_times_frames_on_threads(
    tmp_path, variation_script, monkeypatch
):
    calls = []

    class Counting(cli.MockDenoiser):
        def denoise(self, *args, **kwargs):
            calls.append(1)  # list.append is atomic, so the count is thread-safe
            return super().denoise(*args, **kwargs)

    monkeypatch.setattr(cli, "MockDenoiser", Counting)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    out = tmp_path / "out"
    assert main(_pipeline_args(tmp_path, variation_script, out, ["-n", "2", "--jobs", "1"])) == 0
    frames = sum(
        len(json.loads((out / f"var-{i:03d}" / "trace.json").read_text())["frames"]) for i in range(2)
    )
    assert len(calls) == 5 * frames


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records its size and runs the
    tasks in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs,n,cpus,workers,threads",
    [
        ("1", "2", 4, None, 4),  # in-process: the frames get every CPU
        ("2", "3", 4, 2, 2),
        ("3", "2", 4, 2, 2),  # no more processes than variations
        ("200", "2", 2, 2, 1),
        ("4", "4", 2, 4, 1),  # at least one thread
    ],
)
def test_pipeline_sizes_the_pool_and_the_frame_threads(
    tmp_path, variation_script, monkeypatch, jobs, n, cpus, workers, threads
):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(
        cli, "concurrent", types.SimpleNamespace(futures=types.SimpleNamespace(ProcessPoolExecutor=_RecordingPool))
    )
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    seen = []
    run_variation = cli._run_variation
    monkeypatch.setattr(cli, "_run_variation", lambda task: seen.append(task["threads"]) or run_variation(task))
    argv = _pipeline_args(tmp_path, variation_script, tmp_path / "out", ["-n", n, "--jobs", jobs, "--steps", "1"])
    assert main(argv) == 0
    assert _RecordingPool.sizes == ([] if workers is None else [workers])
    assert seen == [threads] * int(n)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_pipeline_rejects_jobs_below_one(tmp_path, variation_script, capsys, jobs):
    code = main(_pipeline_args(tmp_path, variation_script, tmp_path / "out", ["--jobs", jobs]))
    assert code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_jobs_default_is_the_usable_cpu_count():
    # under `taskset -c 0` the default is one worker, not one per CPU of the host
    cpu = min(os.sched_getaffinity(0))
    code = (
        f"import os; os.sched_setaffinity(0, {{{cpu}}}); "
        "from scenekit.cli import SETTINGS; print(SETTINGS['jobs'][1])"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


def test_pipeline_script_path_with_nul_is_env_failure(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"script": "a\u0000b", "map": "straight"}))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot read script" in err and len(err.splitlines()) == 1
    assert not out.exists()


def _writing_argv(command, out, stub, tmp_path, short_trace, variation_script):
    """A small run of `command` that writes to the output directory `out`."""
    camera = ["--camera", _small_camera(tmp_path, center=(30.0, 0.0))]
    if command == "pipeline":
        return _pipeline_args(tmp_path, variation_script, out, ["-n", "1", "--steps", "1"])
    return {
        "gen": ["gen", "--base-url", stub.base_url, "--model", "m", "--type", "vehicle-cut-in"],
        "sim": ["sim", str(variation_script), "--map", "straight", "--max-duration", "1"],
        "render": ["render", str(short_trace), "--map", "straight", *camera],
        "bundle": ["bundle", str(short_trace), "--map", "straight", *camera, "--steps", "1"],
    }[command] + ["-o", str(out)]


@pytest.mark.parametrize("command", ["gen", "sim", "render", "bundle", "pipeline"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_output_that_cannot_be_created_is_env_failure(
    tmp_path, short_trace, variation_script, capsys, command, below
):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    out = blocker / "sub" if below else blocker
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        argv = _writing_argv(command, out, stub, tmp_path, short_trace, variation_script)
        capsys.readouterr()
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot create output directory {str(out)!r}: ")
    assert err.count("\n") == 1  # one line, no traceback
    assert blocker.read_text() == "a regular file"


@pytest.mark.parametrize(
    "command, blocked, kind",
    [
        ("gen", "transcript.json", "dir"),
        ("sim", "trace.json", "dir"),
        ("render", "frames", "file"),
        ("bundle", "frames", "file"),
        ("bundle", "prompt.txt", "dir"),
        ("pipeline", "script.scn", "dir"),
        ("pipeline", "summary.json", "dir"),
    ],
)
def test_output_file_that_cannot_be_written_is_env_failure(
    tmp_path, short_trace, variation_script, capsys, command, blocked, kind
):
    out = tmp_path / "out"
    out.mkdir()
    if kind == "dir":
        (out / blocked).mkdir()
    else:
        (out / blocked).write_text("a regular file")
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        argv = _writing_argv(command, out, stub, tmp_path, short_trace, variation_script)
        capsys.readouterr()
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err  # one line
    assert str(out / blocked) in err


@pytest.mark.parametrize("flags,name", BAD_DIFFUSION_FLAGS)
def test_pipeline_rejects_bad_diffusion_flags(tmp_path, variation_script, capsys, flags, name):
    out = tmp_path / "out"
    code = main(_pipeline_args(tmp_path, variation_script, out, ["-n", "2", *flags]))
    assert code == 2
    assert name in capsys.readouterr().err
    assert not (out / "var-000").exists()
    assert not (out / "summary.json").exists()


def test_pipeline_config_file_and_flag_precedence(tmp_path, variation_script):
    camera = _small_camera(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "script": str(variation_script),
                "map": "straight",
                "camera": camera,
                "steps": 5,
                "max_duration": 10.0,
                "variations": 5,
                "seed": 7,
            }
        )
    )
    out = tmp_path / "out"
    # -n on the command line overrides the config file's 5
    code = main(["pipeline", "--config", str(config), "-n", "2", "-o", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 2
    assert summary["seed"] == 7
    assert [r["seed"] for r in summary["variations"]] == [7, 8]


BAD_CONFIG_VALUES = [
    ("steps", "x"),
    ("steps", 2.5),
    ("map", 5),
    ("variations", [1]),
    ("variations", True),
    ("strength", False),
    ("dt", "0.05"),
    ("prompt", None),
    ("script", {"path": "a.scn"}),
]


@pytest.mark.parametrize("key,value", BAD_CONFIG_VALUES)
def test_pipeline_rejects_mistyped_config_value(tmp_path, variation_script, capsys, key, value):
    config = {
        "script": str(variation_script),
        "map": "straight",
        "camera": _small_camera(tmp_path),
        "steps": 5,
        "variations": 2,
        key: value,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "-o", str(out)]) == 2
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("examples", "3"),
        ("seed", 1.5),
        ("temperature", True),
        ("repair_limit", None),
        ("type", 7),
        ("base_url", 5),
        ("model", ["m"]),
    ],
)
def test_gen_rejects_mistyped_config_value(tmp_path, capsys, key, value):
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        config = {"base_url": stub.base_url, "model": "m", "type": "vehicle-cut-in", key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["gen", "--config", str(path), "-o", str(tmp_path / "gen")]) == 2
        assert not stub.requests
    assert f"config key {key!r} must be" in capsys.readouterr().err


def test_config_numbers_accept_ints_for_floats(tmp_path, variation_script):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strength": 1, "max_duration": 10, "dt": 0.05}))
    out = tmp_path / "out"
    code = main([*_pipeline_args(tmp_path, variation_script, out), "-n", "2", "--config", str(config)])
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["strength"] == 1.0


# --- golden digest over whole pipeline trees ----------------------------

# A 64x64 top-down view over each map's road, and perfbench's pinhole pose
# at 64x48 (focal scaled with the width, so the field of view is the same).
GOLDEN_CAMERAS = {
    "topdown-straight": {"variant": "topdown", "center": [100.0, 1.75], "meters_per_pixel": 3.2, "width": 64, "height": 64},
    "topdown-crossing": {"variant": "topdown", "center": [0.0, 0.0], "meters_per_pixel": 1.0, "width": 64, "height": 64},
    "pinhole": {
        "variant": "pinhole",
        "position": [-32.0, -14.0, 9.0],
        "yaw_deg": 30.0,
        "pitch_deg": 18.0,
        "focal_px": 32.0,
        "width": 64,
        "height": 48,
        "far_plane": 100.0,
    },
}


def _check_latents(bundle):
    """Recompute each frame's latent from its combined map (numpy's random
    stream may change between numpy versions); returns the manifest without
    the latents' digests."""
    config = json.loads((bundle / "config.json").read_text())
    prompt = (bundle / "prompt.txt").read_text()
    manifest = json.loads((bundle / "manifest.json").read_text())
    for frame in sorted((bundle / "frames").iterdir()):
        index = int(frame.name)
        latent = run_diffusion(
            MockDenoiser(),
            read_pfm(frame / "combined.pfm"),
            prompt,
            config["steps"],
            config["strength"],
            seed=config["seed"] * 1_000_003 + index,
        )
        header, payload = encode_pfm(latent)
        data = (frame / "latent_final.pfm").read_bytes()
        assert data == header + bytes(payload), frame
        name = f"frames/{frame.name}/latent_final.pfm"
        assert manifest["files"].pop(name) == hashlib.sha256(data).hexdigest(), name
    return manifest


def test_pipeline_trees_match_the_golden_digest(tmp_path):
    # Each library script on its map through `pipeline`, once per camera:
    # every file's path and bytes but the latents, which are checked against
    # `run_diffusion` instead.  Any change to a trace, raster, summary or
    # manifest moves this digest.
    root = tmp_path / "runs"
    for script, map_name in LIBRARY_MAPS:
        for camera in (f"topdown-{map_name}", "pinhole"):
            camera_path = tmp_path / f"{camera}.json"
            camera_path.write_text(json.dumps(GOLDEN_CAMERAS[camera]))
            out = root / f"{Path(script).stem}-{camera}"
            argv = ["pipeline", "--script", str(LIBRARY / script), "--map", map_name, "--camera", str(camera_path)]
            assert main([*argv, "--steps", "2", "-n", "2", "--jobs", "1", "--seed", "0", "-o", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        if not path.is_file() or path.name == "latent_final.pfm":
            continue
        if path.name == "manifest.json":
            data = json.dumps(_check_latents(path.parent), sort_keys=True).encode()
        else:
            data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    assert digest.hexdigest() == "eba5d90997e3e64a6305a594fe929d229b5a110da4ce5472e33d7b01f7b39f24"


def test_stub_llm_serves_scripted_responses(tmp_path):
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps(["first answer", {"status": 418, "body": "teapot"}]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "scenekit.cli", "stub-llm", "--responses", str(responses)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        url = json.loads(line)["base_url"] + "/chat/completions"
        body = {"model": "m", "messages": [{"role": "user", "content": "hi"}]}
        with urllib.request.urlopen(url, json.dumps(body).encode(), timeout=5) as reply:
            assert reply.status == 200
            assert json.load(reply)["choices"][0]["message"]["content"] == "first answer"
        with pytest.raises(urllib.error.HTTPError) as second:
            urllib.request.urlopen(url, b'{"model": "m", "messages": []}', timeout=5)
        assert second.value.code == 418
        second.value.close()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.mark.parametrize("stop", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_stub_llm_stops_cleanly_on_a_signal(stop):
    # as a background job of a non-interactive shell starts it: SIGINT ignored
    proc = subprocess.Popen(
        [sys.executable, "-m", "scenekit.cli", "stub-llm"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert json.loads(proc.stdout.readline())["base_url"].startswith("http://127.0.0.1:")
        proc.send_signal(stop)
        assert proc.wait(timeout=10) == 0
        assert proc.stderr.read() == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _interrupt(seconds):
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "flags, address",
    [
        (["--port", "70000"], "127.0.0.1:70000"),
        (["--port", "-1"], "127.0.0.1:-1"),
        (["--host", "999.1.1.1"], "999.1.1.1:0"),
    ],
    ids=["port-too-high", "port-negative", "host-unknown"],
)
def test_stub_llm_bind_failure_is_env_failure(capsys, monkeypatch, flags, address):
    # a server that did start would return 0 here, not wait for Ctrl-C
    monkeypatch.setattr(cli.time, "sleep", _interrupt)
    assert main(["stub-llm", *flags]) == 2
    assert f"cannot serve on {address}: " in capsys.readouterr().err


def test_stub_llm_port_in_use_is_env_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.time, "sleep", _interrupt)
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["stub-llm", "--port", str(port)]) == 2
    assert f"cannot serve on 127.0.0.1:{port}: " in capsys.readouterr().err


NO_REQUESTS_CHILD = """
import sys
import scenekit.cli
after_import = "requests" in sys.modules
code = scenekit.cli.main(["validate", sys.argv[1]])
print(after_import, "requests" in sys.modules, code)
"""


def test_cli_runs_without_importing_requests(tmp_path):
    script = tmp_path / "script.scn"
    script.write_text(VARIATION_SCRIPT)
    child = subprocess.run(
        [sys.executable, "-c", NO_REQUESTS_CHILD, str(script)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.stdout.splitlines()[-1] == "False False 0", child.stderr


@pytest.mark.parametrize(
    "entry",
    [
        5,
        None,
        ["a"],
        {"content": 5},
        {"status": "500"},
        {"status": True},
        {"body": "b"},
        {"status": 500, "body": 1},
    ],
)
def test_stub_llm_rejects_malformed_response_entry(tmp_path, capsys, monkeypatch, entry):
    def refuse_to_serve(self):
        raise AssertionError("the server started with a malformed entry")

    monkeypatch.setattr(StubLLMServer, "start", refuse_to_serve)
    responses = tmp_path / "responses.json"
    responses.write_text(json.dumps(["fine", entry]))
    assert main(["stub-llm", "--responses", str(responses)]) == 2
    assert "bad responses file" in capsys.readouterr().err


# json.loads raises a plain ValueError for an integer over 4,300 digits.
TOO_LONG_INT = "1" * 5000


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--config", '{"seed": ' + TOO_LONG_INT + "}", "cannot read config file"),
        ("--map", '{"lanes": [], "x": ' + TOO_LONG_INT + "}", "malformed map JSON"),
        ("--responses", "[" + TOO_LONG_INT + "]", "cannot read responses file"),
    ],
    ids=["pipeline-config", "pipeline-map", "stub-llm-responses"],
)
def test_json_integer_too_long_to_parse_is_env_failure(
    tmp_path, variation_script, capsys, monkeypatch, flag, text, message
):
    def refuse_to_serve(self):
        raise AssertionError("the server started with an unreadable responses file")

    monkeypatch.setattr(StubLLMServer, "start", refuse_to_serve)
    path = tmp_path / "big.json"
    path.write_text(text)
    out = tmp_path / "out"
    if flag == "--responses":
        argv = ["stub-llm", "--responses", str(path)]
    else:
        argv = _pipeline_args(tmp_path, variation_script, out, ["-n", "1", flag, str(path)])
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# json.loads raises RecursionError, not ValueError, for arrays nested deeper
# than the interpreter's recursion limit.
DEEP_JSON = "[" * 5000 + "]" * 5000
LOCAL_ENDPOINT = ["--base-url", "http://127.0.0.1:9", "--model", "m", "--type", "vehicle-cut-in"]
DEEP_LOADERS = {
    "render-camera": (["render", "TRACE", "--map", "straight", "--camera", "DEEP", "-o", "OUT"], 2, "bad camera config"),
    "render-map": (["render", "TRACE", "--map", "DEEP", "-o", "OUT"], 2, "malformed map JSON"),
    "render-weights": (["render", "TRACE", "--map", "straight", "--weights", "DEEP", "-o", "OUT"], 2, "bad weights"),
    "render-trace": (["render", "DEEP", "--map", "straight", "-o", "OUT"], 2, "cannot read trace"),
    "pipeline-config": (["pipeline", "--script", "SCRIPT", "--config", "DEEP", "-o", "OUT"], 2, "cannot read config file"),
    "gen-library": (["gen", *LOCAL_ENDPOINT, "--library", "LIBRARY", "-o", "OUT"], 2, "cannot load example library"),
    "stub-llm-responses": (["stub-llm", "--responses", "DEEP"], 2, "cannot read responses file"),
    "bundle-verify": (["bundle", "--verify", "LIBRARY"], 1, "unreadable manifest"),
}


@pytest.mark.parametrize("loader", sorted(DEEP_LOADERS))
def test_deeply_nested_json_is_not_a_traceback(
    tmp_path, short_trace, variation_script, capsys, monkeypatch, loader
):
    def refuse_to_serve(self):
        raise AssertionError("the server started with an unreadable responses file")

    monkeypatch.setattr(StubLLMServer, "start", refuse_to_serve)
    argv, code, message = DEEP_LOADERS[loader]
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    # one directory serves as a library whose index.json and a bundle whose
    # manifest.json are nested that deep
    library = tmp_path / "deep"
    library.mkdir()
    (library / "index.json").write_text(DEEP_JSON)
    (library / "manifest.json").write_text(DEEP_JSON)
    out = tmp_path / "out"
    paths = {"DEEP": deep, "TRACE": short_trace, "SCRIPT": variation_script, "LIBRARY": library, "OUT": out}
    assert main([str(paths.get(arg, arg)) for arg in argv]) == code
    captured = capsys.readouterr()
    assert message in captured.err + captured.out
    assert not out.exists()


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "scenekit.cli", "validate", str(FIXTURES / "cyclist.scn")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
