"""Subcommand behavior and exit-code contract."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import requests

from scenekit.cli import main
from scenekit.promptgen.stubserver import StubLLMServer
from scenekit.render.cameras import MAX_IMAGE_SIDE, camera_from_dict
from scenekit.render.formats import read_pfm, read_pgm

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


@pytest.mark.parametrize("pinhole", [False, True], ids=["topdown", "pinhole"])
def test_render_huge_coordinates_draw_nothing(tmp_path, capsys, pinhole):
    # The ego reaches 2e307 m: past the float range once projected.
    script = tmp_path / "runaway.scn"
    script.write_text(RUNAWAY_SCRIPT.format(horizon=0.2))
    assert main(["sim", str(script), "--map", "straight", "-o", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    camera = {"variant": "pinhole", "position": [0.0, -30.0, 1.2], "yaw_deg": 90.0,
              "focal_px": 64.0, "width": 64, "height": 48}
    (tmp_path / "camera.json").write_text(json.dumps(camera))
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


def test_sim_missing_map(tmp_path, capsys):
    code = main(
        ["sim", str(FIXTURES / "rear_end.scn"), "--map", "atlantis", "-o", str(tmp_path / "s")]
    )
    assert code == 2
    assert "cannot load map" in capsys.readouterr().err


@pytest.mark.parametrize("width", ['"wide"', "NaN"])
def test_sim_rejects_bad_lane_width_as_env_failure(tmp_path, capsys, width):
    world = tmp_path / "bad.map.json"
    world.write_text(
        '{"lanes": [{"id": "main_a", "width": %s, "centerline": [[0, 0], [100, 0]]}]}' % width
    )
    code = main(["sim", str(FIXTURES / "rear_end.scn"), "--map", str(world), "-o", str(tmp_path / "s")])
    assert code == 2
    assert "width" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()

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
    files = sorted(p.name for p in (tmp_path / "r" / "frames").iterdir())
    assert len(files) == n * 4
    assert f"{n - 1:06d}.combined.pfm" in files


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
    frames = tmp_path / "r" / "frames"
    depth = read_pfm(frames / "000000.depth.pfm")
    edge = read_pgm(frames / "000000.edge.pgm").astype(np.float32)
    combined = read_pfm(frames / "000000.combined.pfm")
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


@pytest.mark.parametrize("far_plane", [1e-300, 1e39], ids=["rounds-to-0", "overflows"])
@pytest.mark.parametrize("base", [TOPDOWN, PINHOLE], ids=["topdown", "pinhole"])
def test_render_rejects_far_plane_outside_float32(tmp_path, short_trace, capsys, base, far_plane):
    # finite as a float64 but 0 or inf as float32, where depth is normalized: NaN maps
    camera = tmp_path / "camera.json"
    camera.write_text(json.dumps({**base, "far_plane": far_plane}))
    code = main(
        ["render", str(short_trace), "--map", "straight", "--camera", str(camera), "-o", str(tmp_path / "r")]
    )
    assert code == 2
    assert "far_plane must be positive and finite as a float32" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


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
}


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


# --- bundle -------------------------------------------------------------


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
    for index in range(n):
        for name in ("seg.pgm", "depth.pfm", "edge.pgm", "combined.pfm"):
            rendered = tmp_path / "r" / "frames" / f"{index:06d}.{name}"
            bundled = tmp_path / "b" / "frames" / f"{index:06d}" / name
            assert rendered.read_bytes() == bundled.read_bytes(), (index, name)

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


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_pipeline_rejects_jobs_below_one(tmp_path, variation_script, capsys, jobs):
    code = main(_pipeline_args(tmp_path, variation_script, tmp_path / "out", ["--jobs", jobs]))
    assert code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err

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


# --- stub-llm subcommand ------------------------------------------------


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
        base_url = json.loads(line)["base_url"]
        reply = requests.post(
            base_url + "/chat/completions",
            json={"model": "m", "messages": [{"role": "user", "content": "hi"}]},
            timeout=5,
        )
        assert reply.status_code == 200
        assert reply.json()["choices"][0]["message"]["content"] == "first answer"
        second = requests.post(
            base_url + "/chat/completions", json={"model": "m", "messages": []}, timeout=5
        )
        assert second.status_code == 418
    finally:
        proc.terminate()
        proc.wait(timeout=10)


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
