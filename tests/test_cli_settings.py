"""The settings table: precedence, range rules, and no traceback on a bad value."""

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenekit.cli import MAX_DENOISE_STEPS, MAX_JOBS, MAX_VARIATIONS, SETTINGS, build_parser, main
from scenekit.promptgen.stubserver import StubLLMServer

FIXTURES = Path(__file__).parent / "data" / "fixtures"
SCRIPT = str(FIXTURES / "rear_end.scn")
GOOD_RESPONSE = "```\nego = new Car at (0.0, 0.0) with speed 5.0\n```"
CAMERA = {"variant": "topdown", "center": [30.0, 0.0], "meters_per_pixel": 1.0}
CAMERA.update(width=16, height=16)
SHORT_SCRIPT = (
    "ego = new Car on lane main_a at 30.0 with speed 10.0\nterminate when time above 0.2\n"
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A camera file and a short trace, shared by the tests of this module."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "camera.json").write_text(json.dumps(CAMERA))
    script = root / "short.scn"
    script.write_text(SHORT_SCRIPT)
    assert main(["sim", str(script), "--map", "straight", "-o", str(root / "sim")]) == 0
    return {"camera": str(root / "camera.json"), "trace": str(root / "sim" / "trace.json")}


@pytest.fixture(scope="module")
def stub():
    with StubLLMServer([GOOD_RESPONSE]) as server:
        yield server


def _base_flags(command: str, inputs: dict, base_url: str, jobs: int) -> tuple[list[str], dict]:
    """Positionals and setting flags of a small valid run of `command`."""
    if command == "sim":
        return [SCRIPT], {"map": "straight", "max_duration": 2.0}
    if command == "bundle":
        return [inputs["trace"]], {"map": "straight", "camera": inputs["camera"], "steps": 1}
    if command == "pipeline":
        flags = {"script": SCRIPT, "map": "straight", "camera": inputs["camera"], "variations": 1}
        return [], {**flags, "steps": 1, "max_duration": 2.0, "jobs": jobs}
    return [], {"base_url": base_url, "model": "m", "type": "vehicle-cut-in"}


def _argv(command, positionals, flags, out, config=None):
    argv = [command, *positionals, "-o", str(out)]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
    return argv + (["--config", str(config)] if config else [])


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _numeric_settings(command: str) -> list[str]:
    dests = [a.dest for a in _subparsers()[command]._actions]
    return [d for d in dests if d in SETTINGS and SETTINGS[d][0] in (int, float)]


# (command, setting, through the config file?) for every numeric setting of
# the subcommands that take one; jobs is flag-only.
CASES = [
    (command, key, from_config)
    for command in ("sim", "bundle", "pipeline", "gen")
    for key in _numeric_settings(command)
    for from_config in (False, True)
    if not from_config or (command in ("pipeline", "gen") and key != "jobs")
]
PAST_FLOAT_RANGE = 10**400  # a JSON integer no float holds; float(...) overflows
ADVERSARIAL = [0, -1, math.nan, math.inf, -math.inf, 10**18, PAST_FLOAT_RANGE]
FLOAT_KEYS = ("temperature", "strength", "dt", "max_duration")


def _refused(key: str, value) -> bool:
    """Whether `value` is out of range for `key`, stated apart from the table."""
    if value == PAST_FLOAT_RANGE:  # inf where a float is wanted, past every int cap
        return key in FLOAT_KEYS + ("variations", "steps", "jobs")
    if value == -1 or math.isnan(value) or math.isinf(value):
        return True  # no numeric setting takes these (ints refuse NaN and inf by kind)
    if value == 0:
        return key in ("examples", "variations", "steps", "dt", "max_duration", "jobs")
    # 10**18: above 1, or past a cap of 10,000 variations, 10,000 denoising
    # steps, 100,000 simulator steps or 256 worker processes
    return key in ("strength", "max_duration", "variations", "steps", "jobs")


def _tree(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(CASES),
    value=st.sampled_from(ADVERSARIAL),
    jobs=st.sampled_from([1, 2]),
)
def test_rejected_setting_exits_2_and_writes_nothing(inputs, stub, case, value, jobs):
    command, key, from_config = case
    positionals, flags = _base_flags(command, inputs, stub.base_url, jobs)
    assume(_refused(key, value))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = None
        if from_config:
            flags.pop(key, None)
            config = tmp / "config.json"
            config.write_text(json.dumps({key: value}))
        else:
            flags[key] = value
        before, err = _tree(tmp), io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(_argv(command, positionals, flags, tmp / "out", config)) == 2
        assert _tree(tmp) == before
    named = f"config key {key!r}" if from_config else f"--{key.replace('_', '-')}"
    assert named in err.getvalue()
    assert not stub.requests


@pytest.mark.parametrize(
    "command,key", [("pipeline", key) for key in FLOAT_KEYS[1:]] + [("gen", "temperature")]
)
def test_config_float_past_the_float_range_names_the_key(inputs, stub, capsys, command, key):
    positionals, flags = _base_flags(command, inputs, stub.base_url, 1)
    flags.pop(key, None)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({key: PAST_FLOAT_RANGE}))
        assert main(_argv(command, positionals, flags, Path(tmp) / "out", config)) == 2
        assert not (Path(tmp) / "out").exists()
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err and len(err.splitlines()) == 1
    assert not stub.requests


def test_parser_declares_no_setting_defaults():
    for command, sub in _subparsers().items():
        for action in sub._actions:
            if action.dest in SETTINGS:
                assert action.default is None, (command, action.dest)


# --- simulator step and horizon -------------------------------------------

BAD_SIM_FLAGS = [
    (["--dt", "0"], "--dt"),
    (["--dt", "nan"], "--dt"),
    (["--dt=-inf"], "--dt"),
    (["--max-duration", "nan"], "--max-duration"),
    (["--max-duration", "inf"], "--max-duration"),
    (["--dt", "1e-9"], "--dt"),  # 3e10 steps of the default 30 s horizon
    (["--max-duration", "5001"], "--max-duration"),  # 100,020 steps of 0.05 s
]


@pytest.mark.parametrize("flags,name", BAD_SIM_FLAGS)
def test_sim_rejects_bad_step_or_horizon(tmp_path, capsys, flags, name):
    out = tmp_path / "sim"
    assert main(["sim", SCRIPT, "--map", "straight", *flags, "-o", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,name", BAD_SIM_FLAGS)
def test_pipeline_rejects_bad_step_or_horizon(tmp_path, inputs, capsys, flags, name):
    out = tmp_path / "out"
    argv = ["pipeline", "--script", SCRIPT, "--map", "straight", "--camera", inputs["camera"]]
    assert main([*argv, "-n", "1", "--steps", "1", *flags, "-o", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert not out.exists()


def test_sim_accepts_the_step_cap_exactly(tmp_path):
    # 100,000 steps of 0.0001 s; the script ends the run after 0.2 s
    script = tmp_path / "short.scn"
    script.write_text(SHORT_SCRIPT)
    argv = ["sim", str(script), "--map", "straight", "--dt", "0.0001", "--max-duration", "10"]
    assert main([*argv, "-o", str(tmp_path / "sim")]) == 0


# --- range rules on gen and pipeline ---------------------------------------

BAD_GEN_VALUES = [
    ("examples", 0),
    ("examples", -1),
    ("temperature", math.nan),
    ("temperature", -0.5),
    ("repair_limit", -1),
    ("seed", -1),
]


@pytest.mark.parametrize("key,value", BAD_GEN_VALUES)
@pytest.mark.parametrize("from_config", [False, True])
def test_gen_rejects_out_of_range_value_before_any_request(
    tmp_path, capsys, key, value, from_config
):
    out = tmp_path / "gen"
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        argv = ["gen", "--base-url", stub.base_url, "--model", "m", "--type", "vehicle-cut-in"]
        if from_config:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            argv += ["--config", str(config)]
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
        assert main([*argv, "-o", str(out)]) == 2
        assert not stub.requests
    named = f"config key {key!r}" if from_config else f"--{key.replace('_', '-')}"
    assert f"{named} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("from_config", [False, True])
@pytest.mark.parametrize("count", [0, -1])
def test_pipeline_rejects_no_variations_before_writing(
    tmp_path, inputs, capsys, count, from_config
):
    out = tmp_path / "out"
    argv = ["pipeline", "--script", SCRIPT, "--map", "straight", "--camera", inputs["camera"]]
    argv += ["-o", str(out)]
    if from_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variations": count}))
        argv += ["--config", str(config)]
    else:
        argv += ["-n", str(count)]
    assert main(argv) == 2
    named = "config key 'variations'" if from_config else "--variations"
    assert f"{named} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,cap", [("-n", MAX_VARIATIONS), ("--steps", MAX_DENOISE_STEPS)])
def test_pipeline_caps_variations_and_steps(tmp_path, inputs, capsys, flag, cap):
    assert cap == 10_000
    script = tmp_path / "fixed.scn"
    script.write_text("ego = new Car on lane main_a at 5.0 with speed 3.0\n")
    argv = ["pipeline", "--script", str(script), "--map", "straight", "--camera", inputs["camera"], "-n", "2"]
    # at the cap the settings pass; the script has no distribution, so sampling fails (exit 1)
    assert main([*argv, flag, str(cap), "-o", str(tmp_path / "at")]) == 1
    assert main([*argv, flag, str(cap + 1), "-o", str(tmp_path / "above")]) == 2
    assert f"must be at least 1 and at most {cap}, got {cap + 1}" in capsys.readouterr().err
    assert not (tmp_path / "above").exists()


def test_pipeline_caps_jobs(tmp_path, inputs, capsys):
    assert MAX_JOBS == 256
    assert SETTINGS["jobs"][1] <= MAX_JOBS  # the default is in range on any host
    script = tmp_path / "fixed.scn"
    script.write_text("ego = new Car on lane main_a at 5.0 with speed 3.0\n")
    argv = ["pipeline", "--script", str(script), "--map", "straight", "--camera", inputs["camera"], "-n", "2"]
    # at the cap the settings pass and sampling fails (exit 1) before any pool starts
    assert main([*argv, "--jobs", str(MAX_JOBS), "-o", str(tmp_path / "at")]) == 1
    assert main([*argv, "--jobs", str(MAX_JOBS + 1), "-o", str(tmp_path / "above")]) == 2
    assert f"--jobs must be at least 1 and at most {MAX_JOBS}, got {MAX_JOBS + 1}" in capsys.readouterr().err
    assert not (tmp_path / "above").exists()


def test_bundle_caps_steps(tmp_path, inputs, capsys):
    argv = ["bundle", inputs["trace"], "--map", "straight", "--camera", inputs["camera"]]
    assert main([*argv, "--steps", str(MAX_DENOISE_STEPS + 1), "-o", str(tmp_path / "b")]) == 2
    assert "--steps must be at least 1 and at most" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


# --- config-file strictness and precedence -----------------------------------


def test_pipeline_checks_config_type_even_when_a_flag_overrides_it(tmp_path, inputs, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": "x"}))
    argv = ["pipeline", "--script", SCRIPT, "--map", "straight", "--camera", inputs["camera"]]
    out = tmp_path / "out"
    assert main([*argv, "--steps", "1", "--config", str(config), "-o", str(out)]) == 2
    assert "config key 'steps' must be" in capsys.readouterr().err
    assert not out.exists()


def test_gen_checks_config_type_even_when_a_flag_overrides_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"examples": "3"}))
    with StubLLMServer([GOOD_RESPONSE]) as stub:
        argv = ["gen", "--base-url", stub.base_url, "--model", "m", "--type", "vehicle-cut-in"]
        argv += ["--examples", "3", "--config", str(config)]
        assert main([*argv, "-o", str(tmp_path / "gen")]) == 2
        assert not stub.requests
    assert "config key 'examples' must be" in capsys.readouterr().err


def test_endpoint_precedence_flag_then_environment_then_config(tmp_path, monkeypatch):
    with StubLLMServer([GOOD_RESPONSE] * 3) as stub:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_url": stub.base_url, "model": "from-config"}))
        argv = ["gen", "--type", "vehicle-cut-in", "--config", str(config)]
        monkeypatch.delenv("SCENEKIT_LLM_MODEL", raising=False)
        monkeypatch.delenv("SCENEKIT_LLM_BASE_URL", raising=False)
        assert main([*argv, "-o", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("SCENEKIT_LLM_MODEL", "from-env")
        assert main([*argv, "-o", str(tmp_path / "b")]) == 0
        assert main([*argv, "--model", "from-flag", "-o", str(tmp_path / "c")]) == 0
        assert [r["model"] for r in stub.requests] == ["from-config", "from-env", "from-flag"]


def test_jobs_is_flag_only(tmp_path, inputs):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jobs": 0}))  # ignored, not rejected
    argv = ["pipeline", "--script", SCRIPT, "--map", "straight", "--camera", inputs["camera"]]
    argv += ["-n", "1", "--steps", "1", "--max-duration", "2", "--config", str(config)]
    assert main([*argv, "-o", str(tmp_path / "out")]) in (0, 1)
    assert (tmp_path / "out" / "summary.json").is_file()
