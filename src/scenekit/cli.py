"""Command-line entry point.

Subcommands mirror the pipeline stages: validate a script, generate one
through an endpoint, simulate, render control maps, build conditioning
bundles, or run everything end to end.  Exit codes are uniform: 0 success,
1 domain failure (bad script, failed requirement, exhausted repair), 2
environment failure (missing files, unreachable endpoint, bad config).

Settings resolve as flags > environment > config file.  The endpoint reads
SCENEKIT_LLM_BASE_URL, SCENEKIT_LLM_MODEL, and SCENEKIT_LLM_API_KEY when
flags are absent.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from pathlib import Path

from scenekit.condgen.bundle import BundleFrame, export_bundle, verify_bundle
from scenekit.condgen.diffusion import DEFAULT_STEPS, DEFAULT_STRENGTH, MockDenoiser, run_diffusion
from scenekit.dsl import compile_script
from scenekit.dsl.diagnostics import has_errors
from scenekit.dsl.formatter import format_script
from scenekit.dsl.sampler import SampleError, VariationError, sample_parameters, sample_variations
from scenekit.promptgen.client import ApiError, EndpointConfig, TransportError
from scenekit.promptgen.generate import GenerationRequest, generate_scenario
from scenekit.promptgen.library import LibraryError, builtin_library, load_library
from scenekit.promptgen.stubserver import StubLLMServer
from scenekit.promptgen.template import ScenarioType
from scenekit.render.cameras import Camera, CameraError, camera_from_dict, camera_to_dict, default_camera
from scenekit.render.combine import combine_controls, load_weights, normalize_modality
from scenekit.render.formats import write_pfm, write_pgm
from scenekit.render.raster import edge_from_seg, prepare_static, render_frame
from scenekit.sim.engine import PlacementError, SimConfig, run
from scenekit.sim.requirements import check_requirements
from scenekit.sim.traceio import read_trace_json, write_trace_json
from scenekit.sim.worldmap import MapError, WorldMap, builtin_map, load_map

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_ENV = 2

DEFAULT_PROMPT = "sunny day"


class CliError(Exception):
    """Environment-level failure; message goes to stderr, exit code 2."""


def _load_world(spec: str) -> WorldMap:
    try:
        path = Path(spec)
        if path.suffix == ".json" or path.exists():
            return load_map(path)
        return builtin_map(spec)
    except (MapError, OSError) as e:
        raise CliError(f"cannot load map {spec!r}: {e}") from e


def _load_camera(spec: str | None, world: WorldMap) -> Camera:
    if spec is None:
        anchor = world.anchors.get("center") or next(iter(world.anchors.values()), None)
        center = (anchor.x, anchor.y) if anchor is not None else (0.0, 0.0)
        return default_camera(center)
    try:
        data = json.loads(Path(spec).read_text())
        return camera_from_dict(data)
    except OSError as e:
        raise CliError(f"cannot read camera file {spec!r}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError, CameraError) as e:
        raise CliError(f"bad camera config {spec!r}: {e}") from e


def _load_weight_spec(spec: str) -> dict[str, float]:
    try:
        return load_weights(spec)
    except (OSError, ValueError) as e:
        raise CliError(f"bad weights {spec!r}: {e}") from e


def _check_diffusion_args(prompt: str, steps: int, strength: float) -> None:
    """Reject denoising flags that `run_diffusion` would refuse, before rendering."""
    if steps < 1:
        raise CliError(f"--steps must be at least 1, got {steps}")
    if not 0.0 <= strength <= 1.0:  # also false for NaN
        raise CliError(f"--strength must be in [0, 1], got {strength}")
    if not prompt:
        raise CliError("--prompt must be non-empty")


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read config file {path!r}: {e}") from e
    if not isinstance(data, dict):
        raise CliError(f"config file {path!r} must hold a JSON object")
    return data


def _resolve_endpoint(args, config: dict) -> EndpointConfig:
    """flags > environment > config file for the endpoint settings."""
    env = os.environ
    for key in ("base_url", "model", "api_key"):
        _pick(None, config, key, None, str)  # a config-file value must be a string
    base_url = args.base_url or env.get("SCENEKIT_LLM_BASE_URL") or config.get("base_url")
    model = args.model or env.get("SCENEKIT_LLM_MODEL") or config.get("model")
    api_key = args.api_key or env.get("SCENEKIT_LLM_API_KEY") or config.get("api_key")
    if not base_url or not model:
        raise CliError(
            "endpoint not configured: pass --base-url/--model, set "
            "SCENEKIT_LLM_BASE_URL/SCENEKIT_LLM_MODEL, or use a config file"
        )
    return EndpointConfig(base_url=base_url, model=model, api_key=api_key)


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _pick(flag_value, config: dict, key: str, default, kind: type):
    """The flag if given, else the config-file value, else `default`.

    A config-file value must be a `kind` (an int also serves as a float, a
    boolean as no number); anything else is a CliError naming the key.
    """
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    value = config[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise CliError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _library(path: str | None):
    try:
        return load_library(path) if path else builtin_library()
    except LibraryError as e:
        raise CliError(f"cannot load example library: {e}") from e


def _read_script(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read script {path!r}: {e}") from e


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    text = _read_script(args.script)
    ast, diags = compile_script(text)
    for d in diags:
        print(d.to_json())
    return EXIT_OK if ast is not None and not has_errors(diags) else EXIT_DOMAIN


def cmd_gen(args) -> int:
    config = _read_config_file(args.config)
    endpoint = _resolve_endpoint(args, config)
    library = _library(_pick(args.library, config, "library", None, str))
    try:
        scenario_type = ScenarioType.from_name(_pick(args.type, config, "type", None, str) or "")
    except ValueError as e:
        raise CliError(str(e)) from None
    request = GenerationRequest(
        scenario_type=scenario_type,
        k_examples=_pick(args.examples, config, "examples", 3, int),
        seed=_pick(args.seed, config, "seed", 0, int),
        temperature=_pick(args.temperature, config, "temperature", 0.7, float),
        repair_limit=_pick(args.repair_limit, config, "repair_limit", 2, int),
    )
    try:
        transcript = generate_scenario(request, library, endpoint)
    except (TransportError, ApiError) as e:
        raise CliError(str(e)) from e
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "transcript.json").write_text(transcript.to_json() + "\n")
    if transcript.outcome == "success":
        assert transcript.script is not None
        (out / "scenario.scn").write_text(transcript.script)
        _print_json({"outcome": "success", "rounds": len(transcript.rounds)})
        return EXIT_OK
    _print_json({"outcome": "exhausted", "rounds": len(transcript.rounds)})
    return EXIT_DOMAIN


def _sim_config(args) -> SimConfig:
    return SimConfig(
        dt=args.dt,
        max_duration=args.max_duration,
        collision_stop=not args.no_collision_stop,
    )


def cmd_sim(args) -> int:
    text = _read_script(args.script)
    ast, diags = compile_script(text)
    if ast is None:
        for d in diags:
            print(d.to_json())
        return EXIT_DOMAIN
    world = _load_world(args.map)
    try:
        scenario = sample_parameters(ast, seed=args.seed)
        trace = run(scenario, world, _sim_config(args))
    except (SampleError, PlacementError) as e:
        print(json.dumps({"error": str(e)}))
        return EXIT_DOMAIN
    results = check_requirements(trace, scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_json(trace, out / "trace.json")
    _print_json(
        {
            "termination": trace.termination,
            "duration": trace.duration,
            "events": [
                {
                    "time": e.time,
                    "agents": [e.agent_a, e.agent_b],
                    "classification": e.classification.value,
                }
                for e in trace.events
            ],
            "requirements": [{"text": r.text, "passed": r.passed} for r in results],
        }
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_DOMAIN


def _render_inputs(args):
    """Trace, world, camera and weights named by render/bundle flags."""
    try:
        trace = read_trace_json(args.trace)
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read trace {args.trace!r}: {e}") from e
    world = _load_world(args.map)
    camera = _load_camera(args.camera, world)
    return trace, world, camera, _load_weight_spec(args.weights)


def _control_maps(frame, world, camera, static, weights):
    """One trace frame to its (seg, depth, edge, combined) control rasters."""
    seg, depth = render_frame(frame, world, camera, static)
    edge = edge_from_seg(seg)
    combined = combine_controls(
        {
            "seg": normalize_modality(seg, "seg"),
            "depth": normalize_modality(depth, "depth", camera.far_plane),
            "edge": normalize_modality(edge, "edge"),
        },
        weights,
    )
    return seg, depth, edge, combined


def cmd_render(args) -> int:
    trace, world, camera, weights = _render_inputs(args)
    out = Path(args.out) / "frames"
    out.mkdir(parents=True, exist_ok=True)
    static = prepare_static(world, camera)
    for index, frame in enumerate(trace.frames):
        seg, depth, edge, combined = _control_maps(frame, world, camera, static, weights)
        write_pgm(out / f"{index:06d}.seg.pgm", seg)
        write_pfm(out / f"{index:06d}.depth.pfm", depth)
        write_pgm(out / f"{index:06d}.edge.pgm", edge)
        write_pfm(out / f"{index:06d}.combined.pfm", combined)
    _print_json({"frames": len(trace.frames), "out": str(out)})
    return EXIT_OK


def _export_trace(trace, world, camera, weights, prompt, steps, strength, seed, out) -> dict:
    """Render, diffuse and export one trace as a bundle; returns the manifest."""
    static = prepare_static(world, camera)
    frames: list[BundleFrame] = []
    for index, frame in enumerate(trace.frames):
        seg, depth, edge, combined = _control_maps(frame, world, camera, static, weights)
        # one latent stream per frame, offset so frames do not share noise
        latent = run_diffusion(
            MockDenoiser(), combined, prompt, steps, strength, seed=seed * 1_000_003 + index
        )
        frames.append(
            BundleFrame(seg=seg, depth=depth, edge=edge, combined=combined, latent_final=latent)
        )
    config = {
        "steps": steps,
        "strength": strength,
        "weights": weights,
        "camera": camera_to_dict(camera),
        "seed": seed,
    }
    return export_bundle(frames, prompt, config, out, trace=trace)


def cmd_bundle(args) -> int:
    if args.verify is not None:
        problems = verify_bundle(args.verify)
        _print_json({"bundle": args.verify, "problems": problems})
        return EXIT_OK if not problems else EXIT_DOMAIN
    if args.trace is None:
        raise CliError("bundle needs a trace file (or --verify DIR)")
    if args.map is None or args.out is None:
        raise CliError("bundle needs --map and --out when building")
    _check_diffusion_args(args.prompt, args.steps, args.strength)
    trace, world, camera, weights = _render_inputs(args)
    manifest = _export_trace(
        trace, world, camera, weights, args.prompt, args.steps, args.strength, args.seed, args.out
    )
    _print_json({"out": args.out, "frames": len(trace.frames), "files": len(manifest["files"])})
    return EXIT_OK


# --------------------------------------------------------------------------
# pipeline


def _run_variation(task: dict) -> dict:
    """One variation end to end: sim, render, diffuse, bundle.

    Runs inside a worker process; the returned row is the only channel back
    to the parent, so failures are recorded rather than raised.
    """
    row = {
        "index": task["index"],
        "seed": task["scenario"].seed,
        "params": dict(task["scenario"].params),
        "termination": None,
        "collision": None,
        "requirements": [],
        "passed": False,
        "bundle": None,
        "error": None,
    }
    try:
        world = _load_world(task["map"])
        camera = camera_from_dict(task["camera"])
        scenario = task["scenario"]
        config = SimConfig(
            dt=task["dt"], max_duration=task["max_duration"], collision_stop=True
        )
        trace = run(scenario, world, config)
        results = check_requirements(trace, scenario)
        row["termination"] = trace.termination
        if trace.events:
            row["collision"] = trace.events[0].classification.value
        row["requirements"] = [{"text": r.text, "passed": r.passed} for r in results]
        row["passed"] = all(r.passed for r in results)
        bundle_dir = Path(task["out"]) / f"var-{task['index']:03d}"
        _export_trace(
            trace,
            world,
            camera,
            task["weights"],
            task["prompt"],
            task["steps"],
            task["strength"],
            scenario.seed,
            bundle_dir,
        )
        row["bundle"] = bundle_dir.name
    except Exception as e:  # noqa: BLE001 - report, do not kill the pool
        row["error"] = str(e)
        row["passed"] = False
    return row


def cmd_pipeline(args) -> int:
    config = _read_config_file(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    map_spec = _pick(args.map, config, "map", None, str)
    if map_spec is None:
        raise CliError("pipeline needs a map (--map or config)")
    world = _load_world(map_spec)
    camera = _load_camera(_pick(args.camera, config, "camera", None, str), world)
    weights = _load_weight_spec(_pick(args.weights, config, "weights", "preset-a", str))
    prompt = _pick(args.prompt, config, "prompt", DEFAULT_PROMPT, str)
    steps = _pick(args.steps, config, "steps", DEFAULT_STEPS, int)
    strength = _pick(args.strength, config, "strength", DEFAULT_STRENGTH, float)
    n = _pick(args.variations, config, "variations", 20, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    dt = _pick(args.dt, config, "dt", 0.05, float)
    max_duration = _pick(args.max_duration, config, "max_duration", 30.0, float)
    _check_diffusion_args(prompt, steps, strength)
    if args.jobs is not None and args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = args.jobs or os.cpu_count() or 1

    script_path = _pick(args.script, config, "script", None, str)
    if script_path is not None:
        script_text = _read_script(script_path)
        scenario_type = None
    else:
        endpoint = _resolve_endpoint(args, config)
        library = _library(_pick(args.library, config, "library", None, str))
        type_name = _pick(args.type, config, "type", None, str)
        if type_name is None:
            raise CliError("pipeline needs --script or a scenario --type for generation")
        try:
            scenario_type = ScenarioType.from_name(type_name)
        except ValueError as e:
            raise CliError(str(e)) from None
        request = GenerationRequest(scenario_type=scenario_type, seed=seed)
        try:
            transcript = generate_scenario(request, library, endpoint)
        except (TransportError, ApiError) as e:
            raise CliError(str(e)) from e
        (out / "transcript.json").write_text(transcript.to_json() + "\n")
        if transcript.outcome != "success":
            _print_json({"outcome": "exhausted", "rounds": len(transcript.rounds)})
            return EXIT_DOMAIN
        assert transcript.script is not None
        script_text = transcript.script

    ast, diags = compile_script(script_text)
    if ast is None:
        for d in diags:
            print(d.to_json())
        return EXIT_DOMAIN
    (out / "script.scn").write_text(format_script(ast))

    try:
        scenarios = sample_variations(ast, n, base_seed=seed)
    except (VariationError, SampleError, ValueError) as e:
        print(json.dumps({"error": str(e)}))
        return EXIT_DOMAIN

    tasks = [
        {
            "index": index,
            "scenario": scenario,
            "map": map_spec,
            "camera": camera_to_dict(camera),
            "weights": weights,
            "prompt": prompt,
            "steps": steps,
            "strength": strength,
            "dt": dt,
            "max_duration": max_duration,
            "out": str(out),
        }
        for index, scenario in enumerate(scenarios)
    ]
    if jobs == 1 or len(tasks) == 1:
        rows = [_run_variation(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_variation, tasks))
    rows.sort(key=lambda r: r["index"])

    summary = {
        "map": map_spec,
        "scenario_type": scenario_type.value if scenario_type else None,
        "prompt": prompt,
        "n": n,
        "seed": seed,
        "weights": weights,
        "steps": steps,
        "strength": strength,
        "passing": sum(1 for r in rows if r["passed"]),
        "variations": rows,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _print_json({"n": n, "passing": summary["passing"], "out": str(out)})
    return EXIT_OK if summary["passing"] >= 1 else EXIT_DOMAIN


def cmd_stub_llm(args) -> int:
    if args.responses is not None:
        try:
            responses = json.loads(Path(args.responses).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CliError(f"cannot read responses file: {e}") from e
        if not isinstance(responses, list) or not responses:
            raise CliError("responses file must hold a non-empty JSON list")
    else:
        responses = [
            "```\n"
            "param gap = Range(25.0, 40.0)\n"
            "behavior Cruise(v):\n"
            "    follow lane at v\n"
            "behavior HardBrake(rate):\n"
            "    brake at rate when time above 1.0\n"
            "ego = new Car on lane main_a at 20.0 with speed 14.0 with behavior Cruise(14.0)\n"
            "lead = new Car ahead of ego by gap with speed 8.0 with behavior HardBrake(4.5)\n"
            "require collision\n"
            "terminate when time above 15.0\n"
            "```"
        ]
    try:
        server = StubLLMServer(responses, host=args.host, port=args.port)
    except ValueError as e:
        raise CliError(f"bad responses file: {e}") from e
    server.start()
    print(json.dumps({"base_url": server.base_url}), flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        server.stop()


# --------------------------------------------------------------------------
# parser


def _add_endpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base-url", help="chat-completions endpoint base URL")
    p.add_argument("--model", help="model name sent to the endpoint")
    p.add_argument("--api-key", help="bearer token for the endpoint")
    p.add_argument("--library", help="example library directory (default: built-in)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenekit",
        description="Scenario scripts to simulation traces to conditioning bundles.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="compile a script and print diagnostics")
    p.add_argument("script")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a script through an LLM endpoint")
    _add_endpoint_flags(p)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--type", help="scenario type to request")
    p.add_argument("--examples", type=int, help="few-shot example count (default 3)")
    p.add_argument("--seed", type=int, help="selection and sampling seed (default 0)")
    p.add_argument("--temperature", type=float, help="sampling temperature (default 0.7)")
    p.add_argument("--repair-limit", type=int, help="repair rounds after the first try (default 2)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sim", help="sample one scenario and simulate it")
    p.add_argument("script")
    p.add_argument("--map", required=True, help="map name or path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--max-duration", type=float, default=30.0)
    p.add_argument("--no-collision-stop", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("render", help="render control maps from a trace")
    p.add_argument("trace", help="trace JSON file")
    p.add_argument("--map", required=True)
    p.add_argument("--camera", help="camera JSON file (default: top-down over the map)")
    p.add_argument("--weights", default="preset-a", help="preset name or weights JSON file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bundle", help="build or verify a conditioning bundle")
    p.add_argument("trace", nargs="?", help="trace JSON file")
    p.add_argument("--map")
    p.add_argument("--camera")
    p.add_argument("--weights", default="preset-a")
    p.add_argument("--prompt", default=DEFAULT_PROMPT)
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p.add_argument("--strength", type=float, default=DEFAULT_STRENGTH)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", metavar="DIR", help="verify an existing bundle instead")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("pipeline", help="script to bundles, end to end")
    _add_endpoint_flags(p)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--script", help="pre-written script (skips the LLM stage)")
    p.add_argument("--type", help="scenario type when generating")
    p.add_argument("--map")
    p.add_argument("-n", "--variations", type=int, help="variation count (default 20)")
    p.add_argument("--seed", type=int)
    p.add_argument("--camera")
    p.add_argument("--weights")
    p.add_argument("--prompt")
    p.add_argument("--steps", type=int)
    p.add_argument("--strength", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--max-duration", type=float)
    p.add_argument("--jobs", type=int, help="worker processes (default: CPU count)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("stub-llm", help="serve the scripted test endpoint")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--responses", help="JSON list of scripted responses")
    p.set_defaults(func=cmd_stub_llm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_ENV
    try:
        return args.func(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ENV
    except BrokenPipeError:
        return EXIT_ENV


if __name__ == "__main__":
    sys.exit(main())
