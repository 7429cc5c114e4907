"""Command-line entry point.

Subcommands mirror the pipeline stages: validate a script, generate one
through an endpoint, simulate, render control maps, build conditioning
bundles, or run everything end to end.  Exit codes are uniform: 0 success,
1 domain failure (bad script, failed requirement, exhausted repair), 2
environment failure (missing files, unreachable endpoint, bad config).

Every run setting is a row of SETTINGS and resolves as flag > config file >
default; the endpoint settings read SCENEKIT_LLM_BASE_URL, SCENEKIT_LLM_MODEL
and SCENEKIT_LLM_API_KEY between flag and config file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import numpy as np

from scenekit.condgen.bundle import BundleError, thread_map, usable_cpus, verify_bundle
from scenekit.condgen.bundle import export_bundle  # noqa: F401 - perfbench's traced run rebinds it
from scenekit.condgen.bundle import write_bundle, write_frame
from scenekit.condgen.diffusion import DEFAULT_STEPS, DEFAULT_STRENGTH, BackendError, MockDenoiser
from scenekit.condgen.diffusion import run_diffusion
from scenekit.dsl import compile_script
from scenekit.dsl.diagnostics import has_errors
from scenekit.dsl.formatter import format_script
from scenekit.dsl.sampler import SampleError, VariationError, sample_parameters, sample_variations
from scenekit.jsonio import read_json
from scenekit.promptgen.client import ApiError, EmptyResponseError, EndpointConfig, TransportError
from scenekit.promptgen.generate import GenerationRequest, generate_scenario
from scenekit.promptgen.library import LibraryError, builtin_library, load_library
from scenekit.promptgen.stubserver import StubLLMServer
from scenekit.promptgen.template import ScenarioType
from scenekit.render.cameras import Camera, CameraError, TopDownCamera, camera_from_dict, camera_to_dict
from scenekit.render.combine import combine_controls, load_weights, normalize_modality
from scenekit.render.raster import edge_from_seg, prepare_static, render_frame
from scenekit.sim.engine import MAX_STEPS, PlacementError, SimConfig, run
from scenekit.sim.requirements import check_requirements
from scenekit.sim.traceio import TraceError, read_trace_json, trace_json_bytes
from scenekit.sim.worldmap import MapError, WorldMap, builtin_map, load_map

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_ENV = 2


class CliError(Exception):
    """Environment-level failure; message goes to stderr, exit code 2."""


MAX_VARIATIONS = 10_000  # most variations one pipeline run samples
MAX_DENOISE_STEPS = 10_000  # most denoising steps per frame
MAX_JOBS = 256  # most worker processes one pipeline run starts

_AT_LEAST_0 = (lambda v, s: v >= 0, "at least 0")
_AT_LEAST_1 = (lambda v, s: v >= 1, "at least 1")


def _from_1_to(cap: int) -> tuple:
    return (lambda v, s: 1 <= v <= cap, f"at least 1 and at most {cap}")


# Every run setting, by flag dest (= config key): kind, default, range rule and
# help.  A rule is (predicate on the value and the settings above it, what it
# allows); a value out of range is a CliError.  `jobs` is flag-only.
SETTINGS = {
    "base_url": (str, None, None, "chat-completions endpoint base URL"),
    "model": (str, None, None, "model name sent to the endpoint"),
    "api_key": (str, None, None, "bearer token for the endpoint"),
    "library": (str, None, None, "example library directory (default: built-in)"),
    "type": (str, None, None, "scenario type to request"),
    "script": (str, None, None, "pre-written script (skips the LLM stage)"),
    "map": (str, None, None, "map name or path"),
    "camera": (str, None, None, "camera JSON file (default: top-down over the map)"),
    "weights": (str, "preset-a", None, "preset name or weights JSON file"),
    "prompt": (str, "sunny day", (lambda v, s: v != "", "non-empty"), "denoiser text prompt"),
    "examples": (int, GenerationRequest.k_examples, _AT_LEAST_1, "few-shot example count"),
    "seed": (int, 0, _AT_LEAST_0, "sampling seed"),
    "temperature": (float, GenerationRequest.temperature,
                    (lambda v, s: 0 <= v < math.inf, "finite and at least 0"), "sampling temperature"),
    "repair_limit": (int, GenerationRequest.repair_limit, _AT_LEAST_0, "repair rounds after the first try"),
    "variations": (int, 20, _from_1_to(MAX_VARIATIONS), "variation count"),
    "steps": (int, DEFAULT_STEPS, _from_1_to(MAX_DENOISE_STEPS), "denoising steps per frame"),
    "strength": (float, DEFAULT_STRENGTH, (lambda v, s: 0 <= v <= 1, "in [0, 1]"),
                 "denoising strength"),
    "dt": (float, SimConfig.dt, (lambda v, s: 0 < v < math.inf, "finite and above 0"),
           "simulator step in seconds"),
    "max_duration": (float, SimConfig.max_duration,
                     (lambda v, s: 0 < v < math.inf and v / s.dt <= MAX_STEPS,
                      f"finite, above 0 and at most {MAX_STEPS} steps of --dt"),
                     "simulated horizon in seconds"),
    "jobs": (int, min(usable_cpus(), MAX_JOBS), _from_1_to(MAX_JOBS),
             "worker processes, one variation each at a time"),
}


def _resolve(args) -> None:
    """Fill in every setting the subcommand has a flag for, then check its range.

    The config file supplies only those keys, `jobs` excepted, and each value
    it holds must be of the setting's kind (an int serves as a float, a
    boolean as no number) whether or not a flag overrides it.
    """
    config = _read_config_file(getattr(args, "config", None))
    for key, (kind, default, rule, _) in SETTINGS.items():
        if not hasattr(args, key):
            continue
        name, value = f"--{key.replace('_', '-')}", getattr(args, key)
        if value is None and key in ("base_url", "model", "api_key"):
            value = os.environ.get(f"SCENEKIT_LLM_{key.upper()}") or None
        if key in config and key != "jobs":
            found = config[key]
            accepted = (int, float) if kind is float else kind
            if isinstance(found, bool) or not isinstance(found, accepted):
                raise CliError(f"config key {key!r} must be {kind.__name__}, got {found!r}")
            if value is None:
                name = f"config key {key!r}"
                try:
                    value = kind(found)
                except OverflowError:  # an int past the float range reads as inf, like 1e400
                    value = math.inf
        value = default if value is None else value
        if rule is not None and value is not None and not rule[0](value, args):
            raise CliError(f"{name} must be {rule[1]}, got {value!r}")
        setattr(args, key, value)


def _load_world(spec: str) -> WorldMap:
    try:
        path = Path(spec)
        if path.suffix == ".json" or path.exists():
            return load_map(path)
        return builtin_map(spec)
    except (MapError, OSError) as e:
        raise CliError(f"cannot load map {spec!r}: {e}") from e


def _load_camera(spec: str | None, world: WorldMap) -> Camera:
    """The camera file's camera, or a default top-down one over the map's
    `center` anchor (else its first anchor, else the origin)."""
    try:
        if spec is not None:
            return camera_from_dict(read_json(spec, CameraError, ""))
        anchor = world.anchors.get("center") or next(iter(world.anchors.values()), None)
        return TopDownCamera() if anchor is None else TopDownCamera(anchor.x, anchor.y)
    except CameraError as e:
        what = f"camera config {spec!r}" if spec is not None else f"default camera for map {world.name!r}"
        raise CliError(f"bad {what}: {e}") from e


def _load_weight_spec(spec: str) -> dict[str, float]:
    try:
        return load_weights(spec)
    except ValueError as e:
        raise CliError(f"bad weights {spec!r}: {e}") from e


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    data = read_json(path, CliError, f"cannot read config file {path!r}: ")
    if not isinstance(data, dict):
        raise CliError(f"config file {path!r} must hold a JSON object")
    return data


def _generate(args, **request):
    """The generate-repair loop for the endpoint, library and type in `args`."""
    if not args.base_url or not args.model:
        raise CliError(
            "endpoint not configured: pass --base-url/--model, set "
            "SCENEKIT_LLM_BASE_URL/SCENEKIT_LLM_MODEL, or use a config file"
        )
    endpoint = EndpointConfig(base_url=args.base_url, model=args.model, api_key=args.api_key)
    try:
        library = load_library(args.library) if args.library else builtin_library()
    except LibraryError as e:
        raise CliError(f"cannot load example library: {e}") from e
    try:
        scenario_type = ScenarioType.from_name(args.type or "")
    except ValueError as e:
        raise CliError(str(e)) from None
    try:
        return generate_scenario(GenerationRequest(scenario_type, **request), library, endpoint)
    except (TransportError, ApiError, EmptyResponseError) as e:
        raise CliError(str(e)) from e


def _read_script(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the name
        raise CliError(f"cannot read script {path!r}: {e}") from e


def _make_out(path: str) -> Path:
    """Create the output directory `path` (and its parents) if need be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a regular file in the way, no permission
        raise CliError(f"cannot create output directory {path!r}: {e.strerror or e}") from e
    return out


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
    transcript = _generate(
        args,
        k_examples=args.examples,
        seed=args.seed,
        temperature=args.temperature,
        repair_limit=args.repair_limit,
    )
    out = _make_out(args.out)
    (out / "transcript.json").write_text(transcript.to_json() + "\n")
    if transcript.outcome == "success":
        assert transcript.script is not None
        (out / "scenario.scn").write_text(transcript.script)
        _print_json({"outcome": "success", "rounds": len(transcript.rounds)})
        return EXIT_OK
    _print_json({"outcome": "exhausted", "rounds": len(transcript.rounds)})
    return EXIT_DOMAIN


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
        config = SimConfig(args.dt, args.max_duration, not args.no_collision_stop)
        trace = run(scenario, world, config)
        results = check_requirements(trace, scenario)
        trace_json = trace_json_bytes(trace)
    except (SampleError, PlacementError, TraceError) as e:
        print(json.dumps({"error": str(e)}))
        return EXIT_DOMAIN
    (_make_out(args.out) / "trace.json").write_bytes(trace_json)
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
    except TraceError as e:
        raise CliError(f"cannot read trace {args.trace!r}: {e}") from e
    world = _load_world(args.map)
    camera = _load_camera(args.camera, world)
    return trace, world, camera, _load_weight_spec(args.weights)


def _control_maps(frame, world, camera, static, weights):
    """One trace frame to its (seg, depth, edge, combined) control rasters.
    Only the modalities with a weight are normalized; no weight at all
    combines to zeros."""
    seg, depth = render_frame(frame, world, camera, static)
    edge = edge_from_seg(seg)
    if not weights:
        return seg, depth, edge, np.zeros(seg.shape, dtype=np.float32)
    raw = {"seg": seg, "depth": depth, "edge": edge}
    combined = combine_controls(
        {name: normalize_modality(raw[name], name, camera.far_plane) for name in weights}, weights
    )
    return seg, depth, edge, combined


def cmd_render(args) -> int:
    trace, world, camera, weights = _render_inputs(args)
    out = _make_out(args.out)
    (out / "frames").mkdir(exist_ok=True)
    static = prepare_static(world, camera)

    def render(index: int) -> None:
        maps = _control_maps(trace.frames[index], world, camera, static, weights)
        write_frame(out, index, maps, (camera.height, camera.width))

    thread_map(render, range(len(trace.frames)), usable_cpus())
    _print_json({"frames": len(trace.frames), "out": str(out / "frames")})
    return EXIT_OK


def _export_trace(
    trace, world, camera, weights, prompt, steps, strength, seed, out, *, threads: int
) -> dict:
    """Render, diffuse and write one trace as a bundle; returns the manifest.

    The trace is serialized first, so one that cannot be (TraceError) fails
    before any frame is rendered or any file written.  Each frame task that
    `write_bundle` runs on `threads` threads renders and diffuses its frame,
    then writes and hashes its five files through `write_frame` and keeps
    only their digests, so the rasters held are those of the frames in
    flight.  A failing frame raises the error of the lowest failing index,
    as a serial loop would, and `write_bundle` leaves no manifest behind."""
    trace_json = trace_json_bytes(trace)
    static = prepare_static(world, camera)
    shape = (camera.height, camera.width)

    def export(out: Path, index: int) -> list[tuple[str, str]]:
        seg, depth, edge, combined = _control_maps(
            trace.frames[index], world, camera, static, weights
        )
        # one latent stream per frame, offset so frames do not share noise
        latent = run_diffusion(
            MockDenoiser(), combined, prompt, steps, strength, seed=seed * 1_000_003 + index
        )
        return write_frame(out, index, (seg, depth, edge, combined, latent), shape)

    config = {
        "steps": steps,
        "strength": strength,
        "weights": weights,
        "camera": camera_to_dict(camera),
        "seed": seed,
    }
    return write_bundle(
        export, len(trace.frames), prompt, config, out, trace_json, threads=threads
    )


def cmd_bundle(args) -> int:
    if args.verify is not None:
        problems = verify_bundle(args.verify)
        _print_json({"bundle": args.verify, "problems": problems})
        return EXIT_OK if not problems else EXIT_DOMAIN
    if args.trace is None:
        raise CliError("bundle needs a trace file (or --verify DIR)")
    if args.map is None or args.out is None:
        raise CliError("bundle needs --map and --out when building")
    trace, world, camera, weights = _render_inputs(args)
    out = _make_out(args.out)
    try:
        manifest = _export_trace(
            trace, world, camera, weights, args.prompt, args.steps, args.strength, args.seed, out,
            threads=usable_cpus(),
        )
    except (BackendError, BundleError) as e:
        print(json.dumps({"error": str(e)}))
        return EXIT_DOMAIN
    _print_json({"out": args.out, "frames": len(trace.frames), "files": len(manifest["files"])})
    return EXIT_OK


# --------------------------------------------------------------------------
# pipeline


def _run_variation(task: dict) -> dict:
    """One variation end to end: sim, render, diffuse, bundle.

    Runs inside a worker process; the returned row is the only channel back
    to the parent, so failures are recorded rather than raised, and a
    `var-NNN` directory that this export created is removed.  The frames
    render on `task["threads"]` threads, or on one when the task has no
    such key.
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
    fresh = False  # whether this export creates the bundle directory
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
        fresh = not bundle_dir.exists()
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
            threads=task.get("threads", 1),
        )
        row["bundle"] = bundle_dir.name
    except Exception as e:  # noqa: BLE001 - report, do not kill the pool
        row["error"] = str(e)
        row["passed"] = False
        if fresh:
            shutil.rmtree(bundle_dir, ignore_errors=True)
    return row


def cmd_pipeline(args) -> int:
    if args.map is None:
        raise CliError("pipeline needs a map (--map or config)")
    world = _load_world(args.map)
    camera = _load_camera(args.camera, world)
    weights = _load_weight_spec(args.weights)
    out = Path(args.out)

    scenario_type = None
    if args.script is not None:
        script_text = _read_script(args.script)
    else:
        if args.type is None:
            raise CliError("pipeline needs --script or a scenario --type for generation")
        transcript = _generate(args, seed=args.seed)
        scenario_type = transcript.scenario_type
        _make_out(args.out)
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
    _make_out(args.out)
    (out / "script.scn").write_text(format_script(ast))

    try:
        scenarios = sample_variations(ast, args.variations, base_seed=args.seed)
    except (VariationError, SampleError, ValueError) as e:
        print(json.dumps({"error": str(e)}))
        return EXIT_DOMAIN

    # `workers` processes render variations at once, each one rendering its
    # frames on its share of the usable CPUs
    workers = min(args.jobs, len(scenarios))
    threads = max(1, usable_cpus() // workers)
    tasks = [
        {
            "index": index,
            "scenario": scenario,
            "map": args.map,
            "camera": camera_to_dict(camera),
            "weights": weights,
            "prompt": args.prompt,
            "steps": args.steps,
            "strength": args.strength,
            "dt": args.dt,
            "max_duration": args.max_duration,
            "out": str(out),
            "threads": threads,
        }
        for index, scenario in enumerate(scenarios)
    ]
    if workers == 1:
        rows = [_run_variation(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_variation, tasks))
    rows.sort(key=lambda r: r["index"])

    summary = {
        "map": args.map,
        "scenario_type": scenario_type,
        "prompt": args.prompt,
        "n": args.variations,
        "seed": args.seed,
        "weights": weights,
        "steps": args.steps,
        "strength": args.strength,
        "passing": sum(1 for r in rows if r["passed"]),
        "variations": rows,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _print_json({"n": args.variations, "passing": summary["passing"], "out": str(out)})
    return EXIT_OK if summary["passing"] >= 1 else EXIT_DOMAIN


def cmd_stub_llm(args) -> int:
    if args.responses is not None:
        responses = read_json(args.responses, CliError, "cannot read responses file: ")
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
    try:
        server.start()
    except (OSError, OverflowError) as e:  # address in use or unknown; port past 65535
        raise CliError(f"cannot serve on {args.host}:{args.port}: {e}") from e
    # both raise KeyboardInterrupt, also in a background job of a non-interactive
    # shell, which starts with SIGINT ignored; set before anyone knows the URL
    previous = {s: signal.signal(s, signal.default_int_handler) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        print(json.dumps({"base_url": server.base_url}), flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
        server.stop()


# --------------------------------------------------------------------------
# parser


def _add_settings(p: argparse.ArgumentParser, *keys: str, required: str = "") -> None:
    """One flag per named setting; no argparse default, `_resolve` fills it in."""
    for key in keys:
        kind, default, _, text = SETTINGS[key]
        flag = f"--{key.replace('_', '-')}"
        flags = ("-n", flag) if key == "variations" else (flag,)
        text += "" if default is None else f"; default {default}"
        p.add_argument(*flags, type=kind, required=key == required, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenekit",
        description="Scenario scripts to simulation traces to conditioning bundles.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    endpoint = ("base_url", "model", "api_key", "library", "type")
    diffusion = ("camera", "weights", "prompt", "steps", "strength", "seed")

    p = sub.add_parser("validate", help="compile a script and print diagnostics")
    p.add_argument("script")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a script through an LLM endpoint")
    _add_settings(p, *endpoint, "examples", "seed", "temperature", "repair_limit")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sim", help="sample one scenario and simulate it")
    p.add_argument("script")
    _add_settings(p, "map", "seed", "dt", "max_duration", required="map")
    p.add_argument("--no-collision-stop", action="store_true")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("render", help="render control maps from a trace")
    p.add_argument("trace", help="trace JSON file")
    _add_settings(p, "map", "camera", "weights", required="map")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bundle", help="build or verify a conditioning bundle")
    p.add_argument("trace", nargs="?", help="trace JSON file")
    _add_settings(p, "map", *diffusion)
    p.add_argument("--verify", metavar="DIR", help="verify an existing bundle instead")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("pipeline", help="script to bundles, end to end")
    _add_settings(
        p, *endpoint, "script", "map", "variations", *diffusion, "dt", "max_duration", "jobs"
    )
    p.add_argument("--config", help="JSON config file")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse printed help (0) or a usage error (2)
        return e.code
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_ENV
    try:
        _resolve(args)
        return args.func(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ENV
    except BrokenPipeError:
        return EXIT_ENV
    except OSError as e:  # an output path in the way, a full disk
        print(f"cannot complete {args.command}: {e}", file=sys.stderr)
        return EXIT_ENV


if __name__ == "__main__":
    sys.exit(main())
