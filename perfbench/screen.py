"""The script-screen workload, in a process of its own so that its peak RSS
can be read from wait4.

    python3 perfbench/screen.py JOB.json

One operation screens every library scenario type: generate the script
through the stub (one repair round each), sample the variations, simulate
each one and check its requirements.  Nothing is rendered in the timed
loop.  After it, the pedestrian script's first variation is rendered once at
preview size and verified, so the bundle figures exist for this workload
too.  The result goes to the job's `result` path as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import layers
from common import MAX_OPS, StubProcess, another_op, percentile, tree_bytes
from scenekit import cli
from scenekit.condgen.bundle import verify_bundle
from scenekit.condgen.diffusion import DEFAULT_STRENGTH
from scenekit.dsl import compile_script, format_script
from scenekit.promptgen.client import EndpointConfig
from scenekit.promptgen.library import builtin_library
from scenekit.render.combine import load_weights
from scenekit.sim.worldmap import builtin_map
from spans import Tracer

PREVIEW_TYPE = "pedestrian-crossing-occluded"  # 85 frames whatever the draw
PREVIEW_CAMERA = {
    "variant": "topdown",
    "center": [0.0, 0.0],
    "meters_per_pixel": 0.4,
    "width": 128,
    "height": 128,
    "ortho_height": 50.0,
    "far_plane": 100.0,
}
PREVIEW_STEPS = 5
VERIFY_REPS = 20


def screen(tracer: Tracer, library, endpoint, expected: dict, worlds: dict, job: dict) -> dict:
    """One operation; returns timings, counts and a digest of every verdict."""
    inputs = job["inputs"]
    digest = hashlib.sha256()
    op = {"gen_s": [], "problems": [], "variations": 0, "passed": 0, "frames": 0, "scenarios": {}}
    for type_name, map_name in layers.TYPE_MAPS.items():
        start = time.perf_counter()
        transcript = layers.generate(tracer, type_name, inputs["gen_seed"], library, endpoint)
        op["gen_s"].append(time.perf_counter() - start)
        found = checks.check_generation(transcript, expected[type_name])
        if found:
            op["problems"] += found
            continue
        scenarios = layers.compile_and_sample(tracer, transcript.script, job["variations"], inputs["pipeline_seed"])
        op["scenarios"][type_name] = scenarios
        for scenario in scenarios:
            with tracer.span("screen.variation", run=f"{type_name}/{scenario.seed}"):
                trace, passed = layers.simulate(tracer, scenario, worlds[map_name])
            op["variations"] += 1
            op["passed"] += passed
            op["frames"] += len(trace.frames)
            record = [type_name, scenario.seed, trace.termination, len(trace.frames),
                      [e.classification.value for e in trace.events], passed]
            digest.update(json.dumps(record).encode())
    op["digest"] = digest.hexdigest()
    return op


def timed_screen(tracer: Tracer, *args) -> tuple[dict, float]:
    start = time.perf_counter()
    with layers.instrumented(tracer):
        op = screen(tracer, *args)
    return op, time.perf_counter() - start


def preview(tracer: Tracer, scenario, job: dict) -> dict:
    """Render, export and verify one variation at preview size, through the
    CLI's own per-variation code."""
    out = Path(job["work"]) / "preview"
    task = {
        "index": 0,
        "scenario": scenario,
        "map": layers.TYPE_MAPS[PREVIEW_TYPE],
        "camera": PREVIEW_CAMERA,
        "weights": load_weights("preset-a"),
        "prompt": job["inputs"]["prompt"],
        "steps": PREVIEW_STEPS,
        "strength": DEFAULT_STRENGTH,
        "dt": 0.05,
        "max_duration": 30.0,
        "out": str(out),
    }
    with layers.instrumented(tracer):
        row = cli._run_variation(task)
    if row["error"] is not None:
        return {"problems": [f"preview: {row['error']}"]}
    bundle = out / row["bundle"]
    problems, verify_s = [], []
    for _ in range(1 if tracer.enabled else VERIFY_REPS):
        start = time.perf_counter()
        with tracer.span("condgen.verify_bundle"):
            problems += verify_bundle(bundle)
        verify_s.append(time.perf_counter() - start)
    problems += checks.check_bundle(bundle)
    frames = len(json.loads((bundle / "trace.json").read_text())["frames"])
    if tracer.enabled:
        calls = layers.variation_counts(tracer.spans)["var-000"]["backend_calls"]
        if calls != PREVIEW_STEPS * frames:
            problems.append(f"preview: {calls} backend calls for {frames} frames")
    result = {"frames": frames, "bytes": tree_bytes(bundle), "verify_s": statistics.median(verify_s), "problems": problems}
    shutil.rmtree(out)
    return result


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    Path(job["work"]).mkdir(parents=True, exist_ok=True)
    traced = job["traced"]
    library = builtin_library()
    entries = {e.scenario_type.value: e.script_text for e in library.entries}
    expected = {t: format_script(compile_script(entries[t])[0]) for t in layers.TYPE_MAPS}
    worlds = {name: builtin_map(name) for name in set(layers.TYPE_MAPS.values())}
    replies = layers.stub_replies([entries[t] for t in layers.TYPE_MAPS], len(layers.TYPE_MAPS) * 2 * MAX_OPS)
    tracer = Tracer(enabled=traced)
    untraced = Tracer(enabled=False)
    ops, walls, traced_walls = [], [], []
    stub = StubProcess(replies, Path(job["work"]) / "replies.json", dict(os.environ))
    try:
        endpoint = EndpointConfig(base_url=stub.ready(), model="stub")
        started = time.perf_counter()
        durations: list[float] = []
        while another_op(durations, started, job["seconds"], 2):
            op, wall = timed_screen(untraced, library, endpoint, expected, worlds, job)
            ops.append(op)
            walls.append(wall)
            if traced:
                op, traced_wall = timed_screen(tracer, library, endpoint, expected, worlds, job)
                ops.append(op)
                traced_walls.append(traced_wall)
                wall += traced_wall
            durations.append(wall)
    finally:
        stub.stop()
    shown = ops[0]["scenarios"].get(PREVIEW_TYPE)
    view = preview(tracer, shown[0], job) if shown else None

    problems = [p for op in ops for p in op["problems"]]
    problems += [f"op {i}: verdicts differ from op 0" for i, op in enumerate(ops) if op["digest"] != ops[0]["digest"]]
    if view is None:
        problems.append("preview: no pedestrian variation to render")
    else:
        problems += [f"preview: {p}" for p in view["problems"]]
    result = {
        "attempted": sum(len(op["gen_s"]) + op["variations"] for op in ops) + 1,
        "failed": sum(len(op["problems"]) for op in ops) + (view is None or bool(view["problems"])),
        "problems": problems,
        "ops": len(ops),
        "op_walls": walls,
        "metrics": {},
    }
    if not problems and traced:
        timed_ops = ops[1::2]
        counts = {
            "scripts": sum(len(op["gen_s"]) for op in timed_ops),
            "sim_variations": sum(op["variations"] for op in timed_ops) + 1,
            "sim_frames": sum(op["frames"] for op in timed_ops) + view["frames"],
            "verified_frames": view["frames"],
            "bundle_bytes": view["bytes"],
            "jobs": 1,
            "overhead_pct": 100.0 * (sum(traced_walls) - sum(walls)) / sum(walls),
        }
        result["metrics"] = layers.layer_metrics(tracer.spans, counts)
        tracer.write(Path(job["spans"]))
    elif not problems:
        gen_s = [g for op in ops for g in op["gen_s"]]
        result["metrics"] = {
            "variations_per_s": ops[0]["variations"] / statistics.median(walls),
            "bytes_per_variation_mb": view["bytes"] / 1e6,
            "verify_s_per_variation": view["verify_s"],
            "gen_ms_p50": 1000.0 * statistics.median(gen_s),
            "gen_ms_p90": 1000.0 * percentile(gen_s, 0.9),
            "requirement_pass_ratio": sum(op["passed"] for op in ops) / sum(op["variations"] for op in ops),
        }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
