"""Spans around the calls the program makes into scenekit's public functions.

Nothing here repeats the program's own code.  `instrumented` rebinds, for
as long as it lasts, the names that `scenekit.promptgen.generate` and
`scenekit.cli` look up when they run, so `generate_scenario` and
`cmd_pipeline` (with its process pool) run unchanged and every call they
make into dsl, promptgen, sim, render and condgen gets a span:

* `cli._run_variation` becomes `traced_variation`, which wraps the original
  in a `cli.variation` span.  In a pool worker it writes that variation's
  spans to the spans directory when it ends, since only the summary row
  travels back to `cmd_pipeline`.
* `cli.MockDenoiser` becomes a subclass with a span around each `denoise`
  call, so backend calls are counted where the program makes them.
* The pool `cmd_pipeline` builds is its own `ProcessPoolExecutor` with the
  default start method, with a `cli.fanout` span from creation to shutdown.
"""

from __future__ import annotations

import concurrent.futures
import os
import types
from contextlib import contextmanager
from pathlib import Path

from scenekit import cli
from scenekit.condgen.bundle import export_bundle
from scenekit.condgen.diffusion import MockDenoiser
from scenekit.dsl import compile_script
from scenekit.dsl.sampler import sample_variations
from scenekit.promptgen import generate as generate_module
from scenekit.promptgen.generate import GenerationRequest, generate_scenario
from scenekit.promptgen.template import ScenarioType
from scenekit.sim.engine import SimConfig, run
from scenekit.sim.requirements import check_requirements

from spans import LAYERS, Tracer, durations, self_times, total

# Map each library scenario type plays out on.
TYPE_MAPS = {
    "rear-end-collision": "straight",
    "t-bone-collision": "crossing",
    "vehicle-cyclist-collision": "crossing",
    "pedestrian-crossing-occluded": "crossing",
    "vehicle-cut-in": "straight",
    "intersection-conflict": "crossing",
    "adverse-weather-lane-change": "straight",
}

# A reply that fails to compile (inverted Range bounds), so every generation
# takes exactly one repair round before the library script arrives.
BROKEN_REPLY = "```\nego = new Car at (0.0, 0.0) with speed Range(9.0, 2.0)\n```"

# (module, name it looks up) -> span name
_CALLS = {
    (generate_module, "select_examples"): "promptgen.select_examples",
    (generate_module, "assemble_prompt"): "promptgen.assemble_prompt",
    (generate_module, "call_llm"): "promptgen.call_llm",
    (generate_module, "extract_script"): "promptgen.extract_script",
    (generate_module, "compile_script"): "dsl.compile_script",
    (generate_module, "format_script"): "dsl.format_script",
    (cli, "compile_script"): "dsl.compile_script",
    (cli, "format_script"): "dsl.format_script",
    (cli, "sample_variations"): "dsl.sample_variations",
    (cli, "builtin_map"): "sim.builtin_map",
    (cli, "run"): "sim.run",
    (cli, "check_requirements"): "sim.check_requirements",
    (cli, "prepare_static"): "render.prepare_static",
    (cli, "render_frame"): "render.render_frame",
    (cli, "edge_from_seg"): "render.edge_from_seg",
    (cli, "normalize_modality"): "render.normalize_modality",
    (cli, "combine_controls"): "render.combine_controls",
    (cli, "run_diffusion"): "condgen.run_diffusion",
}

_active: dict = {"tracer": Tracer(False), "spans_dir": None, "pid": None}
_run_variation = cli._run_variation


class _CountingDenoiser(MockDenoiser):
    def denoise(self, *args, **kwargs):
        with _active["tracer"].span("condgen.denoise"):
            return super().denoise(*args, **kwargs)


class _TracedPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        self._span = _active["tracer"].span("cli.fanout")
        self._span.__enter__()
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None


def _export_bundle(frames, *args, **kwargs):
    held = sum(a.nbytes for f in frames for a in (f.seg, f.depth, f.edge, f.combined, f.latent_final))
    with _active["tracer"].span("condgen.export_bundle", held_bytes=held):
        return export_bundle(frames, *args, **kwargs)


def traced_variation(task: dict) -> dict:
    """`cli._run_variation` in a `cli.variation` span."""
    tracer = _active["tracer"]
    first = len(tracer.spans)
    with tracer.span("cli.variation", run=f"var-{task['index']:03d}"):
        row = _run_variation(task)
    if os.getpid() != _active["pid"] and _active["spans_dir"] is not None:
        tracer.write(Path(_active["spans_dir"]) / f"var-{task['index']:03d}-{os.getpid()}.jsonl", tracer.spans[first:])
        del tracer.spans[first:]
    return row


@contextmanager
def instrumented(tracer: Tracer, spans_dir: Path | None = None):
    """Trace every call named above while the context lasts.  Pool workers
    write their spans under `spans_dir`."""
    if not tracer.enabled:
        yield
        return
    saved = {(module, name): getattr(module, name) for module, name in _CALLS}
    saved[(cli, "_run_variation")] = cli._run_variation
    saved[(cli, "MockDenoiser")] = cli.MockDenoiser
    saved[(cli, "export_bundle")] = cli.export_bundle
    saved[(cli, "concurrent")] = cli.concurrent
    _active.update(tracer=tracer, spans_dir=spans_dir, pid=os.getpid())
    try:
        for (module, name), span_name in _CALLS.items():
            setattr(module, name, tracer.wrap(span_name, saved[(module, name)]))
        cli._run_variation = traced_variation
        cli.MockDenoiser = _CountingDenoiser
        cli.export_bundle = _export_bundle
        cli.concurrent = types.SimpleNamespace(futures=types.SimpleNamespace(ProcessPoolExecutor=_TracedPool))
        yield
    finally:
        for (module, name), fn in saved.items():
            setattr(module, name, fn)
        _active.update(tracer=Tracer(False), spans_dir=None, pid=None)


def stub_replies(scripts: list[str], generations: int) -> list[str]:
    """Scripted replies for `generations` generations cycling over `scripts`:
    a broken reply, then the script, for each one."""
    replies = []
    for i in range(generations):
        replies += [BROKEN_REPLY, "```\n" + scripts[i % len(scripts)] + "```"]
    return replies


def generate(tracer: Tracer, type_name: str, seed: int, library, endpoint):
    request = GenerationRequest(scenario_type=ScenarioType.from_name(type_name), seed=seed)
    with tracer.span("promptgen.generate_scenario", run=f"gen/{type_name}/{seed}"):
        return generate_scenario(request, library, endpoint)


def compile_and_sample(tracer: Tracer, script: str, n: int, base_seed: int):
    with tracer.span("dsl.compile_script"):
        ast, diags = compile_script(script)
    if ast is None:
        raise ValueError(f"script does not compile: {[d.message for d in diags]}")
    with tracer.span("dsl.sample_variations"):
        return sample_variations(ast, n, base_seed=base_seed)


def simulate(tracer: Tracer, scenario, world, dt: float = 0.05, max_duration: float = 30.0):
    config = SimConfig(dt=dt, max_duration=max_duration, collision_stop=True)
    with tracer.span("sim.run"):
        trace = run(scenario, world, config)
    with tracer.span("sim.check_requirements"):
        results = check_requirements(trace, scenario)
    return trace, all(r.passed for r in results)


def variation_counts(spans: list[dict]) -> dict[str, dict]:
    """Per variation run id: frames rendered, backend calls, bytes held
    before export."""
    out: dict[str, dict] = {}
    for s in spans:
        if s["run"] is None or not s["run"].startswith("var-"):
            continue
        row = out.setdefault(s["run"], {"frames": 0, "backend_calls": 0, "held_bytes": 0})
        if s["name"] == "render.render_frame":
            row["frames"] += 1
        elif s["name"] == "condgen.denoise":
            row["backend_calls"] += 1
        elif s["name"] == "condgen.export_bundle":
            row["held_bytes"] = s["held_bytes"]
    return out


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    `counts` holds what the spans cannot: variations and frames simulated,
    scripts generated, bundle bytes, bundles and frames verified, pool jobs
    and trace overhead.
    """

    def per(seconds: float, base: float) -> float:
        return 1000.0 * seconds / base if base else 0.0

    variations = variation_counts(spans)
    frames = sum(v["frames"] for v in variations.values())
    scripts = counts["scripts"]
    llm_calls = len(durations(spans, "promptgen.call_llm"))
    selfs = self_times(spans)
    busy = sum(selfs.values())
    fanout_wall = total(spans, "cli.fanout") or total(spans, "cli.variation")
    metrics = {
        "dsl.compile_ms": per(
            sum(s["end"] - s["start"] for s in spans
                if s["name"] == "dsl.compile_script" and (s["run"] or "").startswith("gen/")),
            scripts,
        ),
        "promptgen.assemble_ms": per(
            total(spans, "promptgen.select_examples") + total(spans, "promptgen.assemble_prompt"),
            scripts,
        ),
        "promptgen.llm_call_ms": per(total(spans, "promptgen.call_llm"), llm_calls),
        "promptgen.calls_per_script": llm_calls / scripts,
        "dsl.sample_ms_per_variation": per(
            total(spans, "dsl.sample_variations"), counts["sim_variations"]
        ),
        "sim.run_ms_per_frame": per(total(spans, "sim.run"), counts["sim_frames"]),
        "sim.requirements_ms_per_variation": per(
            total(spans, "sim.check_requirements"), counts["sim_variations"]
        ),
        "render.static_ms_per_variation": per(total(spans, "render.prepare_static"), len(variations)),
        "render.raster_ms_per_frame": per(total(spans, "render.render_frame"), frames),
        "render.edge_ms_per_frame": per(total(spans, "render.edge_from_seg"), frames),
        "render.combine_ms_per_frame": per(
            total(spans, "render.normalize_modality") + total(spans, "render.combine_controls"), frames
        ),
        "condgen.denoise_ms_per_frame": per(total(spans, "condgen.run_diffusion"), frames),
        "condgen.backend_calls_per_frame": sum(v["backend_calls"] for v in variations.values()) / frames,
        "condgen.export_ms_per_frame": per(total(spans, "condgen.export_bundle"), frames),
        "condgen.export_mb_per_variation": counts["bundle_bytes"] / 1e6 / len(variations),
        "condgen.verify_ms_per_frame": per(total(spans, "condgen.verify_bundle"), counts["verified_frames"]),
        "condgen.frames_held_mb": max(v["held_bytes"] for v in variations.values()) / 1e6,
        "cli.fanout_efficiency": total(spans, "cli.variation") / (counts["jobs"] * fanout_wall),
        "trace.overhead_pct": counts["overhead_pct"],
    }
    for layer, seconds in selfs.items():
        metrics[f"{layer}.self_share"] = seconds / busy
    return metrics


PER_LAYER_UNITS = {
    "dsl.compile_ms": "ms",
    "promptgen.assemble_ms": "ms",
    "promptgen.llm_call_ms": "ms",
    "promptgen.calls_per_script": "count",
    "dsl.sample_ms_per_variation": "ms",
    "sim.run_ms_per_frame": "ms",
    "sim.requirements_ms_per_variation": "ms",
    "render.static_ms_per_variation": "ms",
    "render.raster_ms_per_frame": "ms",
    "render.edge_ms_per_frame": "ms",
    "render.combine_ms_per_frame": "ms",
    "condgen.denoise_ms_per_frame": "ms",
    "condgen.backend_calls_per_frame": "count",
    "condgen.export_ms_per_frame": "ms",
    "condgen.export_mb_per_variation": "MB",
    "condgen.verify_ms_per_frame": "ms",
    "condgen.frames_held_mb": "MB",
    "cli.fanout_efficiency": "ratio",
    "trace.overhead_pct": "%",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
}
