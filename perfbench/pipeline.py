"""The rendering workloads: `scenekit pipeline` in its own process, fed a
script generated through the stub.

A run first generates the workload's script through the stub (one repair
round).  One operation drafts GEN_DRAFTS more scripts the same way, runs
the CLI on the first script, verifies every bundle the CLI wrote, checks the
outputs and drafts GEN_DRAFTS more (the drafts are the generation-latency
samples).  Operations repeat identical inputs, so each one's summary.json
and manifests must match the first byte for byte.
The traced run follows each CLI operation with the same command through
`traced.py`, which runs the CLI's own code with spans around its calls; its
summary.json and manifests must match the CLI's.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import layers
from common import MAX_OPS, StubProcess, another_op, child_env, cli_argv, measure_setup, percentile, run_process, seeded_inputs, tree_bytes, workload_spec
from scenekit.condgen.bundle import verify_bundle
from scenekit.dsl import compile_script, format_script
from scenekit.promptgen.client import EndpointConfig
from scenekit.promptgen.library import builtin_library
from spans import Tracer, read_spans

TRACED = Path(__file__).with_name("traced.py")

# Scripts drafted before and again after each pipeline run: the
# generation-latency samples.  Batches at the start, middle and end of a run
# keep a few seconds of host slowdown from moving the median of the run.
GEN_DRAFTS = 30

COUNTS = ("sim_variations", "sim_frames", "scripts", "bundle_bytes", "verified_frames")


class PipelineRun:
    def __init__(self, name: str, seed: int, traced: bool, work: Path):
        self.spec = workload_spec(name)
        self.inputs = seeded_inputs(name, seed)
        self.work = work
        self.env = child_env(work)
        self.map = layers.TYPE_MAPS[self.spec["type"]]
        self.library = builtin_library()
        self.source = next(
            e.script_text for e in self.library.entries if e.scenario_type.value == self.spec["type"]
        )
        self.expected = format_script(compile_script(self.source)[0])
        self.tracer = Tracer(enabled=traced)
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.gen_s, self.cli_runs, self.verify_s, self.sizes, self.passed = [], [], [], [], []
        self.reference: dict | None = None
        self.counts = dict.fromkeys(COUNTS, 0)
        self.overhead_s = self.untraced_s = 0.0
        self.attempted_drafts = 0

    def write_inputs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        if self.spec["camera"] is not None:
            (directory / "camera.json").write_text(json.dumps(self.spec["camera"]))

    def pipeline_args(self, script: Path, out: Path) -> list[str]:
        spec = self.spec
        camera = [] if spec["camera"] is None else ["--camera", str(self.work / "inputs-0" / "camera.json")]
        return [
            "--script", str(script), "--map", self.map, *camera,
            "--steps", str(spec["steps"]), "--jobs", str(spec["jobs"]), "-n", str(spec["n"]),
            "--seed", str(self.inputs["pipeline_seed"]), "--prompt", self.inputs["prompt"],
            "-o", str(out),
        ]

    def run(self, seconds: float) -> dict:
        self.setup_s = measure_setup(self.work, self.env, self.write_inputs)
        replies = layers.stub_replies([self.source], 2 * GEN_DRAFTS * MAX_OPS + 1)
        stub = StubProcess(replies, self.work / "replies.json", self.env)
        try:
            self.endpoint = EndpointConfig(base_url=stub.ready(), model="stub")
            # the first generation warms the endpoint path and gives the
            # script every pipeline run uses; replies are scripted in pairs
            script = self.draft(1, timed=False)
            minimum = 1 if self.tracer.enabled else 2  # two ops give the determinism check
            started = time.perf_counter()
            durations: list[float] = []
            while script is not None and another_op(durations, started, seconds, minimum):
                op_dir = self.work / f"op-{len(durations)}"
                op_dir.mkdir()
                start = time.perf_counter()
                try:
                    ok = self.operation(len(durations), op_dir, script)
                finally:
                    shutil.rmtree(op_dir)
                durations.append(time.perf_counter() - start)
                if not ok:
                    break
        finally:
            stub.stop()
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems,
                "ops": len(durations), "op_walls": [r["wall_s"] for r in self.cli_runs], "metrics": self.metrics()}

    def draft(self, count: int, timed: bool = True) -> str | None:
        """Generate `count` scripts with the next seeds; the first, if all succeed."""
        tracer = self.tracer if timed else Tracer(False)
        drafts = []
        with layers.instrumented(tracer):
            for _ in range(count):
                start = time.perf_counter()
                seed = self.inputs["gen_seed"] + self.attempted_drafts
                drafts.append(layers.generate(tracer, self.spec["type"], seed, self.library, self.endpoint))
                if timed:
                    self.gen_s.append(time.perf_counter() - start)
                    self.counts["scripts"] += 1
                self.attempted_drafts += 1
        self.attempted += count
        for transcript in drafts:
            found = checks.check_generation(transcript, self.expected)
            self.failed += bool(found)
            self.problems += found
        return None if self.problems else drafts[0].script

    def operation(self, index: int, op_dir: Path, text: str) -> bool:
        script = op_dir / "script.scn"
        script.write_text(text)
        out = op_dir / "out"
        spec = self.spec
        self.draft(GEN_DRAFTS)
        run = run_process(cli_argv("pipeline", *self.pipeline_args(script, out)), self.env, op_dir / "cli.log")
        self.cli_runs.append(run)
        rows, found = checks.check_summary(out, spec["n"])
        if run["code"] != 0:
            found.append(f"op {index}: scenekit pipeline exited {run['code']}: {(op_dir / 'cli.log').read_text()[-2000:]}")
        self.problems += found
        self.attempted += spec["n"]
        self.failed += spec["n"] - len(rows)
        self.passed += [bool(r.get("passed")) for r in rows]
        for row in rows:
            if row.get("error") is not None or not row.get("bundle"):
                self.failed += 1
                continue
            bundle = out / row["bundle"]
            start = time.perf_counter()
            found = verify_bundle(bundle)
            self.verify_s.append(time.perf_counter() - start)
            found = [f"{bundle}: {p}" for p in found] + checks.check_bundle(bundle)
            self.failed += bool(found)
            self.problems += found
            self.sizes.append(tree_bytes(bundle))
        outputs = checks.output_bytes(out)
        if self.reference is None:
            self.reference = outputs
        else:
            self.problems += checks.compare(f"op {index} vs op 0", self.reference, outputs)
        # drop the CLI's bundles before the traced run writes its own, so
        # their writeback does not land on the traced timings
        shutil.rmtree(out)
        self.draft(GEN_DRAFTS)
        if self.tracer.enabled:
            self.traced_operation(index, script, op_dir, outputs, run["wall_s"])
        return not self.problems

    def traced_operation(self, index: int, script: Path, op_dir: Path, cli_outputs: dict, untraced_s: float) -> None:
        spec, out, spans_dir = self.spec, op_dir / "traced", op_dir / "spans"
        run = run_process(
            [sys.executable, str(TRACED), str(spans_dir), *self.pipeline_args(script, out)],
            self.env,
            op_dir / "traced.log",
        )
        self.overhead_s += run["wall_s"] - untraced_s
        self.untraced_s += untraced_s
        rows, found = checks.check_summary(out, spec["n"])
        if run["code"] != 0:
            found.append(f"op {index}: traced pipeline exited {run['code']}: {(op_dir / 'traced.log').read_text()[-2000:]}")
        spans = read_spans(spans_dir) if spans_dir.is_dir() else []
        self.tracer.spans.extend(spans)
        counted = layers.variation_counts(spans)
        self.attempted += spec["n"]
        self.failed += spec["n"] - len(rows)
        for row in rows:
            if row.get("error") is not None or not row.get("bundle"):
                self.failed += 1
                continue
            bundle = out / row["bundle"]
            with self.tracer.span("condgen.verify_bundle"):
                problems = verify_bundle(bundle)
            problems = [f"{bundle}: {p}" for p in problems] + checks.check_bundle(bundle)
            var = counted.get(row["bundle"], {"frames": 0, "backend_calls": 0})
            if var["frames"] == 0 or var["backend_calls"] != spec["steps"] * var["frames"]:
                problems.append(
                    f"{bundle}: {var['backend_calls']} backend calls for {var['frames']} frames at {spec['steps']} steps"
                )
            self.failed += bool(problems)
            found += problems
            self.counts["sim_frames"] += var["frames"]
            self.counts["verified_frames"] += var["frames"]
            self.counts["bundle_bytes"] += tree_bytes(bundle)
        self.counts["sim_variations"] += len(rows)
        found += checks.compare(f"op {index} traced vs CLI", cli_outputs, checks.output_bytes(out))
        self.problems += found

    def metrics(self) -> dict:
        if self.problems:
            return {}
        if self.tracer.enabled:
            counts = {**self.counts, "jobs": self.spec["jobs"],
                      "overhead_pct": 100.0 * self.overhead_s / self.untraced_s}
            return layers.layer_metrics(self.tracer.spans, counts)
        return {
            "setup_s": self.setup_s,
            "variations_per_s": self.spec["n"] / statistics.median(r["wall_s"] for r in self.cli_runs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in self.cli_runs),
            "bytes_per_variation_mb": statistics.median(self.sizes) / 1e6,
            "verify_s_per_variation": statistics.median(self.verify_s),
            "gen_ms_p50": 1000.0 * statistics.median(self.gen_s),
            "gen_ms_p90": 1000.0 * percentile(self.gen_s, 0.9),
            "requirement_pass_ratio": sum(self.passed) / len(self.passed),
        }
