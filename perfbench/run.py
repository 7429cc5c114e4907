"""scenekit benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.
With `--trace 0` the run measures what users run (the `scenekit pipeline`
CLI in its own process, or the public generate/sample/simulate API) and
prints the end-to-end metrics.  With `--trace 1` it also runs the workload
with spans from `layers.py` around every call the program makes into the
public functions of each layer, and prints the per-layer metrics.  Every run checks its outputs;
the last stdout line is the JSON result, and the exit code is 1 when a
check failed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from common import ROOT, SRC, WORKLOADS, child_env, env_block, measure_setup, run_process, seeded_inputs, workload_spec

WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "variations_per_s": "1/s",
    "peak_rss_mb": "MB",
    "bytes_per_variation_mb": "MB",
    "verify_s_per_variation": "s",
    "gen_ms_p50": "ms",
    "gen_ms_p90": "ms",
    "requirement_pass_ratio": "ratio",
}
# Printed and recorded, but not in the result's metrics: the p90 of a 10 ms
# call swings with host scheduling by more than the largest bound allowed.
PRINTED_ONLY = ("gen_ms_p90",)


def run_screen_workload(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """script-screen runs in screen.py's own process; wait4 gives its peak RSS."""
    env = child_env(work)
    setup_s = measure_setup(work, env, lambda d: d.mkdir(parents=True, exist_ok=True))
    job = {
        "seconds": seconds,
        "traced": traced,
        "variations": workload_spec(name)["variations"],
        "inputs": seeded_inputs(name, seed),
        "work": str(work / "screen"),
        "result": str(work / "screen-result.json"),
        "spans": str(RESULTS / f"{name}-seed{seed}-trace1.spans.jsonl"),
    }
    (work / "screen-job.json").write_text(json.dumps(job))
    run = run_process(
        [sys.executable, str(Path(__file__).with_name("screen.py")), str(work / "screen-job.json")],
        env,
        work / "screen.log",
    )
    if run["code"] != 0 or not Path(job["result"]).is_file():
        log = (work / "screen.log").read_text()[-2000:]
        return {"attempted": 1, "failed": 1, "ops": 0, "metrics": {},
                "problems": [f"screen process exited {run['code']}: {log}"]}
    result = json.loads(Path(job["result"]).read_text())
    if not traced and result["metrics"]:
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["peak_rss_mb"] = run["peak_rss_mb"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scenekit" / "cli.py").is_file():
        print(f"perfbench: no scenekit source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import pipeline

    traced = bool(args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    work = WORK / f"{stem}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "script-screen":
            result = run_screen_workload(args.workload, args.seed, args.seconds, traced, work)
        else:
            run = pipeline.PipelineRun(args.workload, args.seed, traced, work)
            result = run.run(args.seconds)
            if traced:
                run.tracer.write(RESULTS / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = env_block()
    units = layers.PER_LAYER_UNITS if traced else END_TO_END_UNITS
    problems, metrics = result["problems"], result["metrics"]
    correct = not problems and set(metrics) == set(units)
    reported = [key for key in units if key in metrics and key not in PRINTED_ONLY]
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    for key in units:
        if key in metrics:
            print(f"{key:36s} {metrics[key]:14.6f} {units[key]}")
    failed_ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{'failed_ratio':36s} {failed_ratio:14.6f} ratio ({result['failed']}/{result['attempted']})")
    output = {
        "correct": correct,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in reported},
    }
    record = {**output, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": result["ops"], "op_walls": result.get("op_walls", []),
              "failed_ratio": failed_ratio, "all_metrics": metrics, "env": env, "problems": problems}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(output))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
