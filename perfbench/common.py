"""Workload definitions and process helpers shared by the benchmark's parts."""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("topdown-rear-end", "pinhole-fanout", "script-screen")
SETUP_REPS = 9
MAX_OPS = 200  # bounds the stub's scripted replies; far above what a window holds
PROCESS_TIMEOUT_S = 150.0  # leaves a run inside its 180 s limit
MAX_JOBS = 4  # keeps the pinhole fan-out's disk and memory use bounded on big hosts

WEATHER = ("sunny day", "light rain", "dense fog", "overcast", "snow flurries", "heavy rain")
LIGHT = ("at noon", "at dusk", "at dawn", "at night under street lights", "in low sun")

# A pinhole view from the south-west corner of the crossing, looking across
# the junction where the pedestrian steps out.
PINHOLE_CAMERA = {
    "variant": "pinhole",
    "position": [-32.0, -14.0, 9.0],
    "yaw_deg": 30.0,
    "pitch_deg": 18.0,
    "focal_px": 256.0,
    "width": 512,
    "height": 512,
    "far_plane": 100.0,
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_spec(name: str) -> dict:
    if name == "topdown-rear-end":
        return {"type": "rear-end-collision", "camera": None, "steps": 50, "jobs": 1, "n": 1}
    if name == "pinhole-fanout":
        jobs = min(nproc(), MAX_JOBS)
        return {"type": "pedestrian-crossing-occluded", "camera": PINHOLE_CAMERA, "steps": 5,
                "jobs": jobs, "n": max(jobs, 2)}
    if name == "script-screen":
        return {"variations": 20}
    raise KeyError(name)


def seeded_inputs(workload: str, seed: int) -> dict:
    """Everything the workload feeds the program, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = {
        "prompt": f"{rng.choice(WEATHER)} {rng.choice(LIGHT)}",
        "pipeline_seed": rng.randrange(1_000_000),
        "gen_seed": rng.randrange(1_000_000),
    }
    if workload == "topdown-rear-end":
        # The ROADMAP baseline variation (99 frames).  Rear-end draws run
        # 71-101 frames, which with two variations a run would swing the
        # per-variation figures far more than their bounds.
        inputs["pipeline_seed"] = 0
    return inputs


def env_block() -> dict:
    import numpy
    import requests

    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "requests": requests.__version__,
    }


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work)
    return env


def run_process(argv: list[str], env: dict, log: Path) -> dict:
    """Run to completion; wall time, exit code and the rusage of the process
    tree from wait4 (peak RSS covers the pool workers it waited for)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "scenekit.cli", *args]


class StubProcess:
    """`scenekit stub-llm` replaying `replies`, in a process of its own so the
    fake endpoint does not compete with the client it serves for one
    interpreter lock (in-process, that made generation latency swing by 2x)."""

    def __init__(self, replies: list[str], path: Path, env: dict):
        path.write_text(json.dumps(replies))
        self.proc = subprocess.Popen(
            cli_argv("stub-llm", "--responses", str(path)), stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )

    def ready(self) -> str:
        """Wait until the server listens; its base URL."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"stub LLM server exited {self.proc.wait()} before it listened")
        return json.loads(line)["base_url"]

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(work: Path, env: dict, write_inputs) -> float:
    """Median over SETUP_REPS of: write the inputs, then start a stub LLM
    server and the CLI process side by side and wait until the stub listens
    and the CLI has imported and exited."""
    totals = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = work / f"inputs-{rep}"
        write_inputs(inputs)
        stub = StubProcess(["```\n```"], inputs / "replies.json", env)
        try:
            probe = run_process(cli_argv("--help"), env, work / "probe.log")
            stub.ready()
            totals.append(time.perf_counter() - start)
        finally:
            stub.stop()
        if probe["code"] != 0:
            raise RuntimeError(f"scenekit CLI does not start: {(work / 'probe.log').read_text()[-2000:]}")
    return statistics.median(totals)


def another_op(durations: list[float], started: float, seconds: float, minimum: int) -> bool:
    """Closed-loop window: start another operation while the median one would
    still end inside `seconds`, after at least `minimum` of them."""
    if len(durations) < minimum:
        return True
    if len(durations) >= MAX_OPS:
        return False
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
