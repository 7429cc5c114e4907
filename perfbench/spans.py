"""In-memory spans recorded around calls into scenekit's public functions.

A span is (name, start, end, parent, run): `name` is "<layer>.<function>",
times come from `time.perf_counter` (system-wide monotonic on Linux, so spans
from pool workers line up with the parent's), `parent` is the id of the
enclosing span and `run` is shared by every span of one variation.  A span
may carry more fields, such as the bytes an export held.  A disabled tracer
records nothing, so the same code path serves the untraced
and the traced run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("dsl", "promptgen", "sim", "render", "condgen", "cli")


class Tracer:
    def __init__(self, enabled: bool = True, parent: str | None = None, run: str | None = None):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[tuple[str | None, str | None]] = [(parent, run)]
        self._next = 0

    @contextmanager
    def span(self, name: str, run: str | None = None, **attrs):
        """Record one call; `attrs` are stored with the span."""
        if not self.enabled:
            yield None
            return
        self._next += 1
        span_id = f"{os.getpid()}:{self._next}"
        parent, inherited = self._stack[-1]
        record = {"id": span_id, "name": name, "parent": parent, "run": run or inherited, **attrs}
        self._stack.append((span_id, record["run"]))
        record["start"] = time.perf_counter()
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn):
        """`fn` with a span around every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: Path, spans: list[dict] | None = None) -> None:
        """Write `spans` (default: all of them) as JSON lines, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for record in sorted(self.spans if spans is None else spans, key=lambda s: s["start"]):
                f.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(directory: Path) -> list[dict]:
    """Every span written under `directory`."""
    return [json.loads(line) for path in sorted(directory.glob("*.jsonl")) for line in path.read_text().splitlines()]


def durations(spans: list[dict], name: str) -> list[float]:
    """Durations in seconds of every span called `name`, in start order."""
    return [s["end"] - s["start"] for s in sorted(spans, key=lambda s: s["start"]) if s["name"] == name]


def total(spans: list[dict], name: str) -> float:
    return sum(durations(spans, name))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer.

    A span's self time is its duration minus the part of its interval that
    its children cover; children running in parallel pool workers overlap,
    so their union is subtracted, not their sum.
    """
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        layer = s["name"].split(".", 1)[0]
        if layer in out:
            out[layer] += max(0.0, (s["end"] - s["start"]) - covered)
    return out
