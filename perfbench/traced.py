"""`scenekit pipeline` with a span around each call into the layers.

    python3 perfbench/traced.py SPANS_DIR PIPELINE_ARGS...

Runs `scenekit.cli.main(["pipeline", *PIPELINE_ARGS])` in this process under
`layers.instrumented`, so the CLI's own code, pool included, does the work.
This process writes its spans to SPANS_DIR/main.jsonl, each pool worker
writes those of the variations it ran next to it, and the exit code is the
CLI's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers
from scenekit import cli
from spans import Tracer


def main(argv: list[str]) -> int:
    spans_dir = Path(argv[0])
    tracer = Tracer()
    with layers.instrumented(tracer, spans_dir):
        with tracer.span("cli.pipeline"):
            code = cli.main(["pipeline", *argv[1:]])
    tracer.write(spans_dir / "main.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
