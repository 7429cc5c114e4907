"""Correctness, semantic and determinism checks on what a run wrote.

Each check returns a list of problems; an empty list means it passed.  The
semantic checks read frames back from disk and compare them with oracles
written here, so a change cannot pass by skipping work: `combined` must be
the weighted sum of the normalized seg/depth/edge rasters (acceptance check
04's oracle, 1e-6) and `latent_final` must sit on strength * combined plus
the prompt offset (check 05's tolerance, 0.01).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from scenekit.condgen.diffusion import prompt_offset
from scenekit.render.formats import read_pfm, read_pgm

COMBINE_TOL = 1e-6
LATENT_TOL = 0.01
SEG_TOP_CLASS = 5.0  # seg normalizes class id over the top palette entry


def check_generation(transcript, expected: str) -> list[str]:
    """One repair round, then the library script in canonical form."""
    if transcript.outcome == "success" and len(transcript.rounds) == 2 and transcript.script == expected:
        return []
    return [f"{transcript.scenario_type}: generation gave {transcript.outcome} in {len(transcript.rounds)} rounds"]


def check_summary(out: Path, n: int) -> tuple[list[dict], list[str]]:
    """Rows of summary.json and problems: wrong count or any row with an error."""
    try:
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["variations"]
    except (OSError, ValueError, KeyError) as e:
        return [], [f"{out}: unreadable summary.json: {e}"]
    problems = []
    if len(rows) != n:
        problems.append(f"{out}: summary lists {len(rows)} variations, expected {n}")
    problems += [f"{out}: variation {r.get('index')}: error {r['error']!r}" for r in rows if r.get("error") is not None]
    problems += [f"{out}: variation {r.get('index')}: no bundle" for r in rows if r.get("error") is None and not r.get("bundle")]
    return rows, problems


def check_bundle(bundle: Path, samples: int = 3) -> list[str]:
    """One frame directory per trace frame, and the semantic oracles on
    `samples` frames spread over the bundle."""
    try:
        files = json.loads((bundle / "manifest.json").read_text())["files"]
        trace_frames = len(json.loads((bundle / "trace.json").read_text())["frames"])
        config = json.loads((bundle / "config.json").read_text())
        prompt = (bundle / "prompt.txt").read_text()
    except (OSError, ValueError, KeyError) as e:
        return [f"{bundle}: unreadable bundle: {e}"]
    listed = sorted({rel.split("/")[1] for rel in files if rel.startswith("frames/")})
    if listed != [f"{i:06d}" for i in range(trace_frames)]:
        return [f"{bundle}: manifest lists {len(listed)} frame directories for {trace_frames} trace frames"]

    weights = config["weights"]
    far = float(config["camera"]["far_plane"])
    strength = float(config["strength"])
    offset = prompt_offset(prompt)
    problems = []
    picks = sorted({round(k * (trace_frames - 1) / max(samples - 1, 1)) for k in range(samples)})
    for index in picks:
        frame = bundle / "frames" / f"{index:06d}"
        seg = read_pgm(frame / "seg.pgm").astype(np.float64)
        depth = read_pfm(frame / "depth.pfm").astype(np.float64)
        edge = read_pgm(frame / "edge.pgm").astype(np.float64)
        combined = read_pfm(frame / "combined.pfm").astype(np.float64)
        latent = read_pfm(frame / "latent_final.pfm").astype(np.float64)
        oracle = (
            weights.get("seg", 0.0) * seg / SEG_TOP_CLASS
            + weights.get("depth", 0.0) * (1.0 - np.minimum(depth / far, 1.0))
            + weights.get("edge", 0.0) * edge
        )
        gap = float(np.max(np.abs(combined - oracle)))
        if gap > COMBINE_TOL:
            problems.append(f"{frame}: combined is {gap:.3g} from the weighted sum")
        gap = float(np.max(np.abs(latent - (strength * combined + offset))))
        if gap > LATENT_TOL:
            problems.append(f"{frame}: latent_final is {gap:.3g} from strength*combined+offset")
    return problems


def output_bytes(out: Path) -> dict[str, bytes]:
    """summary.json and every bundle manifest, for byte comparison."""
    paths = [out / "summary.json", *sorted(out.glob("var-*/manifest.json"))]
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in paths if p.is_file()}


def manifests(outputs: dict[str, bytes]) -> dict[str, bytes]:
    return {k: v for k, v in outputs.items() if k.endswith("manifest.json")}


def compare(label: str, reference: dict, other: dict) -> list[str]:
    if not reference:
        return [f"{label}: nothing to compare"]
    if reference.keys() != other.keys():
        return [f"{label}: files differ: {sorted(reference.keys() ^ other.keys())}"]
    return [f"{label}: {rel} differs" for rel in sorted(reference) if reference[rel] != other[rel]]
