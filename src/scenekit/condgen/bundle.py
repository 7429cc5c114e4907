"""Conditioning-bundle export and verification.

A bundle is the on-disk package handed to an external video model: one
directory per frame holding the control rasters and final latent, plus the
prompt, the run config, the source trace, and a manifest of content hashes.
Exports are deterministic, so re-exporting identical inputs is byte
identical, manifest included.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import numpy as np

from scenekit.render.formats import write_pfm, write_pgm
from scenekit.sim.engine import Trace
from scenekit.sim.traceio import write_trace_json


class BundleError(Exception):
    pass


class InconsistentDims(BundleError):
    """A frame's rasters disagree about dimensions."""


@dataclass(frozen=True)
class BundleFrame:
    """All rasters for one frame, dimensions shared."""

    seg: np.ndarray  # uint8 class ids
    depth: np.ndarray  # float32 meters
    edge: np.ndarray  # uint8 binary
    combined: np.ndarray  # float32 combined control
    latent_final: np.ndarray  # float32 output of the denoising loop


_RASTER_NAMES = ("seg", "depth", "edge", "combined", "latent_final")


def _frame_shape(frame: BundleFrame, index: int) -> tuple[int, ...]:
    shapes = {name: getattr(frame, name).shape for name in _RASTER_NAMES}
    first = shapes["seg"]
    for name, shape in shapes.items():
        if shape != first:
            raise InconsistentDims(
                f"frame {index}: raster {name!r} has shape {shape}, expected {first}"
            )
    return first


def export_bundle(
    frames: list[BundleFrame],
    prompt: str,
    config: dict,
    out_dir: str | Path,
    trace: Trace | None = None,
) -> dict:
    """Write the bundle layout and return its manifest.

    Layout: manifest.json, prompt.txt, config.json, optionally trace.json,
    and frames/NNNNNN/{seg.pgm, depth.pfm, edge.pgm, combined.pfm,
    latent_final.pfm}.  The manifest maps the relative path of every file
    this export wrote to its sha256 hex digest, so files left in `out_dir` by
    an earlier, longer export stay unlisted and fail `verify_bundle`.
    """
    if not frames:
        raise BundleError("bundle needs at least one frame")
    if not prompt:
        raise BundleError("prompt must be non-empty")
    shape = _frame_shape(frames[0], 0)
    for index, frame in enumerate(frames[1:], start=1):
        if _frame_shape(frame, index) != shape:
            raise InconsistentDims(
                f"frame {index}: shape {_frame_shape(frame, index)} differs from frame 0 {shape}"
            )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "prompt.txt").write_text(prompt)
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    written = ["prompt.txt", "config.json"]
    if trace is not None:
        write_trace_json(trace, out / "trace.json")
        written.append("trace.json")
    for index, frame in enumerate(frames):
        frame_dir = f"frames/{index:06d}"
        (out / frame_dir).mkdir(parents=True, exist_ok=True)
        for name, write, raster in (
            ("seg.pgm", write_pgm, frame.seg),
            ("depth.pfm", write_pfm, frame.depth),
            ("edge.pgm", write_pgm, frame.edge),
            ("combined.pfm", write_pfm, frame.combined),
            ("latent_final.pfm", write_pfm, frame.latent_final),
        ):
            write(out / frame_dir / name, raster)
            written.append(f"{frame_dir}/{name}")

    manifest = {"version": 1, "files": {rel: _sha256(out / rel) for rel in written}}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_bundle(bundle_dir: str | Path) -> list[str]:
    """Re-hash a bundle against its manifest; returns problem descriptions.

    An empty list means the bundle is intact.  Problems cover a missing or
    unreadable manifest, listed paths that are absolute or climb out with
    `..` (never opened), missing files, hash mismatches, and files on disk
    that the manifest does not list.
    """
    root = Path(bundle_dir)
    problems: list[str] = []
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        listed: dict[str, str] = manifest["files"]
    except FileNotFoundError:
        return [f"no manifest.json in {root}"]
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as e:  # bad UTF-8 or JSON
        return [f"unreadable manifest in {root}: {e}"]
    if not isinstance(listed, dict):
        return [f"unreadable manifest in {root}: 'files' is not an object"]

    for rel, expected in sorted(listed.items()):
        rel_path = PurePosixPath(rel)
        if rel_path.is_absolute() or ".." in rel_path.parts:
            problems.append(f"unsafe path: {rel}")
            continue
        path = root / rel
        if not path.is_file():
            problems.append(f"missing file: {rel}")
            continue
        if _sha256(path) != expected:
            problems.append(f"hash mismatch: {rel}")
    on_disk = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if not path.is_dir() and path.name != "manifest.json"
    }
    problems.extend(f"unlisted file: {rel}" for rel in sorted(on_disk - set(listed)))
    return problems
