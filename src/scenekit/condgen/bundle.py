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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from scenekit.render.formats import encode_pfm, encode_pgm
from scenekit.sim.engine import Trace
from scenekit.sim.traceio import trace_json_bytes


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
    trace: Trace | bytes | None = None,
) -> dict:
    """Write the bundle layout and return its manifest.

    Layout: manifest.json, prompt.txt, config.json, optionally trace.json,
    and frames/NNNNNN/{seg.pgm, depth.pfm, edge.pgm, combined.pfm,
    latent_final.pfm}.  The manifest maps the relative path of every file
    this export wrote to the sha256 hex digest of the bytes written, so
    nothing is read back, and files left in `out_dir` by an earlier, longer
    export stay unlisted and fail `verify_bundle`.  `trace` is a Trace or
    its `trace_json_bytes`; a Trace that cannot be serialized raises
    TraceError before anything is written.  The frames are written and
    hashed in one contiguous chunk per usable CPU.
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
    small = {
        "prompt.txt": prompt.encode("utf-8"),
        "config.json": (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("ascii"),
    }
    if trace is not None:
        small["trace.json"] = trace_json_bytes(trace) if isinstance(trace, Trace) else trace

    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    files = {rel: _write_hashed(out / rel, data) for rel, data in small.items()}
    files.update(_map_chunks(partial(_write_frames, out), list(enumerate(frames))))
    manifest = {"version": 1, "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _write_frames(out: Path, numbered: list[tuple[int, BundleFrame]]) -> list[tuple[str, str]]:
    """Write each (index, frame)'s rasters; (relative path, digest) pairs."""
    written = []
    for index, frame in numbered:
        frame_dir = f"frames/{index:06d}"
        (out / frame_dir).mkdir(exist_ok=True)
        for name, encode, raster in (
            ("seg.pgm", encode_pgm, frame.seg),
            ("depth.pfm", encode_pfm, frame.depth),
            ("edge.pgm", encode_pgm, frame.edge),
            ("combined.pfm", encode_pfm, frame.combined),
            ("latent_final.pfm", encode_pfm, frame.latent_final),
        ):
            rel = f"{frame_dir}/{name}"
            written.append((rel, _write_hashed(out / rel, *encode(raster))))
    return written


def _write_hashed(path: Path, header: bytes, payload: bytes | memoryview = b"") -> str:
    """Write `header` then `payload` to `path`; the sha256 hex digest of
    exactly those bytes."""
    digest = hashlib.sha256(header)
    digest.update(payload)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return digest.hexdigest()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(work, items: list) -> list:
    """`work(chunk)` on one contiguous chunk of `items` per usable CPU, in
    threads (hashlib and file I/O release the GIL), results concatenated in
    `items` order; inline when there is one chunk.  One task per file instead
    would cost more in dispatch than small files take to hash."""
    count = min(_usable_cpus(), len(items))
    if count <= 1:
        return work(items)
    bounds = [len(items) * k // count for k in range(count + 1)]
    with ThreadPoolExecutor(max_workers=count) as pool:
        parts = list(pool.map(work, [items[a:b] for a, b in zip(bounds, bounds[1:])]))
    return [result for part in parts for result in part]


def verify_bundle(bundle_dir: str | Path) -> list[str]:
    """Re-hash a bundle against its manifest; returns problem descriptions.

    An empty list means the bundle is intact.  Problems cover a missing or
    unreadable manifest, listed paths that are absolute or climb out with
    `..` (never opened), missing files (a listed path that is not a regular
    file, which is never opened), unreadable files, hash mismatches, and
    files on disk that the manifest does not list.  The listed files are
    hashed in one contiguous chunk per usable CPU.
    """
    root = Path(bundle_dir)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        listed: dict[str, str] = manifest["files"]
    except FileNotFoundError:
        return [f"no manifest.json in {root}"]
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as e:  # bad UTF-8 or JSON
        return [f"unreadable manifest in {root}: {e}"]
    if not isinstance(listed, dict):
        return [f"unreadable manifest in {root}: 'files' is not an object"]

    on_disk = _scan(root)
    problems = _map_chunks(partial(_check, root, on_disk), sorted(listed.items()))
    problems.extend(f"unlisted file: {rel}" for rel in sorted(on_disk.keys() - listed.keys()))
    return problems


def _scan(root: Path) -> dict[str, bool]:
    """Every entry under `root` that is not a directory, bar any named
    manifest.json, as its relative POSIX path -> whether it is a regular
    file (a symlink is not).  The types come with the directory listing, so
    this stats nothing but symlinks; symlinked directories are not entered
    and unreadable ones are skipped, as in `os.walk`."""
    found: dict[str, bool] = {}
    pending = [""]
    while pending:
        prefix = pending.pop()
        try:
            with os.scandir(root / prefix) as entries:
                for entry in entries:
                    if entry.is_dir():
                        if not entry.is_symlink():
                            pending.append(f"{prefix}{entry.name}/")
                    elif entry.name != "manifest.json":
                        found[prefix + entry.name] = entry.is_file(follow_symlinks=False)
        except OSError:
            continue
    return found


_READ_SIZE = 1 << 20


def _check(root: Path, on_disk: dict[str, bool], items: list[tuple[str, str]]) -> list[str]:
    """The problems with listed (relative path, expected digest) items."""
    problems = []
    view = memoryview(bytearray(_READ_SIZE))
    for rel, expected in items:
        if rel.startswith("/") or ".." in rel.split("/"):
            problems.append(f"unsafe path: {rel}")
            continue
        try:
            if on_disk.get(rel):
                path = f"{root}/{rel}"
            elif (root / rel).is_file():
                # spelled unlike the listing, or reached through a symlink
                path = root / rel
            else:
                problems.append(f"missing file: {rel}")  # opening a FIFO would block
                continue
            digest = hashlib.sha256()
            with open(path, "rb", buffering=0) as f:
                while size := f.readinto(view):
                    digest.update(view[:size])
        except OSError as e:
            problems.append(f"unreadable file: {rel} ({e.strerror or e})")
            continue
        if digest.hexdigest() != expected:
            problems.append(f"hash mismatch: {rel}")
    return problems
