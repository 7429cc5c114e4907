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

from scenekit.jsonio import read_json
from scenekit.render.formats import encode_pfm, encode_pgm


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


# (BundleFrame field, file name, encoder) of each raster a frame writes, in order
_FILES = (
    ("seg", "seg.pgm", encode_pgm),
    ("depth", "depth.pfm", encode_pfm),
    ("edge", "edge.pgm", encode_pgm),
    ("combined", "combined.pfm", encode_pfm),
    ("latent_final", "latent_final.pfm", encode_pfm),
)


def export_bundle(
    frames: list[BundleFrame],
    prompt: str,
    config: dict,
    out_dir: str | Path,
    trace: bytes | None = None,
) -> dict:
    """Write `frames` as a bundle through `write_bundle`; returns its manifest.

    Every raster must have frame 0's shape (InconsistentDims), which is
    checked for all frames before anything is written, so a bad frame list
    leaves an existing bundle at `out_dir` as it was.  The frames are
    written and hashed one task per frame on one thread per usable CPU.
    """
    if not frames:
        raise BundleError("bundle needs at least one frame")
    shape = frames[0].seg.shape
    rasters = [[getattr(frame, field) for field, _, _ in _FILES] for frame in frames]
    for index, frame_rasters in enumerate(rasters):
        _check_shapes(index, frame_rasters, shape)

    def write_one(out: Path, index: int) -> list[tuple[str, str]]:
        return write_frame(out, index, rasters[index], shape)

    return write_bundle(
        write_one, len(frames), prompt, config, out_dir, trace, threads=usable_cpus()
    )


def write_bundle(
    write_one,
    count: int,
    prompt: str,
    config: dict,
    out_dir: str | Path,
    trace: bytes | None = None,
    *,
    threads: int,
) -> dict:
    """Write the bundle layout and return its manifest.

    Layout: manifest.json, prompt.txt, config.json, optionally trace.json,
    and frames/NNNNNN/{seg.pgm, depth.pfm, edge.pgm, combined.pfm,
    latent_final.pfm}.  `write_one(out, index)` writes frame `index` of
    `count` through `write_frame` and returns its (relative path, digest)
    pairs; `thread_map` runs it on `threads` threads, so a failing frame
    raises the error of the lowest failing index.  The manifest maps the
    relative path of every file this export wrote to the sha256 hex digest
    of the bytes written, so nothing is read back, and files left in
    `out_dir` by an earlier, longer export stay unlisted and fail
    `verify_bundle`.  An old manifest.json is deleted before anything is
    written and the new one is written last, so an export that stops part
    way leaves no manifest to vouch for a mix of old and new files.
    `trace` is a trace's `trace_json_bytes`.
    """
    if not prompt:
        raise BundleError("prompt must be non-empty")
    small = {
        "prompt.txt": prompt.encode("utf-8"),
        "config.json": (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("ascii"),
    }
    if trace is not None:
        small["trace.json"] = trace

    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    files = {rel: _write_hashed(out / rel, data) for rel, data in small.items()}
    for pairs in thread_map(partial(write_one, out), range(count), threads):
        files.update(pairs)
    manifest = {"version": 1, "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def write_frame(out: Path, index: int, rasters, shape: tuple) -> list[tuple[str, str]]:
    """Write `rasters`, given in `_FILES` order and stopping where they stop,
    to frames/NNNNNN/ under `out` (its frames/ must exist); the (relative
    path, sha256 digest) pair of each file written.  A raster whose shape is
    not `shape` raises InconsistentDims before any file is written."""
    _check_shapes(index, rasters, shape)
    frame_dir = f"frames/{index:06d}"
    (out / frame_dir).mkdir(exist_ok=True)
    return [
        (f"{frame_dir}/{name}", _write_hashed(out / frame_dir / name, *encode(raster)))
        for (_, name, encode), raster in zip(_FILES, rasters)
    ]


def _check_shapes(index: int, rasters, shape: tuple) -> None:
    """InconsistentDims naming frame `index` and the first raster whose
    shape is not `shape`."""
    for (field, _, _), raster in zip(_FILES, rasters):
        if raster.shape != shape:
            raise InconsistentDims(
                f"frame {index}: raster {field!r} has shape {raster.shape}, expected {shape}"
            )


def _write_hashed(path: Path, header: bytes, payload: bytes | memoryview = b"") -> str:
    """Write `header` then `payload` to `path`; the sha256 hex digest of
    exactly those bytes."""
    digest = hashlib.sha256(header)
    digest.update(payload)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return digest.hexdigest()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, which `taskset` sets)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(work, items: list) -> list:
    """`work(chunk)` on one contiguous chunk of `items` per usable CPU,
    results concatenated in `items` order.  One task per file instead would
    cost more in dispatch than small files take to hash."""
    count = max(1, min(usable_cpus(), len(items)))
    bounds = [len(items) * k // count for k in range(count + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    return [result for part in thread_map(work, chunks, count) for result in part]


def thread_map(work, items, threads: int) -> list:
    """`[work(item) for item in items]` on up to `threads` threads; inline on
    one, so nothing after a failing item starts.  On more, the first failing
    item in order raises, and the items not yet started are cancelled."""
    if min(threads, len(items)) <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, items))


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
        manifest = read_json(root / "manifest.json", ValueError, f"unreadable manifest in {root}: ")
    except ValueError as e:
        return [str(e)]
    listed = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(listed, dict):
        return [f"unreadable manifest in {root}: 'files' is not an object"]

    on_disk = _scan(root)
    problems = _map_chunks(partial(_check, root, on_disk), sorted(listed.items()))
    problems.extend(f"unlisted file: {rel}" for rel in sorted(on_disk.keys() - listed.keys()))
    return problems


def _scan(root: Path) -> dict[str, bool]:
    """Every entry under `root` that is not a directory, bar the root
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
                    elif prefix or entry.name != "manifest.json":
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
