"""Raster file formats: binary PGM for byte rasters, PFM for float rasters.

Both formats round-trip bit-exactly and need no codec dependencies.  PGM
(P5) stores one byte per pixel top-down; PFM stores float32 rows bottom-up
with a negative scale marking little-endian data, per the format's
convention.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class FormatError(Exception):
    pass


def _byte_view(data: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without copying them."""
    return memoryview(data.reshape(-1).view(np.uint8))


def _write(path: str | Path, header: bytes, payload: memoryview) -> None:
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def encode_pgm(raster: np.ndarray) -> tuple[bytes, memoryview]:
    """(header, payload) of a 2D uint8 array as a binary (P5) PGM with
    maxval 255; the file is the two written back to back."""
    data = np.ascontiguousarray(raster, dtype=np.uint8)
    if data.ndim != 2:
        raise FormatError(f"PGM needs a 2D raster, got shape {raster.shape}")
    h, w = data.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii"), _byte_view(data)


def write_pgm(path: str | Path, raster: np.ndarray) -> None:
    """Write a 2D uint8 array as a binary (P5) PGM with maxval 255."""
    _write(path, *encode_pgm(raster))


def _read_header_tokens(f, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    while len(tokens) < count:
        ch = f.read(1)
        if not ch:
            raise FormatError("truncated header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        token = ch
        while True:
            ch = f.read(1)
            if not ch or ch in b" \t\r\n":
                break
            token += ch
        tokens.append(token)
    return tokens


def read_pgm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P5":
            raise FormatError(f"{path}: not a binary PGM (magic {magic!r})")
        w, h, maxval = (int(t) for t in _read_header_tokens(f, 3))
        if maxval != 255:
            raise FormatError(f"{path}: unsupported maxval {maxval}")
        data = f.read(w * h)
        if len(data) != w * h:
            raise FormatError(f"{path}: expected {w * h} pixel bytes, got {len(data)}")
        return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def encode_pfm(raster: np.ndarray) -> tuple[bytes, memoryview]:
    """(header, payload) of a 2D float array as a grayscale little-endian
    PFM; the file is the two written back to back."""
    data = np.asarray(raster, dtype=np.float32)
    if data.ndim != 2:
        raise FormatError(f"PFM needs a 2D raster, got shape {raster.shape}")
    h, w = data.shape
    # PFM rows run bottom to top.
    return f"Pf\n{w} {h}\n-1.0\n".encode("ascii"), _byte_view(np.ascontiguousarray(data[::-1]))


def write_pfm(path: str | Path, raster: np.ndarray) -> None:
    """Write a 2D float array as a grayscale little-endian PFM."""
    _write(path, *encode_pfm(raster))


def read_pfm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"Pf":
            raise FormatError(f"{path}: not a grayscale PFM (magic {magic!r})")
        w_tok, h_tok, scale_tok = _read_header_tokens(f, 3)
        w, h = int(w_tok), int(h_tok)
        scale = float(scale_tok)
        dtype = "<f4" if scale < 0 else ">f4"
        data = f.read(w * h * 4)
        if len(data) != w * h * 4:
            raise FormatError(f"{path}: expected {w * h * 4} data bytes, got {len(data)}")
        rows = np.frombuffer(data, dtype=dtype).reshape(h, w)
        return rows[::-1].astype(np.float32)
