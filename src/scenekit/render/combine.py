"""Normalization and weighted combination of control modalities.

The combined control is the plain weighted sum over whatever modalities are
present.  Weights are taken at face value: several shipped presets sum to
less than one and the output is intentionally not renormalized.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from scenekit.render.raster import PALETTE_SIZE

MODALITIES = ("seg", "depth", "edge")

# Named weight presets (depth, edge). preset-a is the default.
PRESETS: dict[str, dict[str, float]] = {
    "preset-a": {"depth": 0.3, "edge": 0.4},
    "preset-b": {"depth": 0.2, "edge": 0.4},
    "preset-c": {"depth": 0.1, "edge": 0.4},
    "preset-d": {"depth": 0.5, "edge": 0.5},
}

DEFAULT_FAR_PLANE = 100.0


class DimensionMismatch(Exception):
    """Control rasters or weights disagree about shape or modality names."""


def normalize_modality(raster: np.ndarray, kind: str, far_plane: float = DEFAULT_FAR_PLANE) -> np.ndarray:
    """Map a raw raster into [0, 1] float32.

    seg: class id over the top of the palette, so Background is 0.0 and the
    highest class is 1.0.  depth: 1 at the camera, 0 at the far plane.
    edge: already binary, passed through.
    """
    if kind == "seg":
        return np.divide(raster, np.float32(PALETTE_SIZE - 1), dtype=np.float32)
    if kind == "depth":
        out = np.divide(raster, np.float32(far_plane), dtype=np.float32)
        np.clip(out, 0.0, 1.0, out=out)
        return np.subtract(1.0, out, out=out)
    if kind == "edge":
        return raster.astype(np.float32)
    raise ValueError(f"unknown modality {kind!r}; expected one of {MODALITIES}")


def combine_controls(maps: dict[str, np.ndarray], weights: dict[str, float]) -> np.ndarray:
    """Per-pixel weighted sum C = sum_m w_m * C_m over present modalities.

    Accumulates in float32; no renormalization by the weight total.  Every
    weight must name a present modality and all rasters must share one shape.
    """
    if not maps:
        raise DimensionMismatch("no modalities to combine")
    shapes = {name: m.shape for name, m in maps.items()}
    first = next(iter(shapes.values()))
    for name, shape in shapes.items():
        if shape != first:
            raise DimensionMismatch(f"modality {name!r} has shape {shape}, expected {first}")
    extra = set(weights) - set(maps)
    if extra:
        raise DimensionMismatch(f"weights for absent modalities: {sorted(extra)}")
    out = np.zeros(first, dtype=np.float32)
    term = np.empty(first, dtype=np.float32)
    for name in MODALITIES:  # fixed order so float summation is reproducible
        if name in maps and name in weights:
            np.multiply(maps[name], np.float32(weights[name]), out=term, dtype=np.float32)
            out += term
    return out


def load_weights(source: str | Path) -> dict[str, float]:
    """Read a weights JSON, either a preset name or a path to a file."""
    text = str(source)
    if text in PRESETS:
        return dict(PRESETS[text])
    path = Path(source)
    try:
        data = json.loads(path.read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object of modality weights")
    weights: dict[str, float] = {}
    for key, value in data.items():
        if key not in MODALITIES:
            raise ValueError(f"{path}: unknown modality {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: weight {key}={value!r} is not a number")
        if not 0.0 <= value <= 1.0:  # also false for NaN
            raise ValueError(f"{path}: weight {key}={value} outside [0, 1]")
        weights[key] = float(value)
    return weights
