"""The conditional denoising loop and the deterministic mock backend.

The loop contract fixes an index convention: the step index t descends from
`steps` to 1, the initial latent is noise, and the output of the t = 1 call
is the final raster.  Exactly `steps` backend calls happen, no more.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Protocol

import numpy as np

from scenekit.condgen.latent import init_latent
from scenekit.render.combine import DimensionMismatch

DEFAULT_STEPS = 50
DEFAULT_STRENGTH = 0.8


class BackendError(Exception):
    """A backend call failed; `step` holds the failing step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"denoiser backend failed at step t={step}: {message}")
        self.step = step


class DenoiserBackend(Protocol):
    def denoise(
        self, z: np.ndarray, control: np.ndarray, t: int, prompt: str, strength: float
    ) -> np.ndarray: ...


def run_diffusion(
    backend: DenoiserBackend,
    control: np.ndarray,
    prompt: str,
    steps: int = DEFAULT_STEPS,
    strength: float = DEFAULT_STRENGTH,
    seed: int = 0,
) -> np.ndarray:
    """Refine a seeded latent through the backend, one call per step."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    if not prompt:
        raise ValueError("prompt must be non-empty")
    z = init_latent(control.shape, seed)
    for t in range(steps, 0, -1):
        try:
            z = backend.denoise(z, control, t, prompt, strength)
        except Exception as e:
            raise BackendError(t, str(e)) from e
        if z.shape != control.shape:
            raise BackendError(t, f"backend returned shape {z.shape}, expected {control.shape}")
    return z


class MockDenoiser:
    """Relaxation toward strength * control with rate 1/t.

    Each call computes z' = z + (1/t) * (strength * C - z), so z = strength*C
    is an exact fixed point and a full pass from any start lands on the
    target: the residual shrinks by (1 - 1/t) per step and the product of
    those factors down to t = 1 is zero.  When `prompt_sensitivity` is on, a
    constant derived from the prompt hash (at most 0.001 in magnitude) is
    added after each step, so different prompts give different but still
    deterministic outputs.  The step runs in float32 and returns a new
    float32 raster; the caller's `z` and `control` are left untouched.
    """

    def __init__(self, prompt_sensitivity: bool = True):
        self.prompt_sensitivity = prompt_sensitivity

    def denoise(
        self, z: np.ndarray, control: np.ndarray, t: int, prompt: str, strength: float
    ) -> np.ndarray:
        if z.shape != control.shape:
            raise DimensionMismatch(f"latent {z.shape} vs control {control.shape}")
        # one fresh float32 buffer, then in place: no float64 temporaries
        out = np.multiply(control, np.float32(strength), dtype=np.float32)
        out -= z
        out *= np.float32(1.0 / t)
        out += z
        if self.prompt_sensitivity:
            out += np.float32(prompt_offset(prompt))
        return out


@functools.lru_cache(maxsize=64)
def prompt_offset(prompt: str) -> float:
    """Deterministic value in [-0.001, 0.001] from the prompt text, hashed
    once per prompt rather than on every denoising step."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    raw = int.from_bytes(digest[:8], "little")
    return (2.0 * raw / 2.0**64 - 1.0) * 0.001
