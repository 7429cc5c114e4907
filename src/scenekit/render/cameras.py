"""Camera models for raster rendering.

Two variants: a top-down orthographic camera (the default; world xy mapped
straight onto the image grid) and a pinhole camera with yaw/pitch, a focal
length in pixels, and a principal point.  Angles in camera configs are
degrees, matching script text; renderers convert internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scenekit.jsonio import items, member, number, typed

MAX_IMAGE_SIDE = 4096  # most pixels along one image side; rasters are side x side arrays


class CameraError(Exception):
    """A camera config failed validation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CameraError(message)


def _require_far_plane(far_plane: float) -> None:
    # depth is normalized by np.float32(far_plane): a plane that rounds to 0 or
    # overflows to inf there turns every depth pixel into NaN
    with np.errstate(over="ignore"):
        f32 = np.float32(far_plane)
    _require(0 < f32 < np.inf, f"far_plane must be positive and finite as a float32, got {far_plane!r}")


@dataclass(frozen=True)
class TopDownCamera:
    """Orthographic bird's-eye view centered on a world point.

    Pixel mapping: px = (x - center_x) / meters_per_pixel + width / 2 and
    py = (center_y - y) / meters_per_pixel + height / 2, so world +y points
    up the image.  Depth for this camera is a pseudo-depth: the camera sits
    at `ortho_height` meters and each pixel reads height minus the class
    height of whatever covers it, with empty pixels at the far plane.
    """

    center_x: float
    center_y: float
    meters_per_pixel: float = 0.1
    width: int = 512
    height: int = 512
    ortho_height: float = 50.0
    far_plane: float = 100.0

    def __post_init__(self):
        _require(0 < self.width <= MAX_IMAGE_SIDE and 0 < self.height <= MAX_IMAGE_SIDE,
                 f"image sides must be in [1, {MAX_IMAGE_SIDE}]")
        _require(self.meters_per_pixel > 0, "meters_per_pixel must be positive")
        _require(self.ortho_height > 0, "ortho_height must be positive")
        _require_far_plane(self.far_plane)


@dataclass(frozen=True)
class PinholeCamera:
    """Perspective camera at (x, y, z) looking along yaw/pitch.

    Positive pitch tilts the view downward.  The forward axis is
    (cos(yaw) cos(pitch), sin(yaw) cos(pitch), -sin(pitch)) in world
    coordinates with z up.  `focal_px` is the focal length in pixels; the
    principal point defaults to the image center.
    """

    x: float
    y: float
    z: float
    yaw_deg: float = 0.0
    pitch_deg: float = 0.0
    focal_px: float = 256.0
    width: int = 512
    height: int = 512
    cx: float | None = None
    cy: float | None = None
    far_plane: float = 100.0

    def __post_init__(self):
        _require(0 < self.width <= MAX_IMAGE_SIDE and 0 < self.height <= MAX_IMAGE_SIDE,
                 f"image sides must be in [1, {MAX_IMAGE_SIDE}]")
        _require(self.focal_px > 0, "focal_px must be positive")
        _require_far_plane(self.far_plane)

    @property
    def principal(self) -> tuple[float, float]:
        cx = self.width / 2.0 if self.cx is None else self.cx
        cy = self.height / 2.0 if self.cy is None else self.cy
        return cx, cy


Camera = TopDownCamera | PinholeCamera


def camera_to_dict(camera: Camera) -> dict:
    if isinstance(camera, TopDownCamera):
        return {
            "variant": "topdown",
            "center": [camera.center_x, camera.center_y],
            "meters_per_pixel": camera.meters_per_pixel,
            "width": camera.width,
            "height": camera.height,
            "ortho_height": camera.ortho_height,
            "far_plane": camera.far_plane,
        }
    cx, cy = camera.principal
    return {
        "variant": "pinhole",
        "position": [camera.x, camera.y, camera.z],
        "yaw_deg": camera.yaw_deg,
        "pitch_deg": camera.pitch_deg,
        "focal_px": camera.focal_px,
        "principal": [cx, cy],
        "width": camera.width,
        "height": camera.height,
        "far_plane": camera.far_plane,
    }


def camera_from_dict(data: dict) -> Camera:
    """Build a camera from its JSON form; any bad value raises CameraError.

    Every float field must be a finite JSON number (an integer serves), and
    width and height JSON integers (not booleans) of at most MAX_IMAGE_SIDE.
    """
    variant = member(data, "variant", CameraError, "camera config")

    def numbers(key: str, value, count: int) -> list[float]:
        return [float(number(v, CameraError, key)) for v in items(value, CameraError, key, count)]

    def scalar(key: str, default: float) -> float:
        return float(number(data.get(key, default), CameraError, key))

    sides = {key: typed(int, data.get(key, 512), CameraError, key) for key in ("width", "height")}
    if variant == "topdown":
        cx, cy = numbers("center", data.get("center", [0.0, 0.0]), 2)
        return TopDownCamera(
            center_x=cx,
            center_y=cy,
            meters_per_pixel=scalar("meters_per_pixel", 0.1),
            ortho_height=scalar("ortho_height", 50.0),
            far_plane=scalar("far_plane", 100.0),
            **sides,
        )
    if variant == "pinhole":
        x, y, z = numbers("position", member(data, "position", CameraError, "pinhole camera config"), 3)
        principal = data.get("principal")
        cx, cy = (None, None) if principal is None else numbers("principal", principal, 2)
        return PinholeCamera(
            x=x,
            y=y,
            z=z,
            yaw_deg=scalar("yaw_deg", 0.0),
            pitch_deg=scalar("pitch_deg", 0.0),
            focal_px=scalar("focal_px", 256.0),
            cx=cx,
            cy=cy,
            far_plane=scalar("far_plane", 100.0),
            **sides,
        )
    raise CameraError(f"unknown camera variant {variant!r}")


def default_camera(center: tuple[float, float] = (0.0, 0.0)) -> TopDownCamera:
    """Stock view: top-down at 0.1 m/px, 512x512, centered on `center`."""
    return TopDownCamera(center_x=center[0], center_y=center[1])
