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
from scenekit.sim.worldmap import MAX_WORLD_COORD  # bounds a top-down image edge and a pinhole position too

MAX_IMAGE_SIDE = 4096  # most pixels along one image side; rasters are side x side arrays
# Steepest a pinhole pixel's ray may lean from the optical axis (its offset
# from the principal point over focal_px, 89.99994 degrees), so every ray's
# direction and its square stay finite.
MAX_RAY_SLOPE = 1e6


class CameraError(Exception):
    """A camera config failed validation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CameraError(message)


def _check(camera, positive: str, float32: tuple[str, ...]) -> None:
    """The range rules of both variants: image sides in [1, MAX_IMAGE_SIDE],
    `positive` above 0, and each `float32` field positive and finite as a
    float32, the type the depth raster is written in (a value that rounds to
    0 or overflows to inf there turns depth pixels into NaN or inf)."""
    _require(0 < camera.width <= MAX_IMAGE_SIDE and 0 < camera.height <= MAX_IMAGE_SIDE,
             f"image sides must be in [1, {MAX_IMAGE_SIDE}]")
    _require(getattr(camera, positive) > 0, f"{positive} must be positive")
    for name in float32:
        value = getattr(camera, name)
        with np.errstate(over="ignore"):
            f32 = np.float32(value)
        _require(0 < f32 < np.inf, f"{name} must be positive and finite as a float32, got {value!r}")


@dataclass(frozen=True)
class TopDownCamera:
    """Orthographic bird's-eye view centered on a world point.

    Pixel mapping: px = (x - center_x) / meters_per_pixel + width / 2 and
    py = (center_y - y) / meters_per_pixel + height / 2, so world +y points
    up the image.  Depth for this camera is a pseudo-depth: the camera sits
    at `ortho_height` meters and each pixel reads height minus the class
    height of whatever covers it, with empty pixels at the far plane.
    """

    center_x: float = 0.0
    center_y: float = 0.0
    meters_per_pixel: float = 0.1
    width: int = 512
    height: int = 512
    ortho_height: float = 50.0
    far_plane: float = 100.0

    def __post_init__(self):
        _check(self, "meters_per_pixel", ("ortho_height", "far_plane"))
        half = max(self.width, self.height) / 2.0 * self.meters_per_pixel
        _require(max(abs(self.center_x), abs(self.center_y)) + half <= MAX_WORLD_COORD,
                 f"center and meters_per_pixel put an image edge more than {MAX_WORLD_COORD:g} m"
                 " from the origin")


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
        _check(self, "focal_px", ("far_plane",))
        _require(max(abs(self.x), abs(self.y), abs(self.z)) <= MAX_WORLD_COORD,
                 f"position must lie within {MAX_WORLD_COORD:g} m of the origin on each axis")
        cx, cy = self.principal  # the pixel centre farthest from it sets the steepest ray
        offset = max(abs(cx - 0.5), abs(self.width - 0.5 - cx), abs(cy - 0.5), abs(self.height - 0.5 - cy))
        _require(offset / self.focal_px <= MAX_RAY_SLOPE,
                 f"focal_px must be at least {offset / MAX_RAY_SLOPE:g} for this image and principal"
                 f" point (a ray slope of at most {MAX_RAY_SLOPE:g}), got {self.focal_px!r}")

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

    Only the keys the file gives are passed on, so the dataclass holds every
    default.  Every float field must be a finite JSON number (an integer
    serves), and width and height JSON integers (not booleans).  A null
    `principal` means the image centre, as an absent one does.
    """
    variant = member(data, "variant", CameraError, "camera config")
    if variant == "topdown":
        cls, scalars = TopDownCamera, ("meters_per_pixel", "ortho_height", "far_plane")
        vectors = {"center": ("center_x", "center_y")}
    elif variant == "pinhole":
        member(data, "position", CameraError, "pinhole camera config")
        cls, scalars = PinholeCamera, ("yaw_deg", "pitch_deg", "focal_px", "far_plane")
        vectors = {"position": ("x", "y", "z"), "principal": ("cx", "cy")}
    else:
        raise CameraError(f"unknown camera variant {variant!r}")
    fields = {key: typed(int, data[key], CameraError, key) for key in ("width", "height") if key in data}
    for key, names in vectors.items():
        if key in data and not (key == "principal" and data[key] is None):
            values = items(data[key], CameraError, key, len(names))
            fields.update(zip(names, (float(number(v, CameraError, key)) for v in values)))
    for key in scalars:
        if key in data:
            fields[key] = float(number(data[key], CameraError, key))
    return cls(**fields)
