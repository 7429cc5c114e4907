"""Oriented-box collision geometry.

Boxes are rectangles in the ground plane: centre, heading (radians), length
along the heading axis, width across it.  Overlap uses the separating-axis
test over the four face normals; contact is strict, so touching boxes with
zero penetration do not count as colliding.

`obbs_overlap` gives exactly the verdict of `signed_separation(a, b) > 0`,
in three stages that each pass on only what they cannot decide:

1. A broad phase: each box lies inside the circle of radius
   hypot(length, width) / 2 about its centre, and a pair whose circles are
   more than GUARD apart cannot overlap (most pairs in a scene are tens of
   metres apart).
2. A scalar narrow phase: the same separating-axis value in plain floats,
   trusted when it is further than GUARD * (1 + M) from 0, M being the sum
   of the pair's coordinates and sides in absolute value.  The band grows
   with M because rounding does: a float's spacing is 16 m at 1e17.
3. `signed_separation` itself, for the pairs inside that band (contact at
   or near tangency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FACES = ("front", "rear", "left", "right")
GUARD = 1e-3  # metres of clearance the broad phase demands; a rounding guard


@dataclass(frozen=True, slots=True)
class Box:
    x: float
    y: float
    heading: float
    length: float
    width: float


def box_corners(box: Box) -> np.ndarray:
    """Corners as a counter-clockwise (4, 2) array.

    Order: front-left, rear-left, rear-right, front-right.  CCW matters for
    the polygon clipper's inside test.
    """
    c, s = math.cos(box.heading), math.sin(box.heading)
    fwd = np.array([c, s])
    left = np.array([-s, c])
    centre = np.array([box.x, box.y])
    hl, hw = box.length / 2.0, box.width / 2.0
    return np.array(
        [
            centre + hl * fwd + hw * left,
            centre - hl * fwd + hw * left,
            centre - hl * fwd - hw * left,
            centre + hl * fwd - hw * left,
        ]
    )


def _axes(box: Box) -> np.ndarray:
    c, s = math.cos(box.heading), math.sin(box.heading)
    return np.array([[c, s], [-s, c]])


def signed_separation(a: Box, b: Box) -> float:
    """Minimum projected overlap across all four separating axes.

    Positive means the boxes interpenetrate by that depth; negative means
    there is a separating axis with that much clearance.
    """
    ca, cb = box_corners(a), box_corners(b)
    result = math.inf
    for axis in np.vstack([_axes(a), _axes(b)]):
        pa = ca @ axis
        pb = cb @ axis
        overlap = min(pa.max(), pb.max()) - max(pa.min(), pb.min())
        result = min(result, overlap)
    return float(result)


def _scalar_separation(a: Box, b: Box) -> float:
    """`signed_separation` in plain floats, equal to it up to rounding.

    On each face axis the overlap of the projections is
    min(ra + rb - |d|, 2 ra, 2 rb): ra and rb are the half-extents, d the
    centre offset along the axis.  Over the four axes the 2 ra and 2 rb
    terms come to the shortest side.  The sides are taken as absolute
    values, as the corners of `box_corners` are.
    """
    ca, sa = math.cos(a.heading), math.sin(a.heading)
    cb, sb = math.cos(b.heading), math.sin(b.heading)
    cos_ab, sin_ab = abs(ca * cb + sa * sb), abs(sa * cb - ca * sb)
    la, wa, lb, wb = abs(a.length), abs(a.width), abs(b.length), abs(b.width)
    dx, dy = b.x - a.x, b.y - a.y
    return min(
        (la + lb * cos_ab + wb * sin_ab) / 2.0 - abs(dx * ca + dy * sa),
        (wa + lb * sin_ab + wb * cos_ab) / 2.0 - abs(dy * ca - dx * sa),
        (lb + la * cos_ab + wa * sin_ab) / 2.0 - abs(dx * cb + dy * sb),
        (wb + la * sin_ab + wa * cos_ab) / 2.0 - abs(dy * cb - dx * sb),
        la,
        wa,
        lb,
        wb,
    )


def obbs_overlap(a: Box, b: Box) -> bool:
    """Whether the boxes interpenetrate: `signed_separation(a, b) > 0`.

    Pairs whose bounding circles are more than GUARD apart return False
    without an axis test.  That is exact: the boxes are then more than
    GUARD apart too, and since every exterior angle of the rectangles'
    Minkowski difference is at most 90 degrees, one of the four face axes
    separates them by at least GUARD / sqrt(2).  `signed_separation` would
    return <= -7e-4, far beyond its rounding error.

    Other pairs take the sign of `_scalar_separation` when it is further
    than GUARD * (1 + M) from 0, M being the sum of both boxes' |x|, |y|,
    length and width.  Both values are short sums of terms no larger than
    M, so they differ by a few units in the last place of M, some
    1e-15 * M: eleven orders of magnitude inside the band.  A sum, unlike
    max(), keeps a NaN, so a NaN or infinite input falls through to the
    exact test, as does a NaN margin.
    """
    reach = (math.hypot(a.length, a.width) + math.hypot(b.length, b.width)) / 2.0 + GUARD
    dx, dy = a.x - b.x, a.y - b.y
    if dx * dx + dy * dy > reach * reach:
        return False
    scale = abs(a.x) + abs(a.y) + abs(a.length) + abs(a.width)
    scale += abs(b.x) + abs(b.y) + abs(b.length) + abs(b.width)
    band = GUARD * (1.0 + scale)
    margin = _scalar_separation(a, b)
    if margin > band:
        return True
    if margin < -band:
        return False
    return signed_separation(a, b) > 0.0


def points_in_box(points: np.ndarray, box: Box) -> np.ndarray:
    """Vectorized membership test for an (N, 2) array of points (inclusive)."""
    rel = points - np.array([box.x, box.y])
    local = rel @ _axes(box).T
    return (np.abs(local[:, 0]) <= box.length / 2.0) & (np.abs(local[:, 1]) <= box.width / 2.0)


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of one convex polygon by another (CCW input)."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = b - a
        inputs = output
        output = []
        for j in range(len(inputs)):
            p = inputs[j]
            q = inputs[(j + 1) % len(inputs)]
            p_in = _cross(edge, p - a) >= 0
            q_in = _cross(edge, q - a) >= 0
            if p_in:
                output.append(p)
                if not q_in:
                    output.append(_intersect(p, q, a, b))
            elif q_in:
                output.append(_intersect(p, q, a, b))
    return np.array(output) if output else np.empty((0, 2))


def _cross(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _intersect(p, q, a, b) -> np.ndarray:
    d1 = q - p
    d2 = b - a
    denom = _cross(d1, d2)
    if denom == 0:
        return q
    t = _cross(a - p, d2) / denom
    return p + t * d1


def polygon_centroid(pts: np.ndarray) -> tuple[float, float]:
    """Area centroid; degenerates to the vertex mean for tiny/thin polygons."""
    if len(pts) == 0:
        raise ValueError("empty polygon")
    if len(pts) < 3:
        mean = pts.mean(axis=0)
        return float(mean[0]), float(mean[1])
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = cross.sum() / 2.0
    if abs(area) < 1e-12:
        mean = pts.mean(axis=0)
        return float(mean[0]), float(mean[1])
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return float(cx), float(cy)


def contact_faces(a: Box, b: Box) -> tuple[str, str]:
    """Face of each box pointing most directly at the other's centre.

    Ties resolve in FACES order (front, rear, left, right), which keeps the
    attribution deterministic for symmetric poses.
    """
    return _facing(a, b), _facing(b, a)


def _facing(box: Box, other: Box) -> str:
    d = np.array([other.x - box.x, other.y - box.y])
    norm = np.linalg.norm(d)
    if norm == 0:
        return "front"
    d = d / norm
    c, s = math.cos(box.heading), math.sin(box.heading)
    normals = {
        "front": np.array([c, s]),
        "rear": np.array([-c, -s]),
        "left": np.array([-s, c]),
        "right": np.array([s, -c]),
    }
    best = "front"
    best_dot = -math.inf
    for face in FACES:
        dot = float(normals[face] @ d)
        if dot > best_dot + 1e-12:
            best = face
            best_dot = dot
    return best


def rel_heading_deg(heading_a: float, heading_b: float) -> float:
    """Absolute heading difference folded into [0, 180] degrees."""
    diff = abs(heading_a - heading_b) % (2.0 * math.pi)
    if diff > math.pi:
        diff = 2.0 * math.pi - diff
    return math.degrees(diff)


def impact_point(a: Box, b: Box) -> tuple[float, float]:
    """Centroid of the overlap polygon; midpoint of centres when degenerate."""
    poly = clip_convex(box_corners(a), box_corners(b))
    if len(poly) >= 3:
        return polygon_centroid(poly)
    return ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
