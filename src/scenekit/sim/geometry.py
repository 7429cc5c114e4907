"""Oriented-box collision geometry.

Boxes are rectangles in the ground plane: centre, heading (radians), length
along the heading axis, width across it.  Overlap uses the separating-axis
test over the four face normals; contact is strict, so touching boxes with
zero penetration do not count as colliding.

`obbs_overlap` gives exactly the verdict of `signed_separation(a, b) > 0`,
in three stages that each pass on only what they cannot decide:

1. A broad phase (`circles_apart`): each box lies inside the circle of
   radius hypot(length, width) / 2 about its centre, and a pair whose
   circles are more than GUARD apart cannot overlap (most pairs in a scene
   are tens of metres apart).  The engine runs it on agent states before
   it builds any box.
2. A scalar narrow phase: the same separating-axis value in plain floats,
   trusted when it is further than GUARD * (1 + M) from 0, M being the sum
   of the pair's coordinates and sides in absolute value.  The band grows
   with M because rounding does: a float's spacing is 16 m at 1e17.
3. `signed_separation` itself, for the pairs inside that band (contact at
   or near tangency).

A collision's impact point (`impact_point`) and faces (`contact_faces`) are
computed in plain floats with the IEEE operations, in the order, of the
numpy code they replaced (kept in the tests as the oracle), so traces keep
every byte: numpy's summation order (`_np_sum`) and the fused multiply-add
of its two-element dot products (`_fma`) included.
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


def _corner_points(box: Box) -> list[tuple[float, float]]:
    """Corners counter-clockwise: front-left, rear-left, rear-right,
    front-right.  CCW matters for the polygon clipper's inside test."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    hl, hw = box.length / 2.0, box.width / 2.0
    fx, fy = hl * c, hl * s  # half a length along the heading
    lx, ly = hw * -s, hw * c  # half a width to the left
    front_x, front_y = box.x + fx, box.y + fy
    rear_x, rear_y = box.x - fx, box.y - fy
    return [
        (front_x + lx, front_y + ly),
        (rear_x + lx, rear_y + ly),
        (rear_x - lx, rear_y - ly),
        (front_x - lx, front_y - ly),
    ]


def box_corners(box: Box) -> np.ndarray:
    """The corners as a counter-clockwise (4, 2) array (see `_corner_points`)."""
    return np.array(_corner_points(box))


def _axes(box: Box) -> np.ndarray:
    c, s = math.cos(box.heading), math.sin(box.heading)
    return np.array([[c, s], [-s, c]])


def signed_separation(a: Box, b: Box) -> float:
    """Minimum projected overlap across all four separating axes.

    Positive means the boxes interpenetrate by that depth; negative means
    there is a separating axis with that much clearance.  Boxes past the
    float range (a pose or side at or near inf) give inf or NaN silently.
    """
    ca, cb = box_corners(a), box_corners(b)
    result = math.inf
    with np.errstate(all="ignore"):
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


def circles_apart(ax: float, ay: float, diag_a: float, bx: float, by: float, diag_b: float) -> bool:
    """The broad phase: whether two boxes' bounding circles are more than
    GUARD apart, given their centres and diagonals hypot(length, width).

    A NaN distance is not apart, so such a pair goes on to the axis test.
    """
    reach = (diag_a + diag_b) / 2.0 + GUARD
    dx, dy = ax - bx, ay - by
    return dx * dx + dy * dy > reach * reach


def obbs_overlap(a: Box, b: Box) -> bool:
    """Whether the boxes interpenetrate: `signed_separation(a, b) > 0`.

    Pairs whose bounding circles are more than GUARD apart (`circles_apart`)
    return False without an axis test.  That is exact: the boxes are then more than
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
    if circles_apart(a.x, a.y, math.hypot(a.length, a.width), b.x, b.y, math.hypot(b.length, b.width)):
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


def rel_heading_deg(heading_a: float, heading_b: float) -> float:
    """Absolute heading difference folded into [0, 180] degrees."""
    diff = abs(heading_a - heading_b) % (2.0 * math.pi)
    if diff > math.pi:
        diff = 2.0 * math.pi - diff
    return math.degrees(diff)




# --- collision attributes, in plain floats ------------------------------


def impact_point(a: Box, b: Box) -> tuple[float, float]:
    """Centroid of the overlap polygon; midpoint of centres when degenerate."""
    poly = _clip(_corner_points(a), _corner_points(b))
    if len(poly) >= 3:
        return _centroid(poly)
    return ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def _clip(subject: list, clip: list) -> list:
    """Sutherland-Hodgman clip of one convex polygon by another (CCW input).

    Each of the 4 clip edges at most doubles the vertex count, so a clipped
    box has at most 64 vertices (8 without rounding).
    """
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            break
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inside = [ex * (py - ay) - ey * (px - ax) >= 0 for px, py in output]
        inputs, output = output, []
        m = len(inputs)
        for j in range(m):
            k = (j + 1) % m
            if inside[j]:
                output.append(inputs[j])
                if not inside[k]:
                    output.append(_intersect(inputs[j], inputs[k], ax, ay, ex, ey))
            elif inside[k]:
                output.append(_intersect(inputs[j], inputs[k], ax, ay, ex, ey))
    return output


def _intersect(p, q, ax: float, ay: float, ex: float, ey: float) -> tuple[float, float]:
    """Where the line p-q crosses the clip line through (ax, ay) along
    (ex, ey); q when they are parallel."""
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    denom = dx * ey - dy * ex
    if denom == 0:
        return q
    t = ((ax - px) * ey - (ay - py) * ex) / denom
    return (px + t * dx, py + t * dy)


def _centroid(pts: list) -> tuple[float, float]:
    """Area centroid of 3 or more vertices; the vertex mean for tiny/thin
    polygons (area below 1e-12)."""
    after = pts[1:] + pts[:1]
    cross = [x * yn - xn * y for (x, y), (xn, yn) in zip(pts, after)]
    area = _np_sum(cross) / 2.0
    if abs(area) < 1e-12:
        sx = sy = 0.0  # numpy's mean(axis=0) adds row by row from 0.0
        for x, y in pts:
            sx += x
            sy += y
        return sx / len(pts), sy / len(pts)
    cx = _np_sum([(x + xn) * c for (x, _), (xn, _), c in zip(pts, after, cross)])
    cy = _np_sum([(y + yn) * c for (_, y), (_, yn), c in zip(pts, after, cross)])
    return cx / (6.0 * area), cy / (6.0 * area)


def _np_sum(values: list[float]) -> float:
    """The sum numpy's `add.reduce` gives for a float64 vector of at most
    128 values (its pairwise sum, measured on numpy 2.4.6).

    Fewer than 8 values add left to right from 0.0.  From 8 on, eight
    running sums take every eighth value, meet as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the values past the last whole
    block of 8 follow one by one; 0.0 is added last.  Not `sum()`: from
    Python 3.12 it compensates.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r = values[:8]
    whole = n - n % 8
    for i in range(8, whole, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[whole:]:
        total += v
    return 0.0 + total


def contact_faces(a: Box, b: Box) -> tuple[str, str]:
    """Face of each box pointing most directly at the other's centre.

    Ties resolve in FACES order (front, rear, left, right), which keeps the
    attribution deterministic for symmetric poses.
    """
    return _facing(a, b), _facing(b, a)


def _facing(box: Box, other: Box) -> str:
    dx, dy = other.x - box.x, other.y - box.y
    norm = math.sqrt(_fma(dy, dy, dx * dx))
    if norm == 0:
        return "front"
    ux, uy = dx / norm, dy / norm
    c, s = math.cos(box.heading), math.sin(box.heading)
    front = _fma(s, uy, c * ux)  # (c, s) . (ux, uy)
    left = _fma(c, uy, -s * ux)  # (-s, c) . (ux, uy)
    best = "front"
    best_dot = -math.inf
    for face, dot in zip(FACES, (front, -front, left, -left)):
        if dot > best_dot + 1e-12:
            best = face
            best_dot = dot
    return best


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once.

    numpy's dot product of two 2-vectors x, y is fma(x1, y1, x0 * y0) (its
    BLAS `ddot` fuses the multiply-add; measured on numpy 2.4.6), and so is
    the square under `np.linalg.norm`.  `math.fma` needs Python 3.13, so
    the sum is formed exactly in integers and divided once: int / int
    rounds correctly.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c  # the product is exact: inf or nan
    if not math.isfinite(c):
        return c
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    num = na * nb * dc + nc * da * db
    if num == 0:
        return a * b + c  # an exact zero, with the sign IEEE gives it
    try:
        return num / (da * db * dc)
    except OverflowError:
        return math.inf if num > 0 else -math.inf
