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
plain float arithmetic with one contract, which the tests check: each is
within rounding of the same quantity computed exactly (`fractions.Fraction`)
from the same float inputs.  The impact point, the centroid of the overlap
polygon, is summed about the polygon's first vertex, so its rounding scales
with the polygon's size (and, for a sliver, with how thin it is), never
with its distance from the origin.  A face is the one exact arithmetic
picks, unless two faces tie to within rounding of the 1e-12 tie margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FACES = ("front", "rear", "left", "right")
GUARD = 1e-3  # metres of clearance the broad phase demands; a rounding guard
LOCAL_BEYOND = 2.0**20  # metres from the origin (about 1e6) past which the axis test shifts


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


def signed_separation(a: Box, b: Box) -> float:
    """Minimum projected overlap across all four separating axes.

    Positive means the boxes interpenetrate by that depth; negative means
    there is a separating axis with that much clearance.  On an axis where
    a's centre lies more than LOCAL_BEYOND from the origin both boxes are
    taken about it: the shift is exact there, and it keeps the rounding
    that of the boxes' sides and offset, not of their distance from the
    origin.  Boxes past the float range (a pose or side at or near inf)
    give NaN or inf, without an error.
    """
    ox = a.x if abs(a.x) > LOCAL_BEYOND else 0.0
    oy = a.y if abs(a.y) > LOCAL_BEYOND else 0.0
    ca = _corner_points(Box(a.x - ox, a.y - oy, a.heading, a.length, a.width))
    cb = _corner_points(Box(b.x - ox, b.y - oy, b.heading, b.length, b.width))
    if not all(math.isfinite(v) for corner in ca + cb for v in corner):
        return math.nan
    result = math.inf
    for heading in (a.heading, b.heading):
        c, s = math.cos(heading), math.sin(heading)
        for ux, uy in ((c, s), (-s, c)):
            pa = [x * ux + y * uy for x, y in ca]
            pb = [x * ux + y * uy for x, y in cb]
            result = min(result, min(max(pa), max(pb)) - max(min(pa), min(pb)))
    return result


def _scalar_separation(a: Box, b: Box) -> float:
    """`signed_separation` in plain floats, equal to it up to rounding.

    On each face axis the overlap of the projections is
    min(ra + rb - |d|, 2 ra, 2 rb): ra and rb are the half-extents, d the
    centre offset along the axis.  Over the four axes the 2 ra and 2 rb
    terms come to the shortest side.  The sides are taken as absolute
    values, as the corners of `_corner_points` are.
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


def points_in_box(points, box: Box):
    """Vectorized membership test for an (N, 2) array of points (inclusive);
    returns an (N,) bool array."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    local = (points - (box.x, box.y)) @ ((c, -s), (s, c))
    return (abs(local[:, 0]) <= box.length / 2.0) & (abs(local[:, 1]) <= box.width / 2.0)


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
    """Sutherland-Hodgman clip of one convex polygon by another (CCW input)."""
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
    """Area centroid of 3 or more vertices, summed left to right about the
    first vertex; the vertex mean for tiny/thin polygons (area below 1e-12)."""
    x0, y0 = pts[0]
    rel = [(x - x0, y - y0) for x, y in pts]
    area2 = sx = sy = 0.0
    for (x, y), (xn, yn) in zip(rel, rel[1:] + rel[:1]):
        cross = x * yn - xn * y
        area2 += cross
        sx += (x + xn) * cross
        sy += (y + yn) * cross
    area = area2 / 2.0
    if abs(area) < 1e-12:
        sx = sy = 0.0
        for x, y in rel:
            sx += x
            sy += y
        return x0 + sx / len(rel), y0 + sy / len(rel)
    return x0 + sx / (6.0 * area), y0 + sy / (6.0 * area)


def contact_faces(a: Box, b: Box) -> tuple[str, str]:
    """Face of each box pointing most directly at the other's centre.

    Ties resolve in FACES order (front, rear, left, right), which keeps the
    attribution deterministic for symmetric poses.
    """
    return _facing(a, b), _facing(b, a)


def _facing(box: Box, other: Box) -> str:
    dx, dy = other.x - box.x, other.y - box.y
    norm = math.hypot(dx, dy)
    if norm == 0:
        return "front"
    ux, uy = dx / norm, dy / norm
    c, s = math.cos(box.heading), math.sin(box.heading)
    front = c * ux + s * uy  # (c, s) . (ux, uy)
    left = -s * ux + c * uy  # (-s, c) . (ux, uy)
    best = "front"
    best_dot = -math.inf
    for face, dot in zip(FACES, (front, -front, left, -left)):
        if dot > best_dot + 1e-12:
            best = face
            best_dot = dot
    return best
