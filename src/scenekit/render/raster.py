"""Rasterizers for segmentation, depth, and edge control maps.

Both camera variants produce a class-id raster and a depth raster from the
same pass.  Classes paint in id order (background lowest, agents on top),
so the raster is deterministic for any agent ordering.  The top-down depth
is a pseudo-depth: the camera hovers at a fixed height and each pixel reads
that height minus the height of whatever covers it.  The pinhole depth is
the true ray distance to the first surface.  Under the pinhole camera each
agent is tested only against the rays in its pixel window, the bounding
rectangle of its box's projected corners.  A box that reaches the camera
plane is first clipped at a forward depth closer than any ray can hit it,
so it gets a window too, or none when it lies wholly behind the camera;
only a camera in or on the box tests it against the full grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from scenekit.dsl.nodes import AgentClass
from scenekit.render.cameras import Camera, PinholeCamera, TopDownCamera
from scenekit.sim.engine import AgentState
from scenekit.sim.geometry import Box, _corner_points, points_in_box
from scenekit.sim.worldmap import WorldMap


class SegClass(enum.IntEnum):
    """Palette ids, ordered so that higher ids paint over lower ones."""

    BACKGROUND = 0
    ROAD = 1
    LANE_MARKING = 2
    VEHICLE = 3
    PEDESTRIAN = 4
    BICYCLE = 5


PALETTE_SIZE = len(SegClass)

# Nominal body heights in meters; used for top-down pseudo-depth and as the
# vertical extent of agent boxes under the pinhole camera.
CLASS_HEIGHTS: dict[AgentClass, float] = {
    AgentClass.CAR: 1.5,
    AgentClass.TRUCK: 3.0,
    AgentClass.PEDESTRIAN: 1.75,
    AgentClass.BICYCLE: 1.6,
}

# A lane's painted edge line: pixels within this distance of the lane
# boundary (half-width from the centerline) classify as LaneMarking.
MARKING_HALF_WIDTH = 0.075


def seg_class_of(klass: AgentClass) -> SegClass:
    if klass is AgentClass.PEDESTRIAN:
        return SegClass.PEDESTRIAN
    if klass is AgentClass.BICYCLE:
        return SegClass.BICYCLE
    return SegClass.VEHICLE


def _dist_to_polyline(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Distance from each (N, 2) point to the nearest polyline point."""
    best = np.full(len(points), np.inf)
    for a, b in zip(polyline[:-1], polyline[1:]):
        seg = b - a
        denom = float(seg @ seg)
        t = np.clip(((points - a) @ seg) / denom, 0.0, 1.0)
        closest = a + t[:, None] * seg
        d = np.linalg.norm(points - closest, axis=1)
        best = np.minimum(best, d)
    return best


# A computed lane distance is off from the true one by about a dozen
# roundings, each at most half an ulp of a value no larger than four times
# the scale: the largest coordinate of the lane's bounding box plus the
# lane's reach (half its width plus the marking band).  That is under 2**-46
# of the scale.  A point farther outside the box than the reach plus 2**-40
# of the scale (about 0.9 m at MAX_WORLD_COORD) therefore computes a
# distance past the reach and classifies as neither road nor marking; the
# box bounds themselves round by far less.
_BOX_ROUNDING = 2.0**-40


def classify_ground(points: np.ndarray, world: WorldMap) -> np.ndarray:
    """Lane-derived class ids for (N, 2) world points.

    Road covers everything within half a lane width of a centerline; the
    marking band straddles the lane boundary and paints over road.  Each
    lane measures only the points inside its centerline's bounding box,
    grown by its reach: the points outside are neither.  A point's distance
    has the same bits whichever points are measured with it, as long as
    there are at least two: numpy rounds a one-row product another way.
    """
    ids = np.zeros(len(points), dtype=np.uint8)
    road = np.zeros(len(points), dtype=bool)
    marking = np.zeros(len(points), dtype=bool)
    x, y = points[:, 0], points[:, 1]
    for lane in world.lanes.values():
        line = np.asarray(lane.centerline, dtype=float)
        half = lane.width / 2.0
        reach = half + MARKING_HALF_WIDTH
        (x0, y0), (x1, y1) = line.min(axis=0), line.max(axis=0)
        grow = reach + _BOX_ROUNDING * (max(-x0, -y0, x1, y1, 0.0) + reach)
        near = np.flatnonzero((x >= x0 - grow) & (x <= x1 + grow) & (y >= y0 - grow) & (y <= y1 + grow))
        if len(near) == 0:
            continue
        if len(near) == 1:
            near = slice(None)
        d = _dist_to_polyline(points[near], line)
        road[near] |= d <= half
        marking[near] |= np.abs(d - half) <= MARKING_HALF_WIDTH
    ids[road] = int(SegClass.ROAD)
    ids[marking] = int(SegClass.LANE_MARKING)
    return ids


# --------------------------------------------------------------------------
# static per-(world, camera) layers


@dataclass
class StaticLayers:
    """Everything that does not change between frames of one trace."""

    seg: np.ndarray  # uint8 (H, W): ground classes
    depth: np.ndarray  # float32 (H, W): depth with no agents present
    # pinhole only: unit ray directions (H, W, 3) and camera origin
    dirs: np.ndarray | None = None
    origin: np.ndarray | None = None


def _topdown_centers(camera: TopDownCamera) -> tuple[np.ndarray, np.ndarray]:
    """World x per column and world y per row, at pixel centers."""
    j = np.arange(camera.width)
    i = np.arange(camera.height)
    wx = camera.center_x + (j + 0.5 - camera.width / 2.0) * camera.meters_per_pixel
    wy = camera.center_y - (i + 0.5 - camera.height / 2.0) * camera.meters_per_pixel
    return wx, wy


def _prepare_topdown(world: WorldMap, camera: TopDownCamera) -> StaticLayers:
    wx, wy = _topdown_centers(camera)
    gx, gy = np.meshgrid(wx, wy)
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    seg = classify_ground(points, world).reshape(camera.height, camera.width)
    depth = np.where(
        seg == int(SegClass.BACKGROUND), camera.far_plane, camera.ortho_height
    ).astype(np.float32)
    return StaticLayers(seg=seg, depth=depth)


def _camera_basis(camera: PinholeCamera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    yaw = math.radians(camera.yaw_deg)
    pitch = math.radians(camera.pitch_deg)
    forward = np.array(
        [
            math.cos(yaw) * math.cos(pitch),
            math.sin(yaw) * math.cos(pitch),
            -math.sin(pitch),
        ]
    )
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    up = np.cross(right, forward)
    return forward, right, up


def _prepare_pinhole(world: WorldMap, camera: PinholeCamera) -> StaticLayers:
    forward, right, up = _camera_basis(camera)
    cx, cy = camera.principal
    u = (np.arange(camera.width) + 0.5 - cx) / camera.focal_px
    v = (cy - (np.arange(camera.height) + 0.5)) / camera.focal_px
    uu, vv = np.meshgrid(u, v)
    dirs = forward[None, None, :] + uu[..., None] * right + vv[..., None] * up
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    origin = np.array([camera.x, camera.y, camera.z])

    seg = np.full((camera.height, camera.width), int(SegClass.BACKGROUND), dtype=np.uint8)
    depth = np.full((camera.height, camera.width), camera.far_plane, dtype=np.float32)
    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a subnormal dz: inf
        t_ground = np.where(dz < 0.0, -origin[2] / dz, np.inf)
    near = (t_ground > 0.0) & (t_ground < camera.far_plane)
    if near.any():
        hits = origin[:2] + t_ground[near, None] * dirs[near][:, :2]
        classes = classify_ground(hits, world)
        on_road = classes > 0
        rows, cols = np.nonzero(near)
        rows, cols = rows[on_road], cols[on_road]
        seg[rows, cols] = classes[on_road]
        depth[rows, cols] = t_ground[near][on_road].astype(np.float32)
    return StaticLayers(seg=seg, depth=depth, dirs=dirs, origin=origin)


def prepare_static(world: WorldMap, camera: Camera) -> StaticLayers:
    if isinstance(camera, TopDownCamera):
        return _prepare_topdown(world, camera)
    return _prepare_pinhole(world, camera)


# --------------------------------------------------------------------------
# per-frame rendering


def box_corners(box: Box) -> np.ndarray:
    """The box's corners as a counter-clockwise (4, 2) array: front-left,
    rear-left, rear-right, front-right."""
    return np.array(_corner_points(box))


def _paint_topdown(
    seg: np.ndarray, depth: np.ndarray, camera: TopDownCamera, agent: AgentState
) -> None:
    box = agent.box()
    corners = box_corners(box)
    mpp = camera.meters_per_pixel
    with np.errstate(over="ignore"):  # checked just below
        px = (corners[:, 0] - camera.center_x) / mpp + camera.width / 2.0
        py = (camera.center_y - corners[:, 1]) / mpp + camera.height / 2.0
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        return  # a corner past the float range: the box lies off-image
    j0 = max(0, int(math.floor(px.min())) - 1)
    j1 = min(camera.width, int(math.ceil(px.max())) + 1)
    i0 = max(0, int(math.floor(py.min())) - 1)
    i1 = min(camera.height, int(math.ceil(py.max())) + 1)
    if j0 >= j1 or i0 >= i1:
        return
    wx, wy = _topdown_centers(camera)
    gx, gy = np.meshgrid(wx[j0:j1], wy[i0:i1])
    points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    mask = points_in_box(points, box).reshape(i1 - i0, j1 - j0)
    seg_id = int(seg_class_of(agent.klass))
    pseudo = np.float32(camera.ortho_height - CLASS_HEIGHTS[agent.klass])
    sub_seg = seg[i0:i1, j0:j1]
    sub_depth = depth[i0:i1, j0:j1]
    sub_seg[mask] = seg_id
    sub_depth[mask] = pseudo


# At or below this forward depth (meters) a point's projection is not
# trusted: a box with a corner this close to the camera plane is clipped
# before its window is taken, and one that would be clipped this close to
# the camera (the camera in it or on it) keeps the full grid.
MIN_WINDOW_DEPTH = 1e-6

# A clipped vertex is off by a few ulps of the box's largest camera-relative
# coordinate, far below this share of it.  Unless the clip depth is above
# that share, rounding may move a vertex onto the camera plane, so the box
# keeps the full grid: a box 1e11 m long passing 0.1 m from the camera, say.
_CLIP_ROUNDING = 2.0**-40

# The 12 edges of a box whose corners are 4 footprint corners in cyclic
# order at the ground, then the same 4 at the box's height.
_BOX_EDGES = np.array(
    [(k, (k + 1) % 4) for k in range(4)]
    + [(4 + k, 4 + (k + 1) % 4) for k in range(4)]
    + [(k, k + 4) for k in range(4)]
)


@np.errstate(all="ignore")  # a box at the float range's edge: inf and NaN, checked below
def _pixel_window(camera: PinholeCamera, agent: AgentState) -> tuple[slice, slice] | None:
    """Rows and columns of the pixels whose rays can hit the agent's box.

    The window is the bounding rectangle of the box's projected vertices,
    one pixel wider on every side and clamped to the image; None when that
    is empty.  A vertex that projects past the float range (to +-inf) counts
    as lying off that side of the image; a NaN projection leaves the full
    grid.  A box that reaches the camera plane is first clipped at the
    forward depth `near`, half the least depth any ray can hit it at: every
    ray meets the camera's forward axis at a cosine of at least `cos_edge`
    (the image corners' rays), and no ray reaches the box before `gap`, its
    distance from the camera.  So the clip drops no point a ray can hit,
    and a box wholly behind the camera keeps no vertex and gets None.  Only
    a camera in or on the box (`near` at or below MIN_WINDOW_DEPTH), or a
    clip that rounding could move to the camera plane, leaves the full grid.
    """
    forward, right, up = _camera_basis(camera)
    corners = np.zeros((8, 3))
    corners[:, :2] = np.tile(box_corners(agent.box()), (2, 1))
    corners[4:, 2] = CLASS_HEIGHTS[agent.klass]
    rel = corners - np.array([camera.x, camera.y, camera.z])
    ahead = rel @ forward
    cx, cy = camera.principal
    if ahead.min() <= MIN_WINDOW_DEPTH:
        c, s = math.cos(agent.heading), math.sin(agent.heading)
        ox, oy = camera.x - agent.x, camera.y - agent.y
        local = np.array([ox * c + oy * s, -ox * s + oy * c, camera.z])
        hi = np.array([agent.length / 2.0, agent.width / 2.0, CLASS_HEIGHTS[agent.klass]])
        lo = np.array([-hi[0], -hi[1], 0.0])
        gap = float(np.linalg.norm(local - np.clip(local, lo, hi)))  # inf past 1e154 m
        u_max = max(abs(0.5 - cx), abs(camera.width - 0.5 - cx)) / camera.focal_px
        v_max = max(abs(cy - 0.5), abs(cy - camera.height + 0.5)) / camera.focal_px
        near = gap / math.sqrt(1.0 + u_max * u_max + v_max * v_max) / 2.0
        if near <= MIN_WINDOW_DEPTH or not near > _CLIP_ROUNDING * np.abs(rel).max():
            return slice(None), slice(None)
        a, b = _BOX_EDGES.T
        da, db = ahead[a] - near, ahead[b] - near
        crosses = (da < 0.0) != (db < 0.0)
        frac = (da[crosses] / (da[crosses] - db[crosses]))[:, None]
        rel = np.concatenate(
            [rel[ahead >= near], rel[a[crosses]] + frac * (rel[b[crosses]] - rel[a[crosses]])]
        )
        if len(rel) == 0:
            return None
        ahead = rel @ forward
    # Inverse of the pixel-center rays in _prepare_pinhole.
    cols = cx + camera.focal_px * (rel @ right) / ahead - 0.5
    rows = cy - camera.focal_px * (rel @ up) / ahead - 0.5
    if np.isnan(cols).any() or np.isnan(rows).any():
        return slice(None), slice(None)
    # Clamped to the last values whose one-pixel margin still falls wholly
    # outside the image: no finite window changes, and +-inf takes the window
    # of a vertex far off that side.
    cols = np.clip(cols, -2.0, camera.width + 1.0)
    rows = np.clip(rows, -2.0, camera.height + 1.0)
    j0 = max(0, math.floor(cols.min()) - 1)
    j1 = min(camera.width, math.ceil(cols.max()) + 2)
    i0 = max(0, math.floor(rows.min()) - 1)
    i1 = min(camera.height, math.ceil(rows.max()) + 2)
    if j0 >= j1 or i0 >= i1:
        return None
    return slice(i0, i1), slice(j0, j1)


def _ray_box_hits(
    origin: np.ndarray, dirs: np.ndarray, agent: AgentState
) -> tuple[np.ndarray, np.ndarray]:
    """Slab intersection of each ray in `dirs` with one agent's 3D box.

    Returns (hit mask, entry distance) over the rays given: `render_frame`
    passes the agent's pixel window, or the full grid when the camera is in
    or on the box.  The box stands on the ground plane with the agent's
    footprint and class height.
    """
    c, s = math.cos(agent.heading), math.sin(agent.heading)
    ox = (origin[0] - agent.x) * c + (origin[1] - agent.y) * s
    oy = -(origin[0] - agent.x) * s + (origin[1] - agent.y) * c
    oz = origin[2]
    dx = dirs[..., 0] * c + dirs[..., 1] * s
    dy = -dirs[..., 0] * s + dirs[..., 1] * c
    dz = dirs[..., 2]
    height = CLASS_HEIGHTS[agent.klass]

    tmin = np.full(dx.shape, -np.inf)
    tmax = np.full(dx.shape, np.inf)
    for o, d, lo, hi in (
        (ox, dx, -agent.length / 2.0, agent.length / 2.0),
        (oy, dy, -agent.width / 2.0, agent.width / 2.0),
        (oz, dz, 0.0, height),
    ):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / d
            t1 = (lo - o) * inv
            t2 = (hi - o) * inv
        tmin = np.maximum(tmin, np.minimum(t1, t2))
        tmax = np.minimum(tmax, np.maximum(t1, t2))
    hit = (tmax >= tmin) & (tmax > 0.0)
    entry = np.where(tmin > 0.0, tmin, tmax)
    return hit, entry


def render_frame(
    agents: list[AgentState],
    world: WorldMap,
    camera: Camera,
    static: StaticLayers | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Render one frame to (seg ids uint8, depth meters float32)."""
    if static is None:
        static = prepare_static(world, camera)
    seg = static.seg.copy()
    depth = static.depth.copy()
    order = sorted(range(len(agents)), key=lambda k: int(seg_class_of(agents[k].klass)))
    if isinstance(camera, TopDownCamera):
        for k in order:
            _paint_topdown(seg, depth, camera, agents[k])
        return seg, depth

    assert static.dirs is not None and static.origin is not None
    best_t = depth.astype(np.float64)
    for k in order:
        agent = agents[k]
        window = _pixel_window(camera, agent)
        if window is None:
            continue
        hit, entry = _ray_box_hits(static.origin, static.dirs[window], agent)
        # Basic slices are views, so these writes land in best_t and seg.
        sub_t = best_t[window]
        closer = hit & (entry < sub_t) & (entry < camera.far_plane)
        sub_t[closer] = entry[closer]
        seg[window][closer] = int(seg_class_of(agent.klass))
    return seg, best_t.astype(np.float32)


def edge_from_seg(seg: np.ndarray) -> np.ndarray:
    """Mark pixels that have at least one 4-neighbor of strictly lower class.

    Only the higher side of a boundary is marked, which keeps every edge one
    pixel wide: an object outlines itself against whatever it sits on instead
    of smearing the boundary across both sides.
    """
    edge = np.zeros(seg.shape, dtype=bool)
    edge[1:] = seg[:-1] < seg[1:]  # neighbor above
    edge[:-1] |= seg[1:] < seg[:-1]  # below
    edge[:, 1:] |= seg[:, :-1] < seg[:, 1:]  # left
    edge[:, :-1] |= seg[:, 1:] < seg[:, :-1]  # right
    return edge.view(np.uint8)
