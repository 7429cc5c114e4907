"""Segmentation, depth, and edge rasterization."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenekit.dsl.nodes import AgentClass
from scenekit.render import (
    CLASS_HEIGHTS,
    PinholeCamera,
    SegClass,
    TopDownCamera,
    camera_from_dict,
    camera_to_dict,
    edge_from_seg,
    prepare_static,
    render_frame,
)
from scenekit.render.cameras import CameraError
from scenekit.render.raster import (
    MARKING_HALF_WIDTH,
    _dist_to_polyline,
    _pixel_window,
    _ray_box_hits,
    classify_ground,
    seg_class_of,
)
from scenekit.sim.engine import AgentState
from scenekit.sim.worldmap import MAX_WORLD_COORD, Lane, MapError, WorldMap, builtin_map

EMPTY_WORLD = WorldMap(name="void", lanes={}, anchors={})


def _agent(name, klass, x, y, heading=0.0, length=None, width=None):
    dims = klass.default_dims
    return AgentState(
        name=name,
        klass=klass,
        x=x,
        y=y,
        heading=heading,
        speed=0.0,
        length=dims[0] if length is None else length,
        width=dims[1] if width is None else width,
        behavior_state="idle",
    )


# --- cameras ------------------------------------------------------------


def test_camera_validation():
    with pytest.raises(CameraError):
        TopDownCamera(0.0, 0.0, meters_per_pixel=0.0)
    with pytest.raises(CameraError):
        TopDownCamera(0.0, 0.0, width=0)
    with pytest.raises(CameraError):
        PinholeCamera(0.0, 0.0, 1.0, focal_px=-1.0)


def test_camera_json_round_trip():
    for camera in (
        TopDownCamera(3.0, -2.0, 0.25, 64, 48),
        PinholeCamera(1.0, 2.0, 1.5, yaw_deg=30.0, pitch_deg=10.0, focal_px=128.0, width=64, height=64),
    ):
        again = camera_from_dict(camera_to_dict(camera))
        assert camera_to_dict(again) == camera_to_dict(camera)


def test_minimal_camera_json_loads_the_dataclass_defaults():
    assert camera_from_dict({"variant": "topdown"}) == TopDownCamera()
    pinhole = {"variant": "pinhole", "position": [1.0, 2.0, 3.0]}
    assert camera_from_dict(pinhole) == PinholeCamera(1.0, 2.0, 3.0)
    assert camera_from_dict({**pinhole, "principal": None}) == PinholeCamera(1.0, 2.0, 3.0)


def test_camera_from_dict_rejects_junk():
    with pytest.raises(CameraError):
        camera_from_dict({})
    with pytest.raises(CameraError):
        camera_from_dict({"variant": "fisheye"})
    with pytest.raises(CameraError):
        camera_from_dict({"variant": "pinhole"})  # no position


# --- top-down segmentation ----------------------------------------------


def test_empty_world_is_all_background():
    camera = TopDownCamera(0.0, 0.0)
    seg, depth = render_frame([], EMPTY_WORLD, camera)
    assert seg.shape == (512, 512)
    assert (seg == SegClass.BACKGROUND).all()
    assert (depth == camera.far_plane).all()


def test_car_pixel_count_matches_area():
    # 4.5 m x 2.0 m at 0.1 m/px covers 45x20 = 900 pixels up to boundary
    # rasterization, bounded by the perimeter pixel count 2*(45+20)-4.
    camera = TopDownCamera(0.0, 0.0)
    seg = render_frame([_agent("ego", AgentClass.CAR, 0.0, 0.0)], EMPTY_WORLD, camera)[0]
    count = int((seg == SegClass.VEHICLE).sum())
    assert abs(count - 900) <= 2 * (45 + 20) - 4


def test_rotated_car_same_area():
    camera = TopDownCamera(0.0, 0.0)
    seg = render_frame(
        [_agent("ego", AgentClass.CAR, 0.0, 0.0, heading=math.radians(37.0))],
        EMPTY_WORLD,
        camera,
    )[0]
    count = int((seg == SegClass.VEHICLE).sum())
    assert abs(count - 900) <= 180  # rotated boundary can alias a bit more


def test_rendering_is_deterministic():
    world = builtin_map("crossing")
    camera = TopDownCamera(0.0, 0.0, width=96, height=96)
    agents = [
        _agent("ego", AgentClass.CAR, -3.0, -1.75),
        _agent("walker", AgentClass.PEDESTRIAN, 1.0, 1.0),
    ]
    a = render_frame(agents, world, camera)
    b = render_frame(agents, world, camera)
    assert (a[0] == b[0]).all()
    assert (a[1] == b[1]).all()


def test_agents_paint_over_road_and_higher_class_wins():
    world = builtin_map("straight")
    camera = TopDownCamera(10.0, 0.0, width=64, height=64)
    car = _agent("ego", AgentClass.CAR, 10.0, 0.0)
    walker = _agent("w", AgentClass.PEDESTRIAN, 10.0, 0.0)
    seg = render_frame([walker, car], world, camera)[0]
    # The pedestrian footprint sits inside the car footprint; its higher
    # class id must still win regardless of list order.
    assert (seg == SegClass.PEDESTRIAN).sum() > 0
    assert (seg == SegClass.VEHICLE).sum() > 0
    seg2 = render_frame([car, walker], world, camera)[0]
    assert (seg == seg2).all()


def test_ground_classes_match_bruteforce_oracle():
    # Re-derive every pixel's class with plain point-to-segment math.
    world = builtin_map("straight")
    camera = TopDownCamera(10.0, 1.75, meters_per_pixel=0.1, width=48, height=72)
    seg = render_frame([], world, camera)[0]

    def dist_to_segment(px, py, ax, ay, bx, by):
        vx, vy = bx - ax, by - ay
        t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
        t = min(1.0, max(0.0, t))
        cx, cy = ax + t * vx, ay + t * vy
        return math.hypot(px - cx, py - cy)

    for i in range(camera.height):
        for j in range(camera.width):
            wx = camera.center_x + (j + 0.5 - camera.width / 2.0) * camera.meters_per_pixel
            wy = camera.center_y - (i + 0.5 - camera.height / 2.0) * camera.meters_per_pixel
            expected = 0
            for lane in world.lanes.values():
                pts = lane.centerline
                d = min(
                    dist_to_segment(wx, wy, *pts[k], *pts[k + 1]) for k in range(len(pts) - 1)
                )
                if d <= lane.width / 2.0:
                    expected = max(expected, 1)
                if abs(d - lane.width / 2.0) <= 0.075:
                    expected = max(expected, 2)
            assert seg[i, j] == expected, (i, j, wx, wy)


def _classify_every_point(points, world):
    """classify_ground's formula with every point measured against every lane."""
    road = np.zeros(len(points), dtype=bool)
    marking = np.zeros(len(points), dtype=bool)
    for lane in world.lanes.values():
        d = _dist_to_polyline(points, np.asarray(lane.centerline, dtype=float))
        half = lane.width / 2.0
        road |= d <= half
        marking |= np.abs(d - half) <= MARKING_HALF_WIDTH
    ids = np.zeros(len(points), dtype=np.uint8)
    ids[road] = int(SegClass.ROAD)
    ids[marking] = int(SegClass.LANE_MARKING)
    return ids


@st.composite
def _ground(draw):
    """A few lanes near one place, up to the map bound, and points on their
    band edges, on their grown bounding boxes' edges and around them."""
    base = draw(
        st.sampled_from([0.0, 1234.5, MAX_WORLD_COORD, -MAX_WORLD_COORD])
        | st.floats(-MAX_WORLD_COORD, MAX_WORLD_COORD)
    )
    offset = st.floats(-30.0, 30.0)
    lanes = {}
    for k in range(draw(st.integers(1, 3))):
        line = tuple((base + draw(offset), base + draw(offset)) for _ in range(draw(st.integers(2, 4))))
        try:
            lanes[f"l{k}"] = Lane(f"l{k}", draw(st.floats(0.01, 12.0)), line)
        except MapError:  # two points rounded together
            pass
    assume(lanes)
    points = [(base + draw(offset), base + draw(offset)) for _ in range(draw(st.integers(0, 20)))]
    tiny = st.floats(-1e-3, 1e-3)
    for lane in lanes.values():
        line = np.asarray(lane.centerline)
        half = lane.width / 2.0
        for _ in range(draw(st.integers(0, 8))):  # at a band edge: half or half +- the marking
            k = draw(st.integers(0, len(line) - 2))
            seg = line[k + 1] - line[k]
            normal = np.array([-seg[1], seg[0]]) / np.hypot(*seg)
            across = draw(st.sampled_from([half, half - MARKING_HALF_WIDTH, half + MARKING_HALF_WIDTH]))
            at = line[k] + draw(st.floats(0.0, 1.0)) * seg + (across + draw(tiny)) * normal
            points.append(tuple(at))
        reach = half + MARKING_HALF_WIDTH
        (x0, y0), (x1, y1) = line.min(axis=0), line.max(axis=0)
        for _ in range(draw(st.integers(0, 4))):  # on the grown box's edge
            x = draw(st.sampled_from([x0 - reach, x1 + reach])) + draw(tiny)
            points.append((x, draw(st.floats(y0 - reach, y1 + reach))))
    return WorldMap(name="drawn", lanes=lanes), np.array(points, dtype=float).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(ground=_ground(), data=st.data())
def test_ground_classes_match_every_point_formula_bit_for_bit(ground, data):
    world, points = ground
    assert classify_ground(points, world).tobytes() == _classify_every_point(points, world).tobytes()
    # what the lane box rests on: a point's distance has the same bits in any
    # subset of two or more points
    if len(points) >= 2:
        rows = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=2, unique=True))
        for lane in world.lanes.values():
            line = np.asarray(lane.centerline, dtype=float)
            every = _dist_to_polyline(points, line)
            assert _dist_to_polyline(points[rows], line).tobytes() == every[rows].tobytes()


def test_topdown_depth_constants():
    world = builtin_map("straight")
    camera = TopDownCamera(10.0, 1.75, width=64, height=64)
    agents = [
        _agent("car", AgentClass.CAR, 8.0, 0.0),
        _agent("truck", AgentClass.TRUCK, 10.0, 3.5),
        _agent("walker", AgentClass.PEDESTRIAN, 12.0, 0.5),
        _agent("bike", AgentClass.BICYCLE, 13.5, -0.8),
    ]
    seg, depth = render_frame(agents, world, camera)
    assert set(np.unique(depth[seg == SegClass.ROAD])) == {np.float32(50.0)}
    assert set(np.unique(depth[seg == SegClass.VEHICLE])) == {np.float32(48.5), np.float32(47.0)}
    assert set(np.unique(depth[seg == SegClass.PEDESTRIAN])) == {np.float32(50.0 - 1.75)}
    assert set(np.unique(depth[seg == SegClass.BICYCLE])) == {np.float32(50.0 - 1.6)}
    assert (depth[seg == SegClass.BACKGROUND] == camera.far_plane).all()


def test_class_heights_cover_all_agent_classes():
    assert set(CLASS_HEIGHTS) == set(AgentClass)


# --- pinhole ------------------------------------------------------------


def test_pinhole_min_depth_from_ten_meters():
    # Camera 10 m behind the car, looking at it: nearest surface is the
    # rear face at 10 - 4.5/2 = 7.75 m.
    camera = PinholeCamera(x=-10.0, y=0.0, z=1.0, focal_px=256.0, width=128, height=128)
    car = _agent("ego", AgentClass.CAR, 0.0, 0.0)
    seg, depth = render_frame([car], EMPTY_WORLD, camera)
    vals = depth[seg == SegClass.VEHICLE]
    assert vals.size > 0
    assert abs(float(vals.min()) - 7.75) < 0.01


def test_pinhole_depth_shifts_with_translation():
    camera = PinholeCamera(x=-10.0, y=0.0, z=1.0, focal_px=256.0, width=128, height=128)
    near = render_frame([_agent("a", AgentClass.CAR, 0.0, 0.0)], EMPTY_WORLD, camera)
    far = render_frame([_agent("a", AgentClass.CAR, 5.0, 0.0)], EMPTY_WORLD, camera)
    dmin_near = float(near[1][near[0] == SegClass.VEHICLE].min())
    dmin_far = float(far[1][far[0] == SegClass.VEHICLE].min())
    assert abs((dmin_far - dmin_near) - 5.0) < 0.01


def test_pinhole_depth_monotonic_along_ray():
    camera = PinholeCamera(x=0.0, y=0.0, z=1.0, focal_px=200.0, width=96, height=96)
    previous = 0.0
    for distance in (8.0, 12.0, 17.0, 25.0, 40.0):
        seg, depth = render_frame(
            [_agent("a", AgentClass.TRUCK, distance, 0.0)], EMPTY_WORLD, camera
        )
        current = float(depth[seg == SegClass.VEHICLE].min())
        assert current > previous
        previous = current


def test_pinhole_sees_ground_lanes():
    world = builtin_map("straight")
    camera = PinholeCamera(
        x=0.0, y=0.0, z=8.0, yaw_deg=0.0, pitch_deg=35.0, focal_px=120.0, width=96, height=96
    )
    seg, depth = render_frame([], world, camera)
    road = seg == SegClass.ROAD
    assert road.sum() > 0
    assert (seg == SegClass.LANE_MARKING).sum() > 0
    assert (depth[road] < camera.far_plane).all()
    assert (depth[road] >= camera.z).all()  # ground cannot be closer than the drop


def test_pinhole_agent_beyond_far_plane_invisible():
    camera = PinholeCamera(x=0.0, y=0.0, z=1.0, focal_px=200.0, width=64, height=64, far_plane=50.0)
    seg, depth = render_frame([_agent("a", AgentClass.TRUCK, 80.0, 0.0)], EMPTY_WORLD, camera)
    assert (seg == SegClass.BACKGROUND).all()
    assert (depth == camera.far_plane).all()


def test_prepare_static_reuse_matches_fresh_render():
    world = builtin_map("crossing")
    camera = TopDownCamera(0.0, 0.0, width=80, height=80)
    static = prepare_static(world, camera)
    agents = [_agent("ego", AgentClass.CAR, -5.0, -1.75)]
    a = render_frame(agents, world, camera, static)
    b = render_frame(agents, world, camera)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    # the cached layers must not be mutated by rendering
    c = render_frame([], world, camera, static)
    assert (c[0] == static.seg).all()


def _full_grid_render(agents, camera, static):
    """Every agent tested against every ray: the oracle for render_frame."""
    seg = static.seg.copy()
    best_t = static.depth.astype(np.float64)
    for agent in sorted(agents, key=lambda a: int(seg_class_of(a.klass))):
        hit, entry = _ray_box_hits(static.origin, static.dirs, agent)
        closer = hit & (entry < best_t) & (entry < camera.far_plane)
        best_t = np.where(closer, entry, best_t)
        seg[closer] = int(seg_class_of(agent.klass))
    return seg, best_t.astype(np.float32)


def _assert_matches_full_grid(agents, world, camera):
    static = prepare_static(world, camera)
    seg, depth = render_frame(agents, world, camera, static)
    want_seg, want_depth = _full_grid_render(agents, camera, static)
    assert seg.tobytes() == want_seg.tobytes()
    assert depth.tobytes() == want_depth.tobytes()
    return seg


# Small pinhole cameras near the crossing's center.  Agents stand half the
# time in the camera's ground heading, within the view or just outside it;
# a quarter within a few meters of the camera, which puts many behind it,
# across its plane or around it; the rest anywhere around, which puts some
# off screen.
PINHOLE_CAMERAS = st.builds(
    PinholeCamera,
    x=st.floats(-6.0, 6.0),
    y=st.floats(-6.0, 6.0),
    z=st.floats(0.5, 10.0),
    yaw_deg=st.floats(-180.0, 180.0),
    pitch_deg=st.floats(-15.0, 60.0),
    focal_px=st.floats(8.0, 160.0),
    width=st.integers(24, 64),
    height=st.integers(24, 64),
    cx=st.none() | st.floats(0.0, 64.0),
    cy=st.none() | st.floats(0.0, 64.0),
    far_plane=st.sampled_from([30.0, 100.0]),
)


@st.composite
def _scene(draw):
    camera = draw(PINHOLE_CAMERAS)
    yaw = math.radians(camera.yaw_deg)
    agents = []
    for _ in range(draw(st.integers(1, 4))):
        where = draw(st.integers(0, 3))
        if where >= 2:
            ahead = draw(st.floats(1.0, 40.0))
            side = ahead * draw(st.floats(-1.0, 1.0))
            x = camera.x + ahead * math.cos(yaw) - side * math.sin(yaw)
            y = camera.y + ahead * math.sin(yaw) + side * math.cos(yaw)
        elif where == 1:
            x = camera.x + draw(st.floats(-6.0, 6.0))
            y = camera.y + draw(st.floats(-6.0, 6.0))
        else:
            x, y = draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0))
        agents.append(
            _agent(
                "a",
                draw(st.sampled_from(list(AgentClass))),
                x,
                y,
                heading=draw(st.floats(-math.pi, math.pi)),
                length=draw(st.floats(0.3, 12.0)),
                width=draw(st.floats(0.3, 3.0)),
            )
        )
    return camera, agents


@settings(max_examples=150, deadline=None)
@given(scene=_scene())
def test_pinhole_windowed_raster_matches_full_grid(scene):
    camera, agents = scene
    _assert_matches_full_grid(agents, builtin_map("crossing"), camera)


FULL_GRID = (slice(None), slice(None))
LEVEL_CAMERA = PinholeCamera(x=0.0, y=0.0, z=1.2, focal_px=40.0, width=48, height=40)


def test_pinhole_subnormal_pitch_gives_no_overflow_warning():
    # a pitch of 2.2e-311 degrees leaves one pixel row a subnormal ray dz; the
    # distance to the ground along it overflows to inf, as for a level ray
    camera = PinholeCamera(0.0, 0.0, 1.0, 0.0, 2.225073858507e-311, 8.0, 24, 25, far_plane=30.0)
    static = prepare_static(builtin_map("crossing"), camera)
    assert np.all((static.depth > 0) & (static.depth <= np.float32(30.0)))


def test_pinhole_camera_inside_box_uses_full_grid():
    # The car's box runs from 1.75 m behind the camera to 2.75 m ahead, and
    # the camera sits inside it at 1.2 m of its 1.5 m.
    car = _agent("a", AgentClass.CAR, 0.5, 0.0)
    assert _pixel_window(LEVEL_CAMERA, car) == FULL_GRID
    seg = _assert_matches_full_grid([car], EMPTY_WORLD, LEVEL_CAMERA)
    assert (seg == SegClass.VEHICLE).any()


def test_pinhole_box_straddling_camera_plane_is_clipped_to_a_window():
    # A car alongside on the right runs from 1.75 m behind the camera plane
    # to 2.75 m ahead of it; a truck passing on the left ends 1 m ahead of it.
    car = _agent("a", AgentClass.CAR, 0.5, -2.5)
    truck = _agent("b", AgentClass.TRUCK, -5.0, 1.6, length=12.0)
    for agent in (car, truck):
        rows, cols = _pixel_window(LEVEL_CAMERA, agent)
        assert (rows.stop - rows.start) * (cols.stop - cols.start) < LEVEL_CAMERA.width * LEVEL_CAMERA.height
        seg = _assert_matches_full_grid([agent], EMPTY_WORLD, LEVEL_CAMERA)
        hit_cols = np.nonzero(seg == SegClass.VEHICLE)[1]
        assert hit_cols.size > 0
        assert cols.start <= hit_cols.min() and hit_cols.max() < cols.stop


@pytest.mark.parametrize("length", [1e12, 1e300])
def test_pinhole_huge_box_beside_the_camera_matches_full_grid(length):
    # a box from far behind the camera to far ahead of it, 2 m to its left:
    # clipping it near the camera plane loses every digit to rounding, so it
    # keeps the full grid
    wall = _agent("a", AgentClass.TRUCK, 0.0, 3.0, length=length)
    seg = _assert_matches_full_grid([wall], EMPTY_WORLD, LEVEL_CAMERA)
    assert (seg == SegClass.VEHICLE).any()


def test_pinhole_box_off_screen_has_empty_window():
    truck = _agent("a", AgentClass.TRUCK, 10.0, 40.0)  # far left of a 62 degree view
    assert _pixel_window(LEVEL_CAMERA, truck) is None
    seg = _assert_matches_full_grid([truck], builtin_map("straight"), LEVEL_CAMERA)
    assert not (seg == SegClass.VEHICLE).any()


def test_pinhole_box_behind_camera_draws_nothing():
    walker = _agent("a", AgentClass.PEDESTRIAN, -6.0, 0.0)
    assert _pixel_window(LEVEL_CAMERA, walker) is None
    seg = _assert_matches_full_grid([walker], EMPTY_WORLD, LEVEL_CAMERA)
    assert not (seg == SegClass.PEDESTRIAN).any()


def test_topdown_box_past_the_float_range_draws_nothing():
    camera = TopDownCamera(0.0, 0.0)
    car = _agent("a", AgentClass.CAR, 2e307, 0.0)  # 2e308 px from the centre
    seg, depth = render_frame([car], EMPTY_WORLD, camera)
    assert (seg == SegClass.BACKGROUND).all() and (depth == camera.far_plane).all()


def test_pinhole_box_projected_past_the_float_range_draws_nothing():
    car = _agent("a", AgentClass.CAR, 10.0, 1e307)  # 4e308 px to the left
    assert _pixel_window(LEVEL_CAMERA, car) is None
    seg = _assert_matches_full_grid([car], EMPTY_WORLD, LEVEL_CAMERA)
    assert not (seg == SegClass.VEHICLE).any()


@pytest.mark.parametrize("width", [1e300, 1.7e308])
def test_pinhole_box_wider_than_the_float_range_keeps_its_window(width):
    # a truck 10 m long across the whole view 15 m ahead: at 1.7e308 m wide
    # its side corners project to +-inf columns, which still bound the window
    camera = PinholeCamera(x=0.0, y=0.0, z=1.5, focal_px=40.0, width=48, height=40)
    truck = _agent("a", AgentClass.TRUCK, 15.0, 0.0, length=10.0, width=width)
    assert _pixel_window(camera, truck) == (slice(12, 28), slice(0, 48))
    seg = _assert_matches_full_grid([truck], EMPTY_WORLD, camera)
    assert np.count_nonzero(seg == SegClass.VEHICLE) == 576


def test_pinhole_box_in_view_is_windowed():
    car = _agent("a", AgentClass.CAR, 15.0, 1.0, heading=0.4)
    rows, cols = _pixel_window(LEVEL_CAMERA, car)
    assert (rows.stop - rows.start) * (cols.stop - cols.start) < LEVEL_CAMERA.width * LEVEL_CAMERA.height / 4
    seg = _assert_matches_full_grid([car], EMPTY_WORLD, LEVEL_CAMERA)
    hit_rows, hit_cols = np.nonzero(seg == SegClass.VEHICLE)
    assert hit_rows.size > 0
    assert rows.start < hit_rows.min() and hit_rows.max() < rows.stop - 1
    assert cols.start < hit_cols.min() and hit_cols.max() < cols.stop - 1


# --- edges --------------------------------------------------------------


def _edge_oracle(seg):
    h, w = seg.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < h and 0 <= nj < w and seg[ni, nj] < seg[i, j]:
                    out[i, j] = 1
    return out


def test_uniform_raster_has_no_edges():
    assert edge_from_seg(np.full((9, 13), 4, dtype=np.uint8)).sum() == 0
    assert edge_from_seg(np.zeros((5, 5), dtype=np.uint8)).sum() == 0


def test_rectangle_edge_count_is_inner_perimeter():
    # A filled w x h rectangle outlines itself with 2(w+h)-4 pixels: the
    # inner boundary, corners counted once.
    canvas = np.zeros((24, 30), dtype=np.uint8)
    canvas[5:15, 8:20] = 3
    edge = edge_from_seg(canvas)
    assert int(edge.sum()) == 2 * (10 + 12) - 4
    # and the marked pixels are exactly the rectangle's boundary ring
    inner = np.zeros_like(canvas)
    inner[5:15, 8:20] = 1
    inner[6:14, 9:19] = 0
    assert (edge == inner).all()


def test_edge_matches_bruteforce_oracle_on_random_rasters():
    rng = np.random.default_rng(99)
    for _ in range(20):
        seg = rng.integers(0, 6, size=(23, 17)).astype(np.uint8)
        assert (edge_from_seg(seg) == _edge_oracle(seg)).all()


@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (23, 1)], ids=["1x1", "1xN", "Nx1"])
def test_edge_matches_bruteforce_oracle_on_thin_rasters(shape):
    rng = np.random.default_rng(7)
    for _ in range(20):
        seg = rng.integers(0, 6, size=shape).astype(np.uint8)
        edge = edge_from_seg(seg)
        assert edge.dtype == np.uint8 and (edge == _edge_oracle(seg)).all()


def test_edge_pixels_sit_on_class_boundaries():
    world = builtin_map("crossing")
    camera = TopDownCamera(0.0, 0.0, width=96, height=96)
    seg = render_frame([_agent("ego", AgentClass.CAR, -4.0, -1.75)], world, camera)[0]
    edge = edge_from_seg(seg)
    h, w = seg.shape
    for i, j in zip(*np.nonzero(edge)):
        neighbors = [
            seg[ni, nj]
            for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
            if 0 <= ni < h and 0 <= nj < w
        ]
        assert any(n != seg[i, j] for n in neighbors)


def test_edge_values_are_binary():
    world = builtin_map("straight")
    camera = TopDownCamera(10.0, 1.75, width=64, height=64)
    edge = edge_from_seg(render_frame([], world, camera)[0])
    assert set(np.unique(edge)) <= {0, 1}
