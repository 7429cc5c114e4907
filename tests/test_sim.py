"""Collision geometry, the classifier, maps, and the fixed-step engine."""

import hashlib
import json
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.dsl import compile_script
from scenekit.dsl.nodes import AgentClass
from scenekit.dsl.sampler import SampleError, sample_parameters, sample_variations
from scenekit.sim import engine, geometry
from scenekit.sim.classify import CollisionClass, classify_collision
from scenekit.sim.engine import AgentState, PlacementError, SimConfig, run
from scenekit.sim.geometry import (
    GUARD,
    Box,
    box_corners,
    clip_convex,
    contact_faces,
    impact_point,
    obbs_overlap,
    points_in_box,
    rel_heading_deg,
    signed_separation,
)
from scenekit.sim.geometry import _scalar_separation
from scenekit.sim.requirements import check_requirements
from scenekit.sim.traceio import (
    read_trace_json,
    trace_to_dict,
    write_trace_json,
)
from scenekit.sim.worldmap import MapError, WorldMap, builtin_map, load_map

FIXTURES = Path(__file__).parent / "data" / "fixtures"
LIBRARY = Path(__file__).resolve().parent.parent / "src" / "scenekit" / "data" / "library"


def _track(trace, name):
    return [next(s for s in frame if s.name == name) for frame in trace.frames]


def _fixture_trace(name, map_name, seed=0, config=SimConfig()):
    ast, diags = compile_script((FIXTURES / f"{name}.scn").read_text())
    assert ast is not None and diags == []
    scenario = sample_parameters(ast, seed)
    return scenario, run(scenario, builtin_map(map_name), config)


# --- geometry: separation and overlap ----------------------------------


def test_touching_boxes_do_not_overlap():
    # shared edge, zero penetration: contact is strict
    a = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    b = Box(4.0, 0.0, 0.0, 4.0, 2.0)
    assert signed_separation(a, b) == 0.0
    assert not obbs_overlap(a, b)


def test_known_penetration_depth():
    a = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    b = Box(3.5, 0.0, 0.0, 4.0, 2.0)
    assert signed_separation(a, b) == pytest.approx(0.5)
    assert obbs_overlap(a, b)


def test_clearance_is_negative():
    a = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    b = Box(10.0, 0.0, 0.0, 4.0, 2.0)
    assert signed_separation(a, b) == pytest.approx(-6.0)


def test_separation_invariant_under_shared_rotation():
    a = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    b = Box(3.0, 0.5, 0.4, 3.0, 1.5)
    base = signed_separation(a, b)
    for angle in (0.3, 1.1, 2.7):
        c, s = math.cos(angle), math.sin(angle)

        def rot(box):
            return Box(
                c * box.x - s * box.y,
                s * box.x + c * box.y,
                box.heading + angle,
                box.length,
                box.width,
            )

        assert signed_separation(rot(a), rot(b)) == pytest.approx(base, abs=1e-9)


def test_corners_are_ccw_with_correct_area():
    box = Box(2.0, -1.0, 0.7, 4.5, 2.0)
    pts = box_corners(box)
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert area == pytest.approx(4.5 * 2.0)  # positive: counter-clockwise


def test_points_in_box_boundary_inclusive():
    box = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    pts = np.array([[2.0, 1.0], [2.0, 1.0001], [-2.0, -1.0], [0.0, 0.0]])
    assert points_in_box(pts, box).tolist() == [True, False, True, True]


def _grid_points(box, step):
    """World-frame points on a regular grid covering the box."""
    nx = max(2, math.ceil(box.length / step) + 1)
    ny = max(2, math.ceil(box.width / step) + 1)
    xs = np.linspace(-box.length / 2.0, box.length / 2.0, nx)
    ys = np.linspace(-box.width / 2.0, box.width / 2.0, ny)
    gx, gy = np.meshgrid(xs, ys)
    local = np.column_stack([gx.ravel(), gy.ravel()])
    c, s = math.cos(box.heading), math.sin(box.heading)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.x, box.y])


def _sampled_overlap(a, b, step=0.01):
    """Point-sampling overlap oracle, independent of the axis projections."""
    return bool(
        points_in_box(_grid_points(a, step), b).any()
        or points_in_box(_grid_points(b, step), a).any()
    )


def test_overlap_verdict_matches_point_sampling():
    # Random pairs; skip near-tangent poses where a 1 cm grid cannot decide.
    rng = random.Random(4242)

    def rand_box():
        return Box(
            rng.uniform(-3, 3),
            rng.uniform(-3, 3),
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0.5, 5.0),
            rng.uniform(0.3, 2.5),
        )

    seen = {True: 0, False: 0}
    for _ in range(300):
        a, b = rand_box(), rand_box()
        if abs(signed_separation(a, b)) <= 0.02:
            continue
        verdict = obbs_overlap(a, b)
        seen[verdict] += 1
        assert verdict == _sampled_overlap(a, b), (a, b)
    assert seen[True] > 20 and seen[False] > 20  # corpus exercises both sides


def _radius(box):
    return math.hypot(box.length, box.width) / 2.0


@st.composite
def _box_pairs(draw):
    """Pairs from face-to-face tangency out to 60 m apart, with the bounding
    circles exactly tangent and GUARD either side of tangent among them."""
    a = Box(
        draw(st.floats(-50.0, 50.0)),
        draw(st.floats(-50.0, 50.0)),
        draw(st.floats(-math.pi, math.pi)),
        draw(st.floats(1e-6, 12.0)),
        draw(st.floats(1e-6, 3.0)),
    )
    quarter_turns = draw(st.integers(0, 3))
    length, width = draw(st.floats(1e-6, 12.0)), draw(st.floats(1e-6, 3.0))
    fwd = (math.cos(a.heading), math.sin(a.heading))
    left = (-fwd[1], fwd[0])
    if draw(st.booleans()):
        # b's face flush against a's front face
        reach = a.length / 2.0 + (width if quarter_turns % 2 else length) / 2.0
        side = draw(st.floats(-a.width / 2.0, a.width / 2.0))
        dx, dy = reach * fwd[0] + side * left[0], reach * fwd[1] + side * left[1]
    else:
        radii = _radius(a) + math.hypot(length, width) / 2.0
        gap = draw(st.sampled_from([0.0, GUARD, -GUARD]) | st.floats(-radii, 60.0))
        bearing = draw(st.floats(-math.pi, math.pi))
        dx, dy = (radii + gap) * math.cos(bearing), (radii + gap) * math.sin(bearing)
    b = Box(a.x + dx, a.y + dy, a.heading + quarter_turns * math.pi / 2.0, length, width)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(pair=_box_pairs())
def test_broad_phase_keeps_the_axis_test_verdict(pair):
    a, b = pair
    assert obbs_overlap(a, b) == (signed_separation(a, b) > 0.0)


def test_far_pair_never_reaches_the_axis_test(monkeypatch):
    def axis_test(a, b):
        raise AssertionError("the broad phase should have rejected this pair")

    monkeypatch.setattr(geometry, "signed_separation", axis_test)
    a = Box(0.0, 0.0, 0.3, 4.5, 2.0)
    just_past = _radius(a) * 2.0 + GUARD * 1.01
    for b in (Box(40.0, -25.0, 1.2, 4.5, 2.0), Box(just_past, 0.0, 0.3, 4.5, 2.0)):
        assert not obbs_overlap(a, b)
        assert not obbs_overlap(b, a)


@settings(max_examples=300, deadline=None)
@given(
    pair=_box_pairs(),
    exponents=st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0)),
    signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
)
def test_translated_pairs_keep_the_axis_test_verdict(pair, exponents, signs):
    # Far from the origin rounding grows with the coordinates (a float's
    # spacing is 16 m at 1e17); the verdict must still be the axis test's.
    ox, oy = (sign * 10.0**e for sign, e in zip(signs, exponents))
    a, b = (Box(box.x + ox, box.y + oy, box.heading, box.length, box.width) for box in pair)
    assert obbs_overlap(a, b) == (signed_separation(a, b) > 0.0)


def test_scalar_phase_needs_the_fallback_and_the_scaled_band():
    # Face to face, the scalar value and the axis test differ in the last
    # bits, on opposite sides of 0: the scalar sign alone would be wrong.
    a = Box(34.7, 26.3, 0.1, 2.0, 2.0)
    reach = a.length / 2.0 + 3.0 / 2.0
    b = Box(a.x + reach * math.cos(0.1), a.y + reach * math.sin(0.1), 0.1, 3.0, 2.0)
    assert _scalar_separation(a, b) < 0.0 < signed_separation(a, b)
    assert obbs_overlap(a, b)
    # At 1e17 the axis test's corners round onto the centre: the two values
    # are metres apart, so a band of a fixed GUARD would be wrong too.
    c = Box(1e17, 0.0, 0.0, 4.0, 2.0)
    assert _scalar_separation(c, c) == 2.0 and signed_separation(c, c) == 0.0
    assert not obbs_overlap(c, c)


def test_agent_state_and_box_are_slotted_and_pickle():
    state = AgentState("ego", AgentClass.CAR, 1.5, -2.0, 0.25, 9.0, 4.5, 2.0, "cruise", False)
    box = state.box()
    for value in (state, box):
        assert "__slots__" in type(value).__dict__ and not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value


# --- geometry: faces, headings, impact point ---------------------------


def test_contact_faces_head_to_tail():
    a = Box(0.0, 0.0, 0.0, 4.5, 2.0)
    b = Box(4.5, 0.0, 0.0, 4.5, 2.0)
    assert contact_faces(a, b) == ("front", "rear")
    assert contact_faces(b, a) == ("rear", "front")


def test_contact_faces_perpendicular():
    a = Box(0.0, 0.0, 0.0, 4.5, 2.0)
    b = Box(0.0, 3.0, 0.0, 4.5, 2.0)
    assert contact_faces(a, b) == ("left", "right")


def test_rel_heading_folds_into_half_turn():
    assert rel_heading_deg(0.0, math.pi / 2.0) == pytest.approx(90.0)
    assert rel_heading_deg(0.0, 1.5 * math.pi) == pytest.approx(90.0)
    assert rel_heading_deg(0.0, math.pi) == pytest.approx(180.0)
    assert rel_heading_deg(0.2, 0.2) == pytest.approx(0.0)
    assert rel_heading_deg(-0.1, 0.1) == pytest.approx(math.degrees(0.2))


def test_impact_point_is_overlap_centroid():
    # axis-aligned overlap region is x in [1, 2], y in [-1, 1]
    a = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    b = Box(3.0, 0.0, 0.0, 4.0, 2.0)
    ix, iy = impact_point(a, b)
    assert (ix, iy) == (pytest.approx(1.5), pytest.approx(0.0))


def test_clip_polygon_with_itself():
    square = box_corners(Box(1.0, 1.0, 0.3, 2.0, 2.0))
    clipped = clip_convex(square, square)
    assert len(clipped) >= 3
    x, y = clipped[:, 0], clipped[:, 1]
    area = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    assert area == pytest.approx(4.0)


# --- classifier --------------------------------------------------------


def test_participants_override_geometry():
    for angle in (0.0, 45.0, 90.0, 180.0):
        assert (
            classify_collision(AgentClass.CAR, AgentClass.BICYCLE, angle, ("front", "front"))
            is CollisionClass.VEHICLE_CYCLIST
        )
        assert (
            classify_collision(AgentClass.PEDESTRIAN, AgentClass.TRUCK, angle, ("rear", "left"))
            is CollisionClass.VEHICLE_PEDESTRIAN
        )


def test_non_vehicle_pair_is_other():
    got = classify_collision(AgentClass.PEDESTRIAN, AgentClass.BICYCLE, 90.0, ("front", "left"))
    assert got is CollisionClass.OTHER


def test_t_bone_needs_angle_and_side_face():
    car = AgentClass.CAR
    assert classify_collision(car, car, 90.0, ("front", "left")) is CollisionClass.T_BONE
    assert classify_collision(car, car, 90.0, ("left", "front")) is CollisionClass.T_BONE
    assert classify_collision(car, car, 65.0, ("front", "right")) is CollisionClass.T_BONE
    assert classify_collision(car, car, 115.0, ("front", "left")) is CollisionClass.T_BONE
    # angle right, faces wrong
    assert classify_collision(car, car, 90.0, ("front", "front")) is CollisionClass.OTHER
    # faces right, angle outside the window
    assert classify_collision(car, car, 64.9, ("front", "left")) is CollisionClass.OTHER
    assert classify_collision(car, car, 115.1, ("front", "left")) is CollisionClass.OTHER


def test_rear_end_needs_shallow_angle_and_front_to_rear():
    car = AgentClass.CAR
    assert classify_collision(car, car, 0.0, ("front", "rear")) is CollisionClass.REAR_END
    assert classify_collision(car, car, 24.9, ("rear", "front")) is CollisionClass.REAR_END
    assert classify_collision(car, car, 25.0, ("front", "rear")) is CollisionClass.OTHER
    # head-on is not a rear-end however shallow the angle
    assert classify_collision(car, car, 0.0, ("front", "front")) is CollisionClass.OTHER


# --- world maps --------------------------------------------------------


def test_builtin_straight_map_geometry():
    world = builtin_map("straight")
    lane = world.lanes["main_a"]
    assert lane.length == pytest.approx(200.0)
    assert lane.point_at(50.0) == (pytest.approx(50.0), pytest.approx(0.0))
    assert lane.heading_at(123.0) == pytest.approx(0.0)
    s, d = lane.project(80.0, 1.2)
    assert (s, d) == (pytest.approx(80.0), pytest.approx(1.2))
    lane_id, s, _ = world.nearest_lane(10.0, 3.0)
    assert lane_id == "main_b"


def test_builtin_crossing_lane_graph():
    world = builtin_map("crossing")
    assert world.lanes["w_in"].successors == ("e_out",)
    assert world.lanes["w_in"].heading_at(10.0) == pytest.approx(0.0)
    assert world.lanes["s_in"].heading_at(10.0) == pytest.approx(math.pi / 2.0)


def test_unknown_builtin_map():
    with pytest.raises(MapError):
        builtin_map("atlantis")


def test_map_validation_errors(tmp_path):
    cases = [
        {"name": "m", "lanes": [{"id": "a", "width": 3.5, "centerline": [[0, 0]]}]},
        {"name": "m", "lanes": [{"id": "a", "width": 0.0, "centerline": [[0, 0], [1, 0]]}]},
        {"name": "m", "lanes": [{"id": "a", "width": 3.5, "centerline": [[0, 0], [0, 0]]}]},
    ]
    for i, doc in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(__import__("json").dumps(doc))
        with pytest.raises(MapError):
            load_map(path)


_LANE = {"id": "a", "width": 3.5, "centerline": [[0, 0], [10, 0]]}


def _write_map(tmp_path, doc):
    path = tmp_path / "m.map.json"
    path.write_text(json.dumps(doc))
    return path


def test_map_anchors_must_be_an_object(tmp_path):
    path = _write_map(tmp_path, {"lanes": [_LANE], "anchors": []})
    with pytest.raises(MapError, match="anchors"):
        load_map(path)


def test_map_anchor_value_must_be_an_object(tmp_path):
    path = _write_map(tmp_path, {"lanes": [_LANE], "anchors": {"center": 5}})
    with pytest.raises(MapError, match="anchor 'center'"):
        load_map(path)


def test_map_lane_entry_must_be_an_object(tmp_path):
    path = _write_map(tmp_path, {"lanes": [5]})
    with pytest.raises(MapError, match="lane entry must be an object"):
        load_map(path)


def test_map_lane_id_and_successors_must_be_strings(tmp_path):
    for lane in ({**_LANE, "id": [1]}, {**_LANE, "successors": 5}, {**_LANE, "successors": [[1]]}):
        path = _write_map(tmp_path, {"lanes": [lane]})
        with pytest.raises(MapError):
            load_map(path)


def test_map_file_must_be_utf8(tmp_path):
    path = tmp_path / "m.map.json"
    path.write_bytes(b'{"name": "\xff\xfe", "lanes": []}')
    with pytest.raises(MapError, match="malformed"):
        load_map(path)


# --- engine: fixture scenarios ----------------------------------------


def test_rear_end_fixture_matches_kinematics():
    # Ego cruises at 15 m/s from s=5; the lead starts 30 m ahead at 8 m/s
    # braking at 4 m/s^2, so it stops after 8 m at t=2 s.  Boxes touch when
    # the centre gap equals one car length: 30 + 8 - 15 t = 4.5, t = 2.2333.
    # The discrete engine detects the first frame with actual penetration,
    # at most one 0.05 s step later.
    scenario, trace = _fixture_trace("rear_end", "straight")
    predicted = (30.0 + 8.0**2 / (2.0 * 4.0) - 4.5) / 15.0
    assert trace.termination == "collision"
    [event] = trace.events
    assert event.classification is CollisionClass.REAR_END
    assert event.faces == ("front", "rear")
    assert (event.agent_a, event.agent_b) == ("ego", "lead")
    assert abs(event.time - predicted) <= trace.dt + 1e-9
    assert event.rel_heading_deg == pytest.approx(0.0, abs=1e-6)
    assert all(r.passed for r in check_requirements(trace, scenario))


def test_t_bone_fixture_meets_in_the_box():
    # Both cars run at 10 m/s toward the junction; front corners first meet
    # between t=3.85 and one step later.
    scenario, trace = _fixture_trace("t_bone", "crossing")
    [event] = trace.events
    assert event.classification is CollisionClass.T_BONE
    assert event.faces == ("front", "left")
    assert event.rel_heading_deg == pytest.approx(90.0, abs=1e-6)
    assert 3.85 - 1e-9 <= event.time <= 3.90 + 1e-9
    assert all(r.passed for r in check_requirements(trace, scenario))


def test_cyclist_fixture_dart_is_triggered():
    scenario, trace = _fixture_trace("cyclist", "crossing")
    [event] = trace.events
    assert event.classification is CollisionClass.VEHICLE_CYCLIST
    assert {event.agent_a, event.agent_b} == {"ego", "rider"}
    # the rider holds still until ego comes within the trigger distance
    track = _track(trace, "rider")
    assert track[0].speed == 0.0
    moved = [i for i, s in enumerate(track) if s.speed > 0]
    assert moved and moved[0] > 20
    assert all(r.passed for r in check_requirements(trace, scenario))


# --- engine: stepping, triggers, termination ---------------------------


def _run_script(text, map_name="straight", seed=0, **cfg):
    ast, diags = compile_script(text)
    assert ast is not None and diags == []
    scenario = sample_parameters(ast, seed)
    return scenario, run(scenario, builtin_map(map_name), SimConfig(**cfg))


def test_time_trigger_latches_brake():
    _, trace = _run_script(
        "behavior EaseOff(rate):\n"
        "    brake at rate when time above 1.0\n"
        "ego = new Car on lane main_a at 10.0 with speed 12.0 with behavior EaseOff(3.0)\n"
        "terminate when time above 6.0\n"
    )
    speeds = [s.speed for s in _track(trace, "ego")]
    # constant until the trigger time (frame 20 sits at t=1.0)
    assert all(v == pytest.approx(12.0) for v in speeds[:21])
    # then monotone decay at rate*dt per frame down to zero, staying there
    assert speeds[21] == pytest.approx(12.0 - 3.0 * 0.05)
    stop = 21 + math.ceil(12.0 / (3.0 * 0.05)) - 1
    assert all(b < a for a, b in zip(speeds[20:stop], speeds[21 : stop + 1]))
    assert all(v == 0.0 for v in speeds[stop + 1 :])


def test_frame_times_are_multiples_not_sums():
    _, trace = _run_script(
        "ego = new Car on lane main_a at 10.0 with speed 5.0\n"
        "terminate when time above 2.0\n"
    )
    for k in range(len(trace.frames)):
        assert trace.frame_time(k) == k * 0.05
    assert trace.duration == (len(trace.frames) - 1) * 0.05


def test_script_time_termination_is_inclusive():
    _, trace = _run_script(
        "ego = new Car on lane main_a at 10.0 with speed 5.0\n"
        "terminate when time above 1.0\n"
    )
    assert trace.termination == "script"
    assert len(trace.frames) == 21  # frames 0..20, last at exactly t=1.0


def test_timeout_when_nothing_happens():
    _, trace = _run_script(
        "ego = new Car on lane main_a at 10.0 with speed 5.0\n",
        max_duration=2.0,
    )
    assert trace.termination == "timeout"
    assert len(trace.frames) == 41


def test_collision_stop_false_freezes_participants():
    ast, diags = compile_script((FIXTURES / "rear_end.scn").read_text())
    assert ast is not None and diags == []
    scenario = sample_parameters(ast, 0)
    trace = run(scenario, builtin_map("straight"), SimConfig(collision_stop=False))
    assert trace.termination == "script"
    assert len(trace.events) == 1  # contact latched, not re-reported
    frame = trace.events[0].frame
    for name in ("ego", "lead"):
        track = _track(trace, name)
        after = track[frame + 1 :]
        assert all(s.speed == 0.0 for s in after)
        assert all((s.x, s.y) == (after[0].x, after[0].y) for s in after)


def test_distance_termination():
    _, trace = _run_script(
        "ego = new Car on lane main_a at 10.0 with speed 10.0\n"
        "goal = new Car on lane main_a at 60.0 with speed 0.0\n"
        "terminate when distance from goal to ego below 20.0\n",
        max_duration=20.0,
    )
    assert trace.termination == "script"
    last = {s.name: s for s in trace.frames[-1]}
    gap = math.hypot(last["goal"].x - last["ego"].x, last["goal"].y - last["ego"].y)
    assert gap < 20.0
    prev = {s.name: s for s in trace.frames[-2]}
    assert math.hypot(prev["goal"].x - prev["ego"].x, prev["goal"].y - prev["ego"].y) >= 20.0


def test_cross_left_and_right_offsets():
    scenario, trace = _run_script(
        "behavior GoLeft(v):\n"
        "    cross left at v when time above 0.5\n"
        "behavior GoRight(v):\n"
        "    cross right at v when time above 0.5\n"
        "ego = new Car on lane main_a at 100.0 with speed 0.0\n"
        "l = new Pedestrian at (0.0, -10.0) facing 0.0 with behavior GoLeft(1.5)\n"
        "r = new Pedestrian at (0.0, 10.0) facing 0.0 with behavior GoRight(1.5)\n"
        "terminate when time above 3.0\n",
        max_duration=5.0,
    )
    left = _track(trace, "l")[-1]
    right = _track(trace, "r")[-1]
    assert left.heading == pytest.approx(math.pi / 2.0)
    assert left.y > -10.0 and left.x == pytest.approx(0.0)
    assert right.heading == pytest.approx(-math.pi / 2.0)
    assert right.y < 10.0 and right.x == pytest.approx(0.0)


def test_lane_follower_stays_on_centerline():
    _, trace = _run_script(
        "behavior Cruise(v):\n"
        "    follow lane at v\n"
        "ego = new Car on lane main_a at 10.0 with speed 12.0 with behavior Cruise(12.0)\n"
        "terminate when time above 5.0\n"
    )
    for state in _track(trace, "ego"):
        assert abs(state.y) < 1e-6
        assert abs(state.heading) < 1e-6


def test_lane_follower_continues_onto_successor():
    _, trace = _run_script(
        "behavior Through(v):\n"
        "    follow lane at v\n"
        "ego = new Car on lane w_in at 50.0 with speed 10.0 with behavior Through(10.0)\n"
        "terminate when time above 4.0\n",
        map_name="crossing",
    )
    last = _track(trace, "ego")[-1]
    # started 10 m before the junction, still rolling 30 m later on e_out
    assert last.x > 10.0
    assert last.speed == pytest.approx(10.0)


def test_end_of_lane_without_successor_stops():
    _, trace = _run_script(
        "behavior Cruise(v):\n"
        "    follow lane at v\n"
        "ego = new Car on lane main_a at 195.0 with speed 10.0 with behavior Cruise(10.0)\n",
        max_duration=3.0,
    )
    last = _track(trace, "ego")[-1]
    assert last.speed == 0.0
    assert last.behavior_state == "stopped"
    assert last.x == pytest.approx(200.0)


def test_initial_overlap_raises_placement_error():
    ast, diags = compile_script(
        "ego = new Car at (0.0, 0.0)\nother = new Car at (1.0, 0.0)\n"
    )
    assert ast is not None and diags == []
    scenario = sample_parameters(ast, 0)
    with pytest.raises(PlacementError, match="ego"):
        run(scenario, builtin_map("straight"))


def test_unknown_lane_is_a_sample_error():
    ast, diags = compile_script("ego = new Car on lane zz_9 at 5.0 with speed 3.0\n")
    assert ast is not None and diags == []
    with pytest.raises(SampleError, match="zz_9"):
        run(sample_parameters(ast, 0), builtin_map("straight"))


def test_position_beyond_lane_end_is_a_sample_error():
    ast, diags = compile_script("ego = new Car on lane main_a at 900.0 with speed 3.0\n")
    assert ast is not None and diags == []
    with pytest.raises(SampleError, match="900"):
        run(sample_parameters(ast, 0), builtin_map("straight"))


def test_bad_sim_config_rejected():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(max_duration=-1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=math.nan)
    with pytest.raises(ValueError):
        SimConfig(max_duration=math.inf)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-9)  # 3e10 steps of the default 30 s horizon
    assert SimConfig(dt=0.0001, max_duration=10.0).max_duration == 10.0  # the cap exactly


def test_identical_runs_are_bitwise_equal():
    _, first = _fixture_trace("t_bone", "crossing")
    _, second = _fixture_trace("t_bone", "crossing")
    assert trace_to_dict(first) == trace_to_dict(second)
    for fa, fb in zip(first.frames, second.frames):
        for sa, sb in zip(fa, fb):
            assert (sa.x, sa.y, sa.heading, sa.speed) == (sb.x, sb.y, sb.heading, sb.speed)


def test_frames_hold_their_own_states(monkeypatch):
    live = []

    def instantiate(scenario, world):
        states, runtimes = real_instantiate(scenario, world)
        live.extend(states)
        return states, runtimes

    real_instantiate = engine._instantiate
    monkeypatch.setattr(engine, "_instantiate", instantiate)
    _, trace = _fixture_trace("t_bone", "crossing")
    ids = [id(s) for frame in trace.frames for s in frame]
    assert len(set(ids)) == len(ids)
    assert not set(ids) & {id(s) for s in live}
    before = trace_to_dict(trace)
    for state in live:
        state.x, state.speed, state.active, state.behavior_state = 1e9, -1.0, False, "moved"
    assert trace_to_dict(trace) == before


# The library scripts on the maps perfbench's script-screen pairs them with.
LIBRARY_MAPS = (
    ("rear_end.scn", "straight"),
    ("t_bone.scn", "crossing"),
    ("cyclist.scn", "crossing"),
    ("ped_occluded.scn", "crossing"),
    ("cut_in.scn", "straight"),
    ("intersection.scn", "crossing"),
    ("wet_lane_change.scn", "straight"),
)


def test_library_traces_match_the_golden_digest(tmp_path):
    # 280 traces, byte for byte: any change to the simulator's arithmetic,
    # or to the verdict of its collision test, moves this digest.
    digest = hashlib.sha256()
    path = tmp_path / "trace.json"
    for script, map_name in LIBRARY_MAPS:
        ast, diags = compile_script((LIBRARY / script).read_text())
        assert ast is not None and diags == []
        world = builtin_map(map_name)
        for scenario in sample_variations(ast, 20, base_seed=5):
            for collision_stop in (True, False):
                write_trace_json(run(scenario, world, SimConfig(collision_stop=collision_stop)), path)
                digest.update(path.read_bytes())
    assert digest.hexdigest() == "c0880e55fa4369a187b706e39570af325a4bb05dc7dc290df0f956858865e97d"


# --- trace serialization -----------------------------------------------


def test_trace_json_round_trip_is_exact(tmp_path):
    _, trace = _fixture_trace("rear_end", "straight")
    write_trace_json(trace, tmp_path / "t.json")
    from_json = read_trace_json(tmp_path / "t.json")
    assert trace_to_dict(from_json) == trace_to_dict(trace)
    assert from_json.events[0].classification is CollisionClass.REAR_END
