"""Collision geometry, the classifier, maps, and the fixed-step engine."""

import hashlib
import json
import math
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.dsl import compile_script
from scenekit.dsl.nodes import ActionKind, AgentClass
from scenekit.dsl.sampler import (
    CAbsolute,
    COnLane,
    ConcreteBehavior,
    ConcreteObject,
    ConcreteScenario,
    CRelative,
    CTrigger,
    SampleError,
    sample_parameters,
    sample_variations,
)
from scenekit.render.raster import box_corners
from scenekit.sim import engine, geometry
from scenekit.sim.classify import CollisionClass, classify_collision
from scenekit.sim.engine import AgentState, CollisionEvent, PlacementError, SimConfig, run
from scenekit.sim.geometry import (
    FACES,
    GUARD,
    Box,
    contact_faces,
    impact_point,
    obbs_overlap,
    points_in_box,
    rel_heading_deg,
    signed_separation,
)
from scenekit.sim.geometry import _clip, _corner_points, _scalar_separation
from scenekit.sim.requirements import check_requirements
from scenekit.sim.traceio import read_trace_json, trace_json_bytes, trace_to_dict
from scenekit.sim.worldmap import MAX_WORLD_COORD, Lane, MapError, WorldMap, builtin_map, load_map

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
    # Along a box 1e16 m long a float's spacing is 2 m: for a small box at
    # its front face the two values are metres apart, again on opposite
    # sides of 0, so a band of a fixed GUARD would be wrong too.
    c = Box(0.0, 0.0, 0.5, 1e16, 2.0)
    d = Box(float(round(5e15 * math.cos(0.5))), float(round(5e15 * math.sin(0.5))), 0.5, 1.0, 1.0)
    assert _scalar_separation(c, d) == -1.0 and signed_separation(c, d) == 1.0
    assert obbs_overlap(c, d)


def test_far_pairs_keep_their_separation():
    # Past LOCAL_BEYOND the axis test takes both boxes about a's centre, so
    # a pair keeps its separation wherever it lies.  At y = -5.6e15 a float's
    # spacing is 1 m: on absolute coordinates this pair, 0.17 m apart,
    # overlapped by 0.5 m.
    a = Box(-1.628173622722739, -5623413251903490.0, 3.8207963267948966, 0.5, 1.5)
    b = Box(-1.0, -5623413251903491.0, 2.25, 0.5, 0.5)
    near_a, near_b = Box(a.x, 0.0, a.heading, a.length, a.width), Box(b.x, -1.0, b.heading, b.length, b.width)
    assert signed_separation(a, b) == signed_separation(near_a, near_b) < 0.0
    assert not obbs_overlap(a, b)
    # at 1e17 (spacing 16 m) a box still overlaps itself by its width
    c = Box(1e17, 0.0, 0.0, 4.0, 2.0)
    assert _scalar_separation(c, c) == signed_separation(c, c) == 2.0
    assert obbs_overlap(c, c)


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
    square = _corner_points(Box(1.0, 1.0, 0.3, 2.0, 2.0))
    clipped = np.array(_clip(square, square))
    assert len(clipped) >= 3
    x, y = clipped[:, 0], clipped[:, 1]
    area = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    assert area == pytest.approx(4.0)


# --- geometry: the exact oracle for the collision attributes ------------
# `impact_point` and `contact_faces` are plain float arithmetic; these tests
# judge them against exact rational arithmetic on the same float inputs.

EPS = sys.float_info.epsilon


def _bits(values):
    return [float(v).hex() for v in values]


def _exact_centroid(poly):
    """(cx, cy, area) of a float polygon in exact arithmetic; below 1e-12 of
    area the centroid is the vertex mean, as `_centroid` takes it."""
    pts = [(Fraction(x), Fraction(y)) for x, y in poly]
    after = pts[1:] + pts[:1]
    cross = [x * yn - xn * y for (x, y), (xn, yn) in zip(pts, after)]
    area = sum(cross) / 2
    if abs(area) < Fraction(1e-12):
        return sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts), area
    cx = sum((x + xn) * c for (x, _), (xn, _), c in zip(pts, after, cross)) / (6 * area)
    cy = sum((y + yn) * c for (_, y), (_, yn), c in zip(pts, after, cross)) / (6 * area)
    return cx, cy, area


def _assert_near_the_exact_centroid(a, b):
    """`impact_point` within rounding of the exact centroid of the same
    clipped float polygon.

    Summed about the first vertex, each of the n shoelace terms rounds by a
    few eps * extent**2, extent being the polygon's reach from that vertex,
    so the centroid errs by a few times n * eps * extent * (1 + extent**2 /
    |area|), plus the last rounding of the result: extent**2 / |area| is the
    condition number of a sliver's centroid.  Nothing in the bound grows
    with the polygon's distance from the origin.  A polygon whose area lies
    within rounding of the 1e-12 floor may take either branch; it is left
    out.
    """
    poly = _clip(_corner_points(a), _corner_points(b))
    ix, iy = impact_point(a, b)
    if len(poly) < 3:
        assert (ix, iy) == ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
        return
    cx, cy, area = _exact_centroid(poly)
    x0, y0 = poly[0]
    extent = max(max(abs(x - x0), abs(y - y0)) for x, y in poly)
    n = len(poly)
    if abs(abs(area) - Fraction(1e-12)) <= 8 * n * EPS * extent**2:
        return
    condition = 1.0 if abs(area) < Fraction(1e-12) else 1.0 + extent**2 / float(abs(area))
    for got, want in ((ix, cx), (iy, cy)):
        bound = 8 * n * EPS * extent * condition + math.ulp(got)
        assert abs(Fraction(got) - want) <= Fraction(bound), (a, b, float(Fraction(got) - want), bound)


@settings(max_examples=400, deadline=None)
@given(
    pair=_box_pairs(),
    pull=st.floats(0.0, 1.0),
    turn=st.just(0.0) | st.floats(-math.pi, math.pi),
    offset=st.tuples(*[st.just(0.0) | st.floats(-MAX_WORLD_COORD, MAX_WORLD_COORD)] * 2),
)
def test_impact_point_matches_the_exact_centroid(pair, pull, turn, offset):
    # `pull` draws b's centre toward a's and `turn` spins b about it: deep
    # overlaps of up to 8 vertices besides _box_pairs's face-to-face slivers;
    # `offset` moves the pair anywhere within the world bound
    a, b = pair
    b = Box(a.x + pull * (b.x - a.x), a.y + pull * (b.y - a.y), b.heading + turn, b.length, b.width)
    ox, oy = offset
    a, b = (Box(box.x + ox, box.y + oy, box.heading, box.length, box.width) for box in (a, b))
    _assert_near_the_exact_centroid(a, b)


@pytest.mark.parametrize(
    "centre", [(0.0, 0.0), (10.0, 10.0), (1234.5, -678.25), (1e6, 1e6), (MAX_WORLD_COORD, -MAX_WORLD_COORD)]
)
def test_eight_vertex_overlap_matches_the_oracle(centre):
    # Equal squares, one turned 45 degrees: an octagon about their common
    # centre.  Summed on absolute coordinates, its centroid at (1e6, 1e6)
    # came out 17 m away, outside both boxes.
    a = Box(*centre, 0.0, 2.0, 2.0)
    b = Box(*centre, math.pi / 4.0, 2.0, 2.0)
    assert len(_clip(_corner_points(a), _corner_points(b))) == 8
    _assert_near_the_exact_centroid(a, b)
    point = np.array([impact_point(a, b)])
    assert points_in_box(point, a)[0] and points_in_box(point, b)[0]
    if centre == (0.0, 0.0):
        assert impact_point(a, b) == (0.0, 0.0)


def test_sliver_overlap_takes_the_vertex_mean_as_the_oracle_does():
    # 1e-13 m of a 2 m face: area 2e-13, below the 1e-12 floor
    a = Box(0.0, 0.0, 0.0, 4.0, 2.0)
    b = Box(4.0 - 1e-13, 0.0, 0.0, 4.0, 2.0)
    poly = _clip(_corner_points(a), _corner_points(b))
    assert len(poly) >= 3 and 0 < abs(_exact_centroid(poly)[2]) < Fraction(1e-12)
    _assert_near_the_exact_centroid(a, b)
    assert impact_point(a, b) == (pytest.approx(2.0), pytest.approx(0.0))


def _exact_facing(box, other):
    """The face `_facing` picks, decided in exact arithmetic on the same
    floats; None when a comparison lies within rounding (8 eps) of the
    1e-12 tie margin, where the float code may go either way.

    dot / norm > best / norm + 1e-12 is compared squared, on the
    unnormalized dot products, so no square root is taken.
    """
    dx, dy = Fraction(other.x) - Fraction(box.x), Fraction(other.y) - Fraction(box.y)
    norm2 = dx * dx + dy * dy
    if norm2 == 0:
        return "front"
    c, s = Fraction(math.cos(box.heading)), Fraction(math.sin(box.heading))
    front, left = c * dx + s * dy, c * dy - s * dx
    below, above = (Fraction(1e-12 + k * 8 * EPS) ** 2 * norm2 for k in (-1, 1))
    best, best_dot = "front", front
    for face, dot in zip(FACES[1:], (-front, left, -left)):
        lead = dot - best_dot
        if lead > 0 and below <= lead * lead <= above:
            return None
        if lead > 0 and lead * lead > above:
            best, best_dot = face, dot
    return best


@pytest.mark.parametrize("heading", [-2.4, 0.8, 2.3])
def test_faces_at_the_tie_margin_match_the_oracle(heading):
    # b's centre 45 degrees left of a's heading: front and left face it
    # equally, and a tiny move across the bearing makes one lead by the
    # 1e-12 tie margin.  Between the last y exact arithmetic decides one way
    # and the first it decides the other, rounding may go either way; from
    # each of those two ys, walk 64 floats outward: the float code picks the
    # exact face at every one.
    a = Box(1.5, -0.5, heading, 4.5, 2.0)
    bx = a.x + 5.0 * math.cos(heading + math.pi / 4.0)
    by = a.y + 5.0 * math.sin(heading + math.pi / 4.0)

    def oracle(y):
        return _exact_facing(a, Box(bx, y, 0.0, 1.0, 1.0))

    def last_alike(start, end):
        while math.nextafter(start, end) != end:
            mid = (start + end) / 2.0
            start, end = (mid, end) if oracle(mid) == oracle(start) else (start, mid)
        return start

    low, high = by - 1e-9, by + 1e-9
    assert {oracle(low), oracle(high)} == {"front", "left"}
    for edge, outward in ((last_alike(low, high), -math.inf), (last_alike(high, low), math.inf)):
        face = oracle(edge)
        for _ in range(64):
            assert oracle(edge) == face and contact_faces(a, Box(bx, edge, 0.0, 1.0, 1.0))[0] == face, edge
            edge = math.nextafter(edge, outward)


# --- engine: collision detection ---------------------------------------


def _brute_force_detect(states, contacted, now, frame):
    """Every active pair in declaration order through `obbs_overlap`."""
    events = []
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            box_a, box_b = a.box(), b.box()
            if not (a.active and b.active) or (a.name, b.name) in contacted or not obbs_overlap(box_a, box_b):
                continue
            contacted.add((a.name, b.name))
            faces = contact_faces(box_a, box_b)
            rel = rel_heading_deg(a.heading, b.heading)
            impact = impact_point(box_a, box_b)
            klass = classify_collision(a.klass, b.klass, rel, faces)
            events.append(CollisionEvent(now, frame, a.name, b.name, impact, rel, faces, klass))
    return events


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(_box_pairs(), min_size=1, max_size=3),
    data=st.data(),
)
def test_detect_finds_the_events_of_a_brute_force_loop(pairs, data):
    boxes = [box for pair in pairs for box in pair]
    states = [
        AgentState(
            f"agent{i}",
            data.draw(st.sampled_from(AgentClass)),
            box.x,
            box.y,
            box.heading,
            1.0,
            box.length,
            box.width,
            "cruise",
            data.draw(st.booleans() | st.just(True)),
        )
        for i, box in enumerate(boxes)
    ]
    names = [(a.name, b.name) for i, a in enumerate(states) for b in states[i + 1 :]]
    contacted = set(data.draw(st.lists(st.sampled_from(names), max_size=2)))
    expected_contacted = set(contacted)
    expected = _brute_force_detect(states, expected_contacted, 1.25, 25)
    assert engine._detect(engine._pairs(states), contacted, 1.25, 25) == expected
    assert contacted == expected_contacted


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


def _segment_at_by_loop(lane, s):
    """The segment lookup as a loop over the segments: the reference for
    `Lane._segment_at`."""
    s = min(max(s, 0.0), lane.length)
    for i in range(1, len(lane.cum_s)):
        if s <= lane.cum_s[i]:
            return i - 1, s - lane.cum_s[i - 1]
    return len(lane.seg_lengths) - 1, lane.seg_lengths[-1]  # s is NaN


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from([1e-150, 1e-3, 1.0, 7.5, 1e6, 1e12]), st.floats(-math.pi, math.pi)),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_segment_lookup_matches_the_loop(steps, data):
    # segments from 1e-150 m (which vanishes beside the others in cum_s) to
    # 1e12 m; s at every cum_s value and its neighbours, past both ends, NaN
    points = [(0.0, 0.0)]
    for d, heading in steps:
        x, y = points[-1]
        points.append((x + d * math.cos(heading), y + d * math.sin(heading)))
    try:
        lane = Lane("a", 3.5, tuple(points))
    except MapError:  # a segment too short
        return
    near = [v for c in lane.cum_s for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))]
    s_values = near + [-0.0, -1.0, math.inf, -math.inf, math.nan]
    s_values += data.draw(st.lists(st.floats(-1.0, lane.length * 1.1), max_size=5))
    for s in s_values:
        i, into = lane._segment_at(s)
        want_i, want_into = _segment_at_by_loop(lane, s)
        assert (i, _bits([into])) == (want_i, _bits([want_into])), s


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


@pytest.mark.parametrize(
    "lane,anchor,named",
    [
        ({**_LANE, "width": 10**400}, {}, "lane 'a' width"),
        ({**_LANE, "centerline": [[-(10**400), 0], [10, 0]]}, {}, "lane 'a' centerline"),
        (_LANE, {"x": 0, "y": 0, "heading_deg": 10**400}, "anchor 'c' heading_deg"),
    ],
    ids=["width", "centerline-x", "anchor-heading"],
)
def test_map_int_past_the_float_range_is_map_error(tmp_path, lane, anchor, named):
    path = _write_map(tmp_path, {"lanes": [lane], "anchors": {"c": anchor} if anchor else {}})
    with pytest.raises(MapError, match=named):
        load_map(path)


@pytest.mark.parametrize(
    "lane,anchor,named",
    [
        ({**_LANE, "centerline": [[1e200, 0], [1e200, 100]]}, {}, "lane 'a' centerline: point (1e+200, 0)"),
        ({**_LANE, "centerline": [[0, 0], [0, -1.000001e12]]}, {}, "lane 'a' centerline: point (0, -1e+12)"),
        (_LANE, {"x": 0, "y": 2e12}, "anchor 'c': point (0, 2e+12)"),
    ],
    ids=["far-lane", "lane-end-just-past", "far-anchor"],
)
def test_map_point_past_the_world_bound_is_map_error(tmp_path, lane, anchor, named):
    path = _write_map(tmp_path, {"lanes": [lane], "anchors": {"c": anchor} if anchor else {}})
    with pytest.raises(MapError, match=re.escape(named)):
        load_map(path)


def test_map_points_at_the_world_bound_load(tmp_path):
    edge = MAX_WORLD_COORD
    lane = {**_LANE, "centerline": [[-edge, -edge], [edge, edge]]}
    world = load_map(_write_map(tmp_path, {"lanes": [lane], "anchors": {"c": {"x": edge, "y": -edge}}}))
    assert world.lanes["a"].centerline[1] == (edge, edge) and world.anchors["c"].x == edge


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


def _loop_world(bulge: float = 0.0) -> WorldMap:
    """Four lanes round a 50 m square, a -> b -> c -> d -> a.  With a bulge,
    each lane has three segments, its two inner points standing that far
    left and right of the square's side."""
    corners = [(0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (0.0, 50.0)]
    ids = "abcd"
    lanes = {}
    for k, lane_id in enumerate(ids):
        (x0, y0), (x1, y1) = corners[k], corners[(k + 1) % 4]
        points = [(x0, y0), (x1, y1)]
        if bulge:
            ux, uy = (x1 - x0) / 50.0, (y1 - y0) / 50.0
            points[1:1] = [
                (x0 + 20.0 * ux - bulge * uy, y0 + 20.0 * uy + bulge * ux),
                (x0 + 35.0 * ux + bulge * uy, y0 + 35.0 * uy - bulge * ux),
            ]
        lanes[lane_id] = Lane(lane_id, 3.5, tuple(points), (ids[(k + 1) % 4],))
    return WorldMap("loop", lanes)


def test_follow_round_a_loop_takes_s_modulo_its_length():
    world = _loop_world()
    assert engine._follow(world, "a", 205.0) == ("a", 5.0)  # one turn, lane by lane
    assert engine._follow(world, "a", 330.0) == ("c", 30.0)
    # 1e200 - 50 == 1e200: walking lane by lane would never end
    assert engine._follow(world, "a", 1e200) == engine._follow(world, "a", 1e200 % 200.0)
    lane_id, s = engine._follow(world, "a", math.inf)
    assert lane_id in world.lanes and math.isnan(s)


def test_lane_with_a_segment_whose_square_overflows_is_refused():
    Lane("a", 3.5, ((0.0, 0.0), (1e154, 0.0)))  # squares to 1e308
    with pytest.raises(MapError, match="too long"):
        Lane("a", 3.5, ((0.0, 0.0), (1e200, 0.0)))
    with pytest.raises(MapError, match="too long"):
        Lane("a", 3.5, ((-1e308, 0.0), (1e308, 0.0)))  # the difference is already inf


def test_lane_with_a_segment_whose_square_is_not_a_normal_float_is_refused():
    Lane("a", 3.5, ((0.0, 0.0), (1e-150, 0.0)))  # squares to 1e-300
    for end in ((0.0, 0.0), (1e-160, 0.0), (0.0, 1.777873076844156e-166)):
        with pytest.raises(MapError, match="too short"):
            Lane("a", 3.5, ((0.0, 0.0), end))


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


def test_lane_behavior_on_a_map_without_lanes_is_a_sample_error():
    ast, diags = compile_script(
        "behavior Cruise(v):\n    follow lane at v\n"
        "ego = new Car at (0.0, 0.0) with speed 5.0 with behavior Cruise(5.0)\n"
    )
    assert ast is not None and diags == []
    with pytest.raises(SampleError, match="no lane to follow"):
        run(sample_parameters(ast, 0), WorldMap("empty", {}))


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


# --- engine: any scenario the loaders accept -----------------------------

FAR = MAX_WORLD_COORD
# Where a map or script may put a point, often at the bound itself.
COORDS = st.floats(-FAR, FAR) | st.sampled_from([-FAR, FAR, math.nextafter(FAR, 0.0), 0.0])
BIGGEST = sys.float_info.max
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-BIGGEST, BIGGEST, -1e154, 1e154])
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.sampled_from([BIGGEST, 5e-324])


@st.composite
def _limit_worlds(draw):
    """A builtin map, a loop of multi-segment lanes, a map with no lanes, or
    one lane of up to three segments near the world bound, maybe its own
    successor."""
    kind = draw(st.sampled_from(["straight", "crossing", "loop", "empty", "far"]))
    if kind == "loop":
        return _loop_world(bulge=0.5)
    if kind == "empty":
        return WorldMap("empty", {})
    if kind == "far":
        points = draw(st.lists(st.tuples(COORDS, COORDS), min_size=2, max_size=4))
        successors = draw(st.sampled_from([(), ("far",)]))
        try:
            return WorldMap("far", {"far": Lane("far", 3.5, tuple(points), successors)})
        except MapError:  # a segment too short
            return WorldMap("empty", {})
    return builtin_map(kind)


def _limit_triggers(names):
    return (
        st.none()
        | st.builds(CTrigger, st.just("time"), value=FINITE)
        | st.builds(CTrigger, st.just("distance"), st.sampled_from(names), FINITE)
    )


@st.composite
def _limit_objects(draw, world, names):
    objects = []
    for i, name in enumerate(names):
        placement = draw(st.sampled_from(["absolute", "relative", "lane"]))
        if placement == "lane" and world.lanes:
            lane_id = draw(st.sampled_from(sorted(world.lanes)))
            length = world.lanes[lane_id].length
            ends = [0.0, length, math.nextafter(length, 0.0), math.nextafter(length, math.inf)]
            spatial = COnLane(lane_id, draw(st.floats(0.0, length) | st.sampled_from(ends)))
        elif placement == "relative" and i:
            kind = draw(st.sampled_from(["ahead", "behind", "left", "right"]))
            spatial = CRelative(kind, draw(st.sampled_from(names[:i])), draw(FINITE))
        else:
            spatial = CAbsolute(draw(COORDS), draw(COORDS), draw(FINITE))
        klass = draw(st.sampled_from(AgentClass))
        dims = draw(st.just(klass.default_dims) | st.tuples(POSITIVE, POSITIVE))
        behavior = None
        kind = draw(st.none() | st.sampled_from(ActionKind))
        if kind is not None:
            moves = kind not in (ActionKind.IDLE, ActionKind.STOP)
            directions = {ActionKind.CROSS: ["left", "right", "forward"], ActionKind.CUT_IN: ["left", "right"]}
            behavior = ConcreteBehavior(
                kind,
                (draw(FINITE),) if moves else (),
                draw(st.sampled_from(directions[kind])) if kind in directions else None,
                draw(_limit_triggers(names)),
            )
        objects.append(ConcreteObject(name, klass, spatial, draw(FINITE), dims, behavior))
    return tuple(objects)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_at_the_loader_limits_raises_only_its_own_errors(data):
    # speeds, dims, rates and trigger values anywhere in the float range, s at
    # a lane's end, placements at the world bound and far beyond it
    world = data.draw(_limit_worlds())
    names = ["ego", "b", "c"][: data.draw(st.integers(1, 3))]
    scenario = ConcreteScenario(
        seed=0,
        params=(),
        objects=data.draw(_limit_objects(world, names)),
        termination=data.draw(_limit_triggers(names)),
    )
    dt = data.draw(st.floats(1e-4, 10.0))
    config = SimConfig(dt, dt * data.draw(st.integers(1, 60)), data.draw(st.booleans()))
    try:
        trace = run(scenario, world, config)
    except (SampleError, PlacementError):
        return
    assert len(trace.frames) <= round(config.max_duration / config.dt) + 1


@settings(max_examples=300, deadline=None)
@given(angle=FINITE | st.sampled_from([k * math.pi for k in range(-4, 5)] + [math.inf, -math.inf]))
def test_wrap_folds_as_fmod_does_and_takes_infinity_to_nan(angle):
    if math.isinf(angle):
        assert math.isnan(engine._wrap(angle))  # math.fmod would raise
        return
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    assert _bits([engine._wrap(angle)]) == _bits([a - math.pi])


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


def test_library_traces_match_the_golden_digest():
    # 280 traces, byte for byte: any change to the simulator's arithmetic,
    # or to the verdict of its collision test, moves this digest.
    digest = hashlib.sha256()
    for script, map_name in LIBRARY_MAPS:
        ast, diags = compile_script((LIBRARY / script).read_text())
        assert ast is not None and diags == []
        world = builtin_map(map_name)
        for scenario in sample_variations(ast, 20, base_seed=5):
            for collision_stop in (True, False):
                trace = run(scenario, world, SimConfig(collision_stop=collision_stop))
                digest.update(trace_json_bytes(trace))
    assert digest.hexdigest() == "b4518593f5c4917734a83258770eb39b1bf70560df4b1b000dfa08f9840b4f24"


# Scripts for the engine paths the library scripts never take, each with its
# map and the steps (dt) it runs at.
ENGINE_PATH_SCRIPTS = (
    # idle and stop, an agent with no behavior, relative placements ahead,
    # behind, left and right, terminate on distance
    (
        "param wait = Range(0.5, 1.5)\n"
        "param gap = Range(30.0, 40.0)\n"
        "behavior Rest():\n    idle\n"
        "behavior Halt(t):\n    stop when time above t\n"
        "behavior Cruise(v):\n    follow lane at v\n"
        "ego = new Car on lane main_a at 10.0 with speed 9.0 with behavior Cruise(9.0)\n"
        "parked = new Truck ahead of ego by gap\n"
        "rider = new Bicycle behind ego by 12.0 with speed 4.0\n"
        "walker = new Pedestrian left of ego by 6.0 with behavior Rest()\n"
        "halter = new Car right of ego by 4.0 with speed 6.0 with behavior Halt(wait)\n"
        "terminate when distance from parked to ego below 7.0\n",
        "straight",
        (0.05,),
    ),
    # cross left, right and forward; w_in onto its successor e_out; terminate on time
    (
        "param walk = Range(1.2, 2.0)\n"
        "behavior GoLeft(v):\n    cross left at v when time above 0.5\n"
        "behavior GoRight(v):\n    cross right at v when distance to ego below 15.0\n"
        "behavior GoAhead(v):\n    cross forward at v\n"
        "behavior Through(v):\n    follow lane at v\n"
        "ego = new Car on lane w_in at 30.0 with speed 10.0 with behavior Through(10.0)\n"
        "a = new Pedestrian at (8.0, -6.0) facing 0.0 with behavior GoLeft(walk)\n"
        "b = new Pedestrian at (-5.0, 4.0) facing 180.0 with behavior GoRight(walk)\n"
        "c = new Bicycle at (20.0, 8.0) facing -90.0 with behavior GoAhead(3.0)\n"
        "terminate when time above 6.0\n",
        "crossing",
        (0.05, 0.1),
    ),
    # braking to zero; the end of a lane with no successor; timeout
    (
        "param rate = Range(2.0, 5.0)\n"
        "behavior Cruise(v):\n    follow lane at v\n"
        "behavior Ease(r):\n    brake at r when time above 0.5\n"
        "ego = new Car on lane main_a at 170.0 with speed 12.0 with behavior Cruise(12.0)\n"
        "slow = new Car on lane main_b at 150.0 with speed 8.0 with behavior Ease(rate)\n",
        "straight",
        (0.02,),
    ),
    # cut in left and right up to the merge; two contacts when contacts do
    # not stop the run
    (
        "param rate = Range(1.2, 2.0)\n"
        "behavior Cruise(v):\n    follow lane at v\n"
        "behavior InLeft(r):\n    cut in left at r when time above 0.5\n"
        "behavior InRight(r):\n    cut in right at r when distance to ego below 16.0\n"
        "ego = new Car on lane main_a at 5.0 with speed 14.0 with behavior Cruise(14.0)\n"
        "lefty = new Car on lane main_a at 100.0 with speed 10.0 with behavior InLeft(rate)\n"
        "righty = new Car on lane main_b at 20.0 with speed 12.0 with behavior InRight(rate)\n"
        "far = new Truck on lane main_b at 160.0\n"
        "follower = new Car behind far by 30.0 with speed 10.0 with behavior Cruise(10.0)\n"
        "terminate when time above 10.0\n",
        "straight",
        (0.05,),
    ),
    # laps of a loop of three-segment lanes, one fast enough to look more
    # than a lap ahead
    (
        "param v = Range(8.0, 14.0)\n"
        "behavior Lap(v):\n    follow lane at v\n"
        "ego = new Car on lane a at 10.0 with speed 10.0 with behavior Lap(v)\n"
        "other = new Car on lane c at 35.0 with speed 12.0 with behavior Lap(12.0)\n"
        "rocket = new Car on lane b at 5.0 with speed 500.0 with behavior Lap(500.0)\n"
        "terminate when time above 8.0\n",
        "loop",
        (0.05,),
    ),
)


def test_engine_path_traces_match_the_golden_digest():
    # 72 traces, byte for byte, over the engine paths LIBRARY_MAPS leaves out
    digest = hashlib.sha256()
    for text, map_name, dts in ENGINE_PATH_SCRIPTS:
        ast, diags = compile_script(text)
        assert ast is not None and diags == []
        world = _loop_world(bulge=0.5) if map_name == "loop" else builtin_map(map_name)
        for scenario in sample_variations(ast, 6, base_seed=3):
            for dt in dts:
                for collision_stop in (True, False):
                    config = SimConfig(dt=dt, max_duration=12.0, collision_stop=collision_stop)
                    digest.update(trace_json_bytes(run(scenario, world, config)))
    assert digest.hexdigest() == "a63bcb89ab7cd43edef16432799978ec50e8e893f4c0623df2db60d498e72b27"


def test_sim_runs_without_numpy():
    # `scenekit.sim` is plain Python: a library script compiles, samples,
    # runs to its collision and serializes with numpy never imported
    code = (
        "import sys\n"
        "from scenekit.dsl import compile_script\n"
        "from scenekit.dsl.sampler import sample_variations\n"
        "from scenekit.sim import SimConfig, builtin_map, run\n"
        "from scenekit.sim.traceio import trace_json_bytes\n"
        f"ast, _ = compile_script(open({str(LIBRARY / 'rear_end.scn')!r}).read())\n"
        "trace = run(sample_variations(ast, 1, base_seed=0)[0], builtin_map('straight'), SimConfig())\n"
        "assert trace.events and trace_json_bytes(trace), 'no collision'\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# --- trace serialization -----------------------------------------------


def test_trace_json_round_trip_is_exact(tmp_path):
    _, trace = _fixture_trace("rear_end", "straight")
    (tmp_path / "t.json").write_bytes(trace_json_bytes(trace))
    from_json = read_trace_json(tmp_path / "t.json")
    assert trace_to_dict(from_json) == trace_to_dict(trace)
    assert from_json.events[0].classification is CollisionClass.REAR_END
