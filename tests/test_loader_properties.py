"""JSON file loaders either load or raise their own error type, for any JSON value.

Each loader gets arbitrary JSON, and a well-formed file with one value
swapped for arbitrary JSON, so the checks run past the top level.
"""

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.jsonio import read_json
from scenekit.promptgen.library import LibraryError, load_library
from scenekit.render.cameras import MAX_IMAGE_SIDE, CameraError, camera_from_dict
from scenekit.render.combine import load_weights
from scenekit.sim.traceio import TraceError, read_trace_json, trace_json_bytes
from scenekit.sim.worldmap import MapError, load_map

# integers past the float range: JSON parses them, float() overflows on them
PAST_FLOAT_RANGE = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
LEAVES = st.none() | st.booleans() | st.integers() | PAST_FLOAT_RANGE | st.floats() | NON_FINITE | st.text(max_size=8)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

GOOD_TRACE = {
    "version": 1,
    "map": "straight",
    "dt": 0.05,
    "termination": "collision",
    "agents": [
        {"name": "ego", "class": "Car", "length": 4.5, "width": 2.0},
        {"name": "lead", "class": "Truck", "length": 8.0, "width": 2.5},
    ],
    "frames": [
        {"t": 0.0, "states": [[20.0, 0.0, 0.0, 14.0, 1, "cruise"], [45.0, 0.0, 0.0, 8.0, 1, "idle"]]},
        {"t": 0.05, "states": [[20.7, 0.0, 0.0, 14.0, 1, "cruise"], [45.4, 0.0, 0.0, 8.0, 1, "brake"]]},
    ],
    "events": [
        {
            "time": 0.05,
            "frame": 1,
            "a": "ego",
            "b": "lead",
            "impact": [24.0, 0.0],
            "rel_heading_deg": 0.0,
            "faces": ["front", "rear"],
            "classification": "rear-end",
        }
    ],
}
GOOD_INDEX = {
    "entries": [
        {"id": "a", "scenario_type": "vehicle-cut-in", "description": "d", "file": "a.scn"}
    ]
}
GOOD_WEIGHTS = {"seg": 0.2, "depth": 0.3, "edge": 0.4}
GOOD_MAP = {
    "name": "m",
    "lanes": [
        {"id": "a", "width": 3.5, "centerline": [[0.0, 0.0], [50.0, 0.0]], "successors": ["b"]},
        {"id": "b", "width": 3.0, "centerline": [[50.0, 0.0], [50.0, 40.0]]},
    ],
    "anchors": {"start": {"x": 0.0, "y": 0.0, "heading_deg": 90.0}},
}
GOOD_CAMERAS = [
    {"variant": "topdown", "center": [1.0, 2.0], "meters_per_pixel": 0.1, "width": 64, "height": 48,
     "ortho_height": 50.0, "far_plane": 100.0},
    {"variant": "pinhole", "position": [1.0, 2.0, 3.0], "yaw_deg": 30.0, "pitch_deg": 10.0,
     "focal_px": 128.0, "principal": [32.0, 24.0], "width": 64, "height": 48, "far_plane": 100.0},
]


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


def _replaced(good, path, value):
    """A copy of `good` with the value at `path` replaced by `value`."""
    if not path:
        return value
    out = copy.deepcopy(good)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


def _swapped(good):
    """Strategy: arbitrary JSON, or `good` with the value at one path replaced."""
    return JSON | st.builds(_replaced, st.just(good), st.sampled_from(list(_paths(good))), JSON)


def _write(directory, name, value):
    path = Path(directory) / name
    path.write_text(json.dumps(value))
    return path


def test_well_formed_inputs_load():
    with tempfile.TemporaryDirectory() as tmp:
        trace = read_trace_json(_write(tmp, "trace.json", GOOD_TRACE))
        assert len(trace.frames) == 2 and trace.events[0].agent_b == "lead"
        assert load_weights(_write(tmp, "w.json", GOOD_WEIGHTS)) == GOOD_WEIGHTS
        (Path(tmp) / "a.scn").write_text("ego = new Car at (0.0, 0.0)\n")
        _write(tmp, "index.json", GOOD_INDEX)
        assert [e.id for e in load_library(tmp).entries] == ["a"]
        assert sorted(load_map(_write(tmp, "m.json", GOOD_MAP)).lanes) == ["a", "b"]


@settings(max_examples=200, deadline=None)
@given(_swapped(GOOD_TRACE))
def test_trace_loader_loads_or_raises_trace_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trace = read_trace_json(_write(tmp, "trace.json", value))
        except TraceError:
            return
    trace_json_bytes(trace)  # a trace that loads can be written back (bundle does)


def _finite_float(value) -> bool:
    return type(value) is float and math.isfinite(value)


@pytest.mark.parametrize(
    "active", ["no", [], 2, True], ids=["string", "empty-list", "two", "true"]
)
def test_trace_active_flag_is_0_or_1(tmp_path, active):
    trace = _replaced(GOOD_TRACE, ("frames", 1, "states", 0, 4), active)
    with pytest.raises(TraceError, match=r"frames\[1\] ego active must be"):
        read_trace_json(_write(tmp_path, "trace.json", trace))


@settings(max_examples=300, deadline=None)
@given(_swapped(GOOD_MAP))
def test_map_loader_loads_or_raises_map_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            world = load_map(_write(tmp, "m.json", value))
        except MapError:
            return
    assert type(world.name) is str
    for lane_id, lane in world.lanes.items():
        assert type(lane_id) is str and lane.id == lane_id
        assert all(type(successor) is str for successor in lane.successors)
        assert _finite_float(lane.width) and all(_finite_float(v) for point in lane.centerline for v in point)
    for pose in world.anchors.values():
        assert _finite_float(pose.x) and _finite_float(pose.y) and _finite_float(pose.heading)


@pytest.mark.parametrize(
    "path,value,named",
    [
        (("lanes", 0, "width"), "3.5", "lane 'a' width"),
        (("lanes", 0, "width"), True, "lane 'a' width"),
        (("lanes", 0, "centerline"), ["00", "50"], "lane 'a' centerline"),
        (("lanes", 1, "centerline", 1, 0), "50", "lane 'b' centerline"),
        (("anchors", "start", "x"), True, "anchor 'start' x"),
        (("anchors", "start", "heading_deg"), "90", "anchor 'start' heading_deg"),
        (("name",), 5, "name"),
    ],
    ids=["width-string", "width-true", "centerline-strings", "coordinate-string", "anchor-x-true",
         "anchor-heading-string", "name-number"],
)
def test_map_fields_refuse_strings_booleans_and_numbers_of_the_wrong_kind(tmp_path, path, value, named):
    with pytest.raises(MapError, match=named):
        load_map(_write(tmp_path, "m.json", _replaced(GOOD_MAP, path, value)))


@settings(max_examples=200, deadline=None)
@given(_swapped(GOOD_WEIGHTS))
def test_weights_loader_loads_or_raises_value_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            weights = load_weights(_write(tmp, "w.json", value))
        except ValueError:
            return
        assert all(isinstance(w, float) and 0.0 <= w <= 1.0 for w in weights.values())


@settings(max_examples=200, deadline=None)
@given(_swapped(GOOD_INDEX))
def test_library_loader_loads_or_raises_library_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "a.scn").write_text("ego = new Car at (0.0, 0.0)\n")
        _write(tmp, "index.json", value)
        try:
            load_library(tmp)
        except LibraryError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(_swapped(good) for good in GOOD_CAMERAS)))
def test_camera_loader_loads_or_raises_camera_error(value):
    try:
        camera = camera_from_dict(value)
    except CameraError:
        return
    for name, field in dataclasses.asdict(camera).items():
        if name in ("width", "height"):
            assert type(field) is int and 1 <= field <= MAX_IMAGE_SIDE
        else:
            assert field is None or (type(field) is float and math.isfinite(field))


# what read_json is given -> (file bytes, or None for no file at all)
UNREADABLE = {
    "missing": None,
    "directory": "DIR",
    "name-too-long": "LONG",
    "nul-in-name": "NUL",
    "not-utf8": b'{"a": "\xff\xfe"}',
    "not-json": b"{",
    "empty": b"",
    "int-too-long-to-parse": b"1" * 5000,
    "nested-too-deep": b"[" * 5000 + b"]" * 5000,
}


class _Refused(Exception):
    pass


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_read_json_raises_only_the_callers_error(tmp_path, case):
    content = UNREADABLE[case]
    path = {"DIR": tmp_path, "LONG": tmp_path / ("a" * 5000), "NUL": tmp_path / "a\x00b"}.get(
        content, tmp_path / "f.json"
    )
    if isinstance(content, bytes):
        path.write_bytes(content)
    with pytest.raises(_Refused) as caught:
        read_json(path, _Refused, "cannot read f: ")
    if case == "missing":
        assert str(caught.value) == f"no f.json in {tmp_path}"
    else:
        assert str(caught.value).startswith("cannot read f: ")


def test_read_json_leaves_non_finite_numbers_to_the_loader(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('[NaN, Infinity, -Infinity, 1e400, ' + "1" * 401 + "]")
    nan, inf, minus_inf, overflowed, big = read_json(path, _Refused, "")
    assert math.isnan(nan) and inf == overflowed == math.inf and minus_inf == -math.inf
    assert big == int("1" * 401)
