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

from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.promptgen.library import LibraryError, load_library
from scenekit.render.cameras import MAX_IMAGE_SIDE, CameraError, camera_from_dict
from scenekit.render.combine import load_weights
from scenekit.sim.traceio import TraceError, read_trace_json

LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
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


def _swapped(good):
    """Strategy: arbitrary JSON, or `good` with the value at one path replaced."""

    def swap(path, value):
        if not path:
            return value
        out = copy.deepcopy(good)
        node = out
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        return out

    return JSON | st.builds(swap, st.sampled_from(list(_paths(good))), JSON)


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


@settings(max_examples=200, deadline=None)
@given(_swapped(GOOD_TRACE))
def test_trace_loader_loads_or_raises_trace_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            read_trace_json(_write(tmp, "trace.json", value))
        except TraceError:
            pass


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
