"""Loadable means renderable: any map, camera and one-frame trace the loaders
accept either renders or fails with one line, and never with a traceback.

Values are drawn inside the loader limits, at them and past them: map points
and camera positions up to MAX_WORLD_COORD and beyond, the least focal
length MAX_RAY_SLOPE allows, far planes up to the float32 range, lane widths
and agent sizes and positions up to the float range.  The camera looks at
the lanes, so the ground classification measures pixels near a lane box up
to 1e12 m from the origin.  Images stay a few pixels wide to keep the run
short; MAX_IMAGE_SIDE itself is not drawn.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.cli import main
from scenekit.render.cameras import MAX_RAY_SLOPE, MAX_WORLD_COORD

FLOAT32_MAX = float(np.finfo(np.float32).max)
FLOAT_MAX = float(np.finfo(np.float64).max)

# where the scene sits: the origin, anywhere, at the map bound or past it
BASES = st.one_of(
    st.just(0.0),
    st.floats(-MAX_WORLD_COORD, MAX_WORLD_COORD),
    st.sampled_from([MAX_WORLD_COORD, -MAX_WORLD_COORD]),
    st.floats(MAX_WORLD_COORD - 100.0, MAX_WORLD_COORD),
    st.floats(MAX_WORLD_COORD, 1e200),
)
NEAR = st.floats(-60.0, 60.0)
SIZES = st.one_of(st.floats(0.01, 20.0), st.sampled_from([5e-324, 1e12, 1e300, FLOAT_MAX]))
SIDES = st.sampled_from([1, 2, 3, 8])


def _clamp(value: float) -> float:
    return min(MAX_WORLD_COORD, max(-MAX_WORLD_COORD, value))


@st.composite
def _scene(draw):
    bx, by = draw(BASES), draw(BASES)
    place = _clamp if draw(st.booleans()) else float  # a map point past the bound is a map error
    lanes = []
    for k in range(draw(st.integers(1, 2))):
        points = [[place(bx + draw(NEAR)), place(by + draw(NEAR))] for _ in range(draw(st.integers(2, 3)))]
        lanes.append({"id": f"l{k}", "width": draw(SIZES), "centerline": points})
    world = {"name": "drawn", "lanes": lanes, "anchors": {}}

    width, height = draw(SIDES), draw(SIDES)
    far = draw(st.one_of(st.floats(1.0, 200.0), st.just(FLOAT32_MAX)))
    if draw(st.booleans()):
        camera = {
            "variant": "topdown",
            "center": [_clamp(bx + draw(NEAR)), _clamp(by + draw(NEAR))],
            "meters_per_pixel": draw(st.one_of(st.floats(1e-6, 10.0), st.just(1e9))),
            "width": width,
            "height": height,
            "ortho_height": draw(st.one_of(st.floats(1.0, 100.0), st.just(FLOAT32_MAX))),
            "far_plane": far,
        }
    else:
        least_focal = max(width, height) / MAX_RAY_SLOPE  # past the steepest pixel ray
        camera = {
            "variant": "pinhole",
            "position": [_clamp(bx + draw(NEAR)), _clamp(by + draw(NEAR)), draw(st.floats(0.1, 50.0))],
            "yaw_deg": draw(st.floats(-360.0, 360.0)),
            "pitch_deg": draw(st.floats(-90.0, 90.0)),
            "focal_px": draw(st.one_of(st.floats(0.5, 500.0), st.just(least_focal))),
            "width": width,
            "height": height,
            "far_plane": far,
        }

    agents, states = [], []
    for k in range(draw(st.integers(0, 2))):
        klass = draw(st.sampled_from(["Car", "Truck", "Pedestrian", "Bicycle"]))
        agents.append({"name": f"a{k}", "class": klass, "length": draw(SIZES), "width": draw(SIZES)})
        x = draw(st.one_of(st.just(bx + draw(NEAR)), st.floats(-FLOAT_MAX, FLOAT_MAX)))
        y = draw(st.one_of(st.just(by + draw(NEAR)), st.floats(-FLOAT_MAX, FLOAT_MAX)))
        heading = draw(st.one_of(st.floats(-7.0, 7.0), st.floats(-FLOAT_MAX, FLOAT_MAX)))
        states.append([x, y, heading, 0.0, draw(st.sampled_from([0, 1])), "idle"])
    trace = {
        "version": 1,
        "map": "drawn",
        "dt": 0.05,
        "termination": "time",
        "agents": agents,
        "frames": [{"t": 0.0, "states": states}],
        "events": [],
    }
    return world, camera, trace


@settings(max_examples=250, deadline=None)
@given(scene=_scene())
def test_loadable_scene_renders_or_fails_in_one_line(scene):
    world, camera, trace = scene
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, value in (("map", world), ("camera", camera), ("trace", trace)):
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(value, allow_nan=False))
        argv = ["render", str(paths["trace"]), "--map", str(paths["map"]), "--camera", str(paths["camera"])]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([*argv, "-o", str(Path(tmp) / "out")])
        frame = Path(tmp) / "out" / "frames" / "000000"
        files = sorted(p.name for p in frame.iterdir()) if frame.exists() else []
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        assert files == ["combined.pfm", "depth.pfm", "edge.pgm", "seg.pgm"]
    else:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
