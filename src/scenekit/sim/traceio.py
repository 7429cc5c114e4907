"""Trace serialization as JSON.

The JSON carries everything (agents, frames, events, termination) and is
written with sorted keys so identical traces give identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from scenekit.dsl.nodes import AgentClass
from scenekit.jsonio import read_json
from scenekit.sim.classify import CollisionClass
from scenekit.sim.engine import AgentState, CollisionEvent, Trace

VERSION = 1


def trace_to_dict(trace: Trace) -> dict:
    agents = [
        {"name": s.name, "class": s.klass.value, "length": s.length, "width": s.width}
        for s in trace.frames[0]
    ]
    frames = [
        {
            "t": trace.frame_time(k),
            "states": [
                [s.x, s.y, s.heading, s.speed, 1 if s.active else 0, s.behavior_state]
                for s in frame
            ],
        }
        for k, frame in enumerate(trace.frames)
    ]
    events = [
        {
            "time": e.time,
            "frame": e.frame,
            "a": e.agent_a,
            "b": e.agent_b,
            "impact": [e.impact[0], e.impact[1]],
            "rel_heading_deg": e.rel_heading_deg,
            "faces": [e.faces[0], e.faces[1]],
            "classification": e.classification.value,
        }
        for e in trace.events
    ]
    return {
        "version": VERSION,
        "map": trace.map_name,
        "dt": trace.dt,
        "termination": trace.termination,
        "agents": agents,
        "frames": frames,
        "events": events,
    }


class TraceError(ValueError):
    """A trace JSON that is not well formed."""


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise TraceError(f"{where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise TraceError(f"{where} has no {key!r}")
    return obj[key]


def _items(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise TraceError(f"{where} must be a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise TraceError(f"{where} must have {length} entries, got {len(value)}")
    return value


def _number(value, where: str):
    """A finite JSON number, kept as read so re-export writes the same bytes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:
            pass
    raise TraceError(f"{where} must be a finite number, got {value!r}")


def _typed(kind: type, value, where: str):
    """`value` when it is a `kind` (an int that is a bool is not)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise TraceError(f"{where} must be {kind.__name__}, got {value!r}")


def _enum(enum_type, value, where: str):
    try:
        return enum_type(value)
    except (TypeError, ValueError):
        raise TraceError(f"{where}: unknown {enum_type.__name__} {value!r}") from None


def trace_from_dict(data) -> Trace:
    """Rebuild a trace written by `trace_to_dict`; TraceError when malformed."""
    agents = []
    for i, meta in enumerate(_items(_field(data, "agents", "trace"), "agents")):
        where = f"agents[{i}]"
        agents.append(
            (
                _typed(str, _field(meta, "name", where), f"{where}.name"),
                _enum(AgentClass, _field(meta, "class", where), where),
                _number(_field(meta, "length", where), f"{where}.length"),
                _number(_field(meta, "width", where), f"{where}.width"),
            )
        )
    frames = []
    for k, frame in enumerate(_items(_field(data, "frames", "trace"), "frames")):
        where = f"frames[{k}]"
        rows = _items(_field(frame, "states", where), f"{where}.states", len(agents))
        states = []
        for (name, klass, length, width), row in zip(agents, rows):
            x, y, heading, speed, active, behavior_state = _items(row, f"{where} {name}", 6)
            states.append(
                AgentState(
                    name=name,
                    klass=klass,
                    x=_number(x, f"{where} {name} x"),
                    y=_number(y, f"{where} {name} y"),
                    heading=_number(heading, f"{where} {name} heading"),
                    speed=_number(speed, f"{where} {name} speed"),
                    length=length,
                    width=width,
                    behavior_state=_typed(str, behavior_state, f"{where} {name} behavior_state"),
                    active=bool(active),
                )
            )
        frames.append(tuple(states))
    if not frames:
        raise TraceError("trace has no frames")
    events = []
    for i, e in enumerate(_items(_field(data, "events", "trace"), "events")):
        where = f"events[{i}]"
        impact = _items(_field(e, "impact", where), f"{where}.impact", 2)
        faces = _items(_field(e, "faces", where), f"{where}.faces", 2)
        events.append(
            CollisionEvent(
                time=_number(_field(e, "time", where), f"{where}.time"),
                frame=_typed(int, _field(e, "frame", where), f"{where}.frame"),
                agent_a=_typed(str, _field(e, "a", where), f"{where}.a"),
                agent_b=_typed(str, _field(e, "b", where), f"{where}.b"),
                impact=tuple(_number(v, f"{where}.impact") for v in impact),
                rel_heading_deg=_number(_field(e, "rel_heading_deg", where), f"{where}.rel_heading_deg"),
                faces=tuple(_typed(str, v, f"{where}.faces") for v in faces),
                classification=_enum(CollisionClass, _field(e, "classification", where), where),
            )
        )
    return Trace(
        map_name=_typed(str, _field(data, "map", "trace"), "map"),
        dt=_number(_field(data, "dt", "trace"), "dt"),
        frames=frames,
        events=events,
        termination=_typed(str, _field(data, "termination", "trace"), "termination"),
    )


def trace_json_bytes(trace: Trace) -> bytes:
    """The bytes of a `trace.json`; TraceError when a number in the trace is
    not finite (`read_trace_json` would reject it)."""
    try:
        text = json.dumps(trace_to_dict(trace), indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise TraceError("trace holds a non-finite number, which JSON cannot carry") from None
    return (text + "\n").encode("ascii")


def read_trace_json(path: Path | str) -> Trace:
    """Read a `trace.json`; TraceError when it is unreadable, not JSON or malformed."""
    return trace_from_dict(read_json(path, TraceError, "not a JSON trace: "))
