"""Trace serialization as JSON.

The JSON carries everything (agents, frames, events, termination) and is
written with sorted keys so identical traces give identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from scenekit.dsl.nodes import AgentClass
from scenekit.jsonio import items, member, number, read_json, typed
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


def _flag(value, where: str) -> bool:
    """The `active` flag, which `trace_to_dict` writes as 0 or 1."""
    if typed(int, value, TraceError, where) not in (0, 1):
        raise TraceError(f"{where} must be 0 or 1, got {value!r}")
    return value == 1


def _enum(enum_type, value, where: str):
    try:
        return enum_type(value)
    except (TypeError, ValueError):
        raise TraceError(f"{where}: unknown {enum_type.__name__} {value!r}") from None


def trace_from_dict(data) -> Trace:
    """Rebuild a trace written by `trace_to_dict`; TraceError when malformed."""
    agents = []
    for i, meta in enumerate(items(member(data, "agents", TraceError, "trace"), TraceError, "agents")):
        where = f"agents[{i}]"
        agents.append(
            (
                typed(str, member(meta, "name", TraceError, where), TraceError, f"{where}.name"),
                _enum(AgentClass, member(meta, "class", TraceError, where), where),
                number(member(meta, "length", TraceError, where), TraceError, f"{where}.length"),
                number(member(meta, "width", TraceError, where), TraceError, f"{where}.width"),
            )
        )
    frames = []
    for k, frame in enumerate(items(member(data, "frames", TraceError, "trace"), TraceError, "frames")):
        where = f"frames[{k}]"
        rows = items(member(frame, "states", TraceError, where), TraceError, f"{where}.states", len(agents))
        states = []
        for (name, klass, length, width), row in zip(agents, rows):
            at = f"{where} {name}"
            x, y, heading, speed, active, behavior_state = items(row, TraceError, at, 6)
            states.append(
                AgentState(
                    name=name,
                    klass=klass,
                    x=number(x, TraceError, f"{at} x"),
                    y=number(y, TraceError, f"{at} y"),
                    heading=number(heading, TraceError, f"{at} heading"),
                    speed=number(speed, TraceError, f"{at} speed"),
                    length=length,
                    width=width,
                    behavior_state=typed(str, behavior_state, TraceError, f"{at} behavior_state"),
                    active=_flag(active, f"{at} active"),
                )
            )
        frames.append(tuple(states))
    if not frames:
        raise TraceError("trace has no frames")
    events = []
    for i, e in enumerate(items(member(data, "events", TraceError, "trace"), TraceError, "events")):
        where = f"events[{i}]"
        impact = items(member(e, "impact", TraceError, where), TraceError, f"{where}.impact", 2)
        faces = items(member(e, "faces", TraceError, where), TraceError, f"{where}.faces", 2)
        events.append(
            CollisionEvent(
                time=number(member(e, "time", TraceError, where), TraceError, f"{where}.time"),
                frame=typed(int, member(e, "frame", TraceError, where), TraceError, f"{where}.frame"),
                agent_a=typed(str, member(e, "a", TraceError, where), TraceError, f"{where}.a"),
                agent_b=typed(str, member(e, "b", TraceError, where), TraceError, f"{where}.b"),
                impact=tuple(number(v, TraceError, f"{where}.impact") for v in impact),
                rel_heading_deg=number(
                    member(e, "rel_heading_deg", TraceError, where), TraceError, f"{where}.rel_heading_deg"
                ),
                faces=tuple(typed(str, v, TraceError, f"{where}.faces") for v in faces),
                classification=_enum(CollisionClass, member(e, "classification", TraceError, where), where),
            )
        )
    return Trace(
        map_name=typed(str, member(data, "map", TraceError, "trace"), TraceError, "map"),
        dt=number(member(data, "dt", TraceError, "trace"), TraceError, "dt"),
        frames=frames,
        events=events,
        termination=typed(str, member(data, "termination", TraceError, "trace"), TraceError, "termination"),
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
