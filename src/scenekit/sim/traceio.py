"""Trace serialization as JSON.

The JSON carries everything (agents, frames, events, termination) and is
written with sorted keys so identical traces give identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from scenekit.dsl.nodes import AgentClass
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


def trace_from_dict(data: dict) -> Trace:
    agents = data["agents"]
    frames = []
    for frame in data["frames"]:
        states = []
        for meta, row in zip(agents, frame["states"]):
            x, y, heading, speed, active, behavior_state = row
            states.append(
                AgentState(
                    name=meta["name"],
                    klass=AgentClass(meta["class"]),
                    x=x,
                    y=y,
                    heading=heading,
                    speed=speed,
                    length=meta["length"],
                    width=meta["width"],
                    behavior_state=behavior_state,
                    active=bool(active),
                )
            )
        frames.append(tuple(states))
    events = [
        CollisionEvent(
            time=e["time"],
            frame=e["frame"],
            agent_a=e["a"],
            agent_b=e["b"],
            impact=(e["impact"][0], e["impact"][1]),
            rel_heading_deg=e["rel_heading_deg"],
            faces=(e["faces"][0], e["faces"][1]),
            classification=CollisionClass(e["classification"]),
        )
        for e in data["events"]
    ]
    return Trace(
        map_name=data["map"],
        dt=data["dt"],
        frames=frames,
        events=events,
        termination=data["termination"],
    )


def write_trace_json(trace: Trace, path: Path | str) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\n")


def read_trace_json(path: Path | str) -> Trace:
    return trace_from_dict(json.loads(Path(path).read_text()))
