"""Fixed-timestep scenario execution.

Everything here is pure float arithmetic driven by the concrete scenario; no
randomness, so identical inputs give bitwise-identical traces.  Unicycle
kinematics: heading comes from a pure-pursuit point on the assigned lane,
then position advances by speed * dt along the updated heading.  Behavior
triggers are evaluated before motion against the previous frame and latch
once fired.  Frame k sits at time k * dt (multiplied, not accumulated).

Each frame holds its own snapshot of every agent (`AgentState.snapshot`),
taken after motion; the live states go on changing in place.  Collision
detection builds each active agent's box once a step and hands the pairs
to `obbs_overlap`, whose verdict is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scenekit.dsl.nodes import ActionKind, AgentClass
from scenekit.dsl.sampler import (
    CAbsolute,
    COnLane,
    CRelative,
    ConcreteBehavior,
    ConcreteScenario,
    CTrigger,
    SampleError,
)
from scenekit.sim.classify import CollisionClass, classify_collision
from scenekit.sim.geometry import (
    Box,
    contact_faces,
    impact_point,
    obbs_overlap,
    rel_heading_deg,
)
from scenekit.sim.worldmap import WorldMap

LOOKAHEAD_MIN = 2.0  # metres
LOOKAHEAD_TIME = 0.5  # seconds of travel
MAX_STEPS = 100_000  # most steps one run may take: max_duration / dt


class PlacementError(Exception):
    """Initial poses overlap or cannot be resolved."""


@dataclass
class SimConfig:
    """Step and horizon in seconds: both finite and positive, and at most
    MAX_STEPS steps of `dt` fit in `max_duration`."""

    dt: float = 0.05
    max_duration: float = 30.0
    collision_stop: bool = True

    def __post_init__(self):
        if not 0 < self.dt < math.inf:  # also false for NaN
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0 < self.max_duration < math.inf:
            raise ValueError(f"max_duration must be finite and positive, got {self.max_duration}")
        if self.max_duration / self.dt > MAX_STEPS:
            raise ValueError(f"max_duration / dt must be at most {MAX_STEPS} steps")


@dataclass(slots=True)
class AgentState:
    name: str
    klass: AgentClass
    x: float
    y: float
    heading: float  # radians
    speed: float
    length: float
    width: float
    behavior_state: str
    active: bool = True

    def box(self) -> Box:
        return Box(self.x, self.y, self.heading, self.length, self.width)

    def snapshot(self) -> AgentState:
        """A copy for a trace frame (a positional call: `replace` is slower)."""
        return AgentState(
            self.name,
            self.klass,
            self.x,
            self.y,
            self.heading,
            self.speed,
            self.length,
            self.width,
            self.behavior_state,
            self.active,
        )


@dataclass
class CollisionEvent:
    time: float
    frame: int
    agent_a: str  # declaration order: a precedes b
    agent_b: str
    impact: tuple[float, float]
    rel_heading_deg: float
    faces: tuple[str, str]
    classification: CollisionClass


@dataclass
class Trace:
    map_name: str
    dt: float
    frames: list[tuple[AgentState, ...]]
    events: list[CollisionEvent]
    termination: str  # "collision" | "script" | "timeout"

    @property
    def duration(self) -> float:
        return (len(self.frames) - 1) * self.dt

    def frame_time(self, index: int) -> float:
        return index * self.dt


@dataclass
class _Runtime:
    behavior: ConcreteBehavior | None
    triggered: bool = False
    lane_id: str | None = None
    s: float = 0.0
    base_heading: float = 0.0
    lateral_travel: float = 0.0
    merged: bool = False


_LANE_KINDS = (ActionKind.FOLLOW_LANE, ActionKind.BRAKE, ActionKind.CUT_IN)

# Unit offset of each relative placement from the reference's heading (cos, sin).
_OFFSETS = {
    "ahead": lambda c, s: (c, s),
    "behind": lambda c, s: (-c, -s),
    "left": lambda c, s: (-s, c),
    "right": lambda c, s: (s, -c),
}


def _instantiate(
    scenario: ConcreteScenario, world: WorldMap
) -> tuple[list[AgentState], list[_Runtime]]:
    """Resolve placements into initial agent states and their runtimes.

    Raises SampleError for lane references the map cannot satisfy and
    PlacementError when any two initial boxes already interpenetrate.
    """
    states: list[AgentState] = []
    runtimes: list[_Runtime] = []
    poses: dict[str, tuple[float, float, float]] = {}

    for obj in scenario.objects:
        spatial = obj.spatial
        if isinstance(spatial, CAbsolute):
            x, y, heading = spatial.x, spatial.y, math.radians(spatial.heading_deg)
        elif isinstance(spatial, CRelative):
            rx, ry, heading = poses[spatial.ref]
            ux, uy = _OFFSETS[spatial.kind](math.cos(heading), math.sin(heading))
            x, y = rx + spatial.amount * ux, ry + spatial.amount * uy
        elif isinstance(spatial, COnLane):
            lane = world.lanes.get(spatial.lane)
            if lane is None:
                known = ", ".join(world.lanes)
                raise SampleError(
                    f"object {obj.name!r}: map {world.name!r} has no lane {spatial.lane!r} "
                    f"(lanes: {known})"
                )
            if spatial.s > lane.length:
                raise SampleError(
                    f"object {obj.name!r}: position {spatial.s} exceeds lane "
                    f"{spatial.lane!r} length {lane.length}"
                )
            x, y = lane.point_at(spatial.s)
            heading = lane.heading_at(spatial.s)
        else:
            raise TypeError(f"unknown spatial {spatial!r}")
        poses[obj.name] = (x, y, heading)

        rt = _Runtime(behavior=obj.behavior, base_heading=heading)
        rt.triggered = obj.behavior is None or obj.behavior.trigger is None
        if isinstance(spatial, COnLane):
            rt.lane_id, rt.s = spatial.lane, spatial.s
        elif obj.behavior is not None and obj.behavior.kind in _LANE_KINDS:
            rt.lane_id, rt.s, _ = world.nearest_lane(x, y)

        states.append(
            AgentState(
                name=obj.name,
                klass=obj.klass,
                x=x,
                y=y,
                heading=heading,
                speed=obj.init_speed,
                length=obj.dims[0],
                width=obj.dims[1],
                behavior_state=_initial_state(obj.behavior, obj.init_speed),
            )
        )
        runtimes.append(rt)

    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if obbs_overlap(states[i].box(), states[j].box()):
                raise PlacementError(
                    f"initial poses of {states[i].name!r} and {states[j].name!r} overlap"
                )
    return states, runtimes


def _initial_state(behavior: ConcreteBehavior | None, speed: float) -> str:
    if behavior is None:
        return "coasting" if speed > 0 else "idle"
    return {
        ActionKind.FOLLOW_LANE: "cruise",
        ActionKind.BRAKE: "cruise",
        ActionKind.CROSS: "waiting",
        ActionKind.CUT_IN: "cruise",
        ActionKind.IDLE: "idle",
        ActionKind.STOP: "stopped",
    }[behavior.kind]


def run(scenario: ConcreteScenario, world: WorldMap, config: SimConfig = SimConfig()) -> Trace:
    """Simulate until collision, scripted termination, or timeout."""
    states, runtimes = _instantiate(scenario, world)
    # Live states by name: before motion they hold the previous frame's poses.
    by_name = {s.name: s for s in states}
    frames: list[tuple[AgentState, ...]] = [tuple([s.snapshot() for s in states])]
    events: list[CollisionEvent] = []
    contacted: set[tuple[str, str]] = set()
    n_steps = round(config.max_duration / config.dt)
    termination = "timeout"

    for k in range(1, n_steps + 1):
        prev_time = (k - 1) * config.dt
        now = k * config.dt

        for state, rt in zip(states, runtimes):
            if state.active and not rt.triggered:
                rt.triggered = _fired(rt.behavior.trigger, by_name, prev_time)
        for state, rt in zip(states, runtimes):
            if state.active:
                _advance(state, rt, world, config.dt)

        frames.append(tuple([s.snapshot() for s in states]))

        new_events = _detect(states, contacted, now, k)
        events.extend(new_events)
        if new_events and config.collision_stop:
            termination = "collision"
            break
        for ev in new_events:
            for name in (ev.agent_a, ev.agent_b):
                by_name[name].active = False
                by_name[name].speed = 0.0
        if scenario.termination is not None and _fired(scenario.termination, by_name, now):
            termination = "script"
            break

    return Trace(
        map_name=world.name,
        dt=config.dt,
        frames=frames,
        events=events,
        termination=termination,
    )


def _fired(trigger: CTrigger, states_by_name: dict[str, AgentState], t: float) -> bool:
    """Whether a time or distance trigger holds for these states at time t."""
    if trigger.kind == "time":
        return t >= trigger.value
    obj = states_by_name.get(trigger.obj)
    ego = states_by_name.get("ego")
    if obj is None or ego is None:
        return False
    return math.hypot(obj.x - ego.x, obj.y - ego.y) < trigger.value


def _advance(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    b = rt.behavior
    if b is None:
        _straight(state, dt)
        return
    if b.kind is ActionKind.IDLE or b.kind is ActionKind.STOP:
        state.speed = 0.0
        state.behavior_state = "idle" if b.kind is ActionKind.IDLE else "stopped"
        return
    if b.kind in _LANE_KINDS and (not rt.triggered or rt.merged):
        # Before the trigger fires, and once a cut-in has merged: hold the
        # lane at the current speed.
        _pursuit(state, rt, world, dt, state.speed)
        if state.behavior_state != "stopped":
            state.behavior_state = "merged" if rt.merged else "cruise"
        return
    if b.kind is ActionKind.FOLLOW_LANE:
        _pursuit(state, rt, world, dt, b.args[0])
        if state.behavior_state != "stopped":
            state.behavior_state = "cruise"
        return
    if b.kind is ActionKind.BRAKE:
        speed = max(0.0, state.speed - b.args[0] * dt)
        _pursuit(state, rt, world, dt, speed)
        state.behavior_state = "stopped" if speed == 0.0 else "braking"
        return
    if b.kind is ActionKind.CROSS:
        if not rt.triggered:
            state.speed = 0.0
            state.behavior_state = "waiting"
            return
        offset = {"left": math.pi / 2.0, "right": -math.pi / 2.0, "forward": 0.0}[b.direction]
        state.heading = _wrap(rt.base_heading + offset)
        state.speed = b.args[0]
        _straight(state, dt)
        state.behavior_state = "crossing"
        return
    if b.kind is ActionKind.CUT_IN:
        _cut_in(state, rt, world, dt, b)
        return
    raise TypeError(f"unknown behavior kind {b.kind!r}")


def _straight(state: AgentState, dt: float) -> None:
    state.x += state.speed * math.cos(state.heading) * dt
    state.y += state.speed * math.sin(state.heading) * dt


def _follow(world: WorldMap, lane_id: str, s: float) -> tuple[str, float]:
    """Carry arc position s past lane ends onto first successors.

    On a lane with no successor the returned s may exceed its length.
    """
    lane = world.lanes[lane_id]
    while s > lane.length and lane.successors:
        s -= lane.length
        lane_id = lane.successors[0]
        lane = world.lanes[lane_id]
    return lane_id, s


def _pursuit(state: AgentState, rt: _Runtime, world: WorldMap, dt: float, speed: float) -> None:
    """Advance along the assigned lane with pure-pursuit steering."""
    rt.lane_id, s = _follow(world, rt.lane_id, rt.s + speed * dt)
    lane = world.lanes[rt.lane_id]
    if s > lane.length:
        state.x, state.y = lane.point_at(lane.length)
        state.heading = lane.heading_at(lane.length)
        state.speed = 0.0
        rt.s = lane.length
        state.behavior_state = "stopped"
        return
    rt.s = s
    lookahead = max(LOOKAHEAD_MIN, LOOKAHEAD_TIME * speed)
    target_id, target_s = _follow(world, rt.lane_id, rt.s + lookahead)
    target = world.lanes[target_id]
    tx, ty = target.point_at(min(target_s, target.length))
    alpha = _wrap(math.atan2(ty - state.y, tx - state.x) - state.heading)
    state.heading = _wrap(state.heading + speed * (2.0 * math.sin(alpha) / lookahead) * dt)
    state.speed = speed
    _straight(state, dt)


def _cut_in(state: AgentState, rt: _Runtime, world: WorldMap, dt: float, b: ConcreteBehavior) -> None:
    """Drift laterally toward the adjacent lane while keeping forward speed."""
    lane = world.lanes[rt.lane_id]
    rt.s = min(rt.s + state.speed * dt, lane.length)
    tangent = lane.heading_at(rt.s)
    normal = tangent + (math.pi / 2.0 if b.direction == "left" else -math.pi / 2.0)
    rate = b.args[0]
    vx = state.speed * math.cos(tangent) + rate * math.cos(normal)
    vy = state.speed * math.sin(tangent) + rate * math.sin(normal)
    state.x += vx * dt
    state.y += vy * dt
    state.heading = math.atan2(vy, vx)
    rt.lateral_travel += rate * dt
    if rt.lateral_travel >= lane.width:
        rt.merged = True
        rt.lane_id, rt.s, _ = world.nearest_lane(state.x, state.y)
        state.heading = world.lanes[rt.lane_id].heading_at(rt.s)
        state.behavior_state = "merged"
    else:
        state.behavior_state = "cutting"


def _detect(
    states: list[AgentState],
    contacted: set[tuple[str, str]],
    now: float,
    frame: int,
) -> list[CollisionEvent]:
    events = []
    live = [(s, s.box()) for s in states if s.active]
    for i, (a, box_a) in enumerate(live):
        for b, box_b in live[i + 1 :]:
            key = (a.name, b.name)
            if key in contacted:
                continue
            if not obbs_overlap(box_a, box_b):
                continue
            contacted.add(key)
            faces = contact_faces(box_a, box_b)
            rel = rel_heading_deg(a.heading, b.heading)
            events.append(
                CollisionEvent(
                    time=now,
                    frame=frame,
                    agent_a=a.name,
                    agent_b=b.name,
                    impact=impact_point(box_a, box_b),
                    rel_heading_deg=rel,
                    faces=faces,
                    classification=classify_collision(a.klass, b.klass, rel, faces),
                )
            )
    return events


def _wrap(angle: float) -> float:
    """Fold into (-pi, pi]."""
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    return a - math.pi
