"""Fixed-timestep scenario execution.

Everything here is pure float arithmetic driven by the concrete scenario; no
randomness, so identical inputs give bitwise-identical traces.  Unicycle
kinematics: heading comes from a pure-pursuit point on the assigned lane,
then position advances by speed * dt along the updated heading.  Behavior
triggers are evaluated before motion against the previous frame and latch
once fired.  Frame k sits at time k * dt (multiplied, not accumulated).

What stays fixed for a run is worked out once, before the first step:

- Pending triggers: a step evaluates only the agents whose trigger has not
  fired yet, kept in a list that shrinks as triggers latch.
- Moves: each agent's move for its phase (`_phase`) is picked at the start
  and again only when its trigger latches or a cut-in merges; a crossing's
  heading is computed once.
- Collision pairs (`_pairs`): every pair in declaration order, with both
  diagonals and the pair's key.  A step skips a pair unless both agents are
  active and the pair has not touched yet.
- The lane cache: each runtime holds its lane object next to the lane id,
  looked up again only when the id changes.

Each frame holds its own snapshot of every agent (`AgentState.snapshot`),
taken after motion; the live states go on changing in place.  Collision
detection runs the broad phase (`circles_apart`) on the states and builds
boxes only for the pairs within reach, whose overlap `obbs_overlap`
decides exactly.  Lane following carries s onto a successor lane
(`_follow`) only when it passes the end of a lane that has one.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    circles_apart,
    contact_faces,
    impact_point,
    obbs_overlap,
    rel_heading_deg,
)
from scenekit.sim.worldmap import Lane, WorldMap

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
    lane: Lane | None = None  # world.lanes[lane_id], looked up when lane_id changes
    s: float = 0.0
    cross_heading: float = 0.0  # a crossing's heading once its trigger fires
    lateral_travel: float = 0.0
    merged: bool = False
    # how the agent moves each step: `_phase` picks it at the start and again
    # when the trigger latches or a cut-in merges
    move: _Move | None = None


_Move = Callable[[AgentState, _Runtime, WorldMap, float], None]
# Two agents in declaration order, their diagonals and the pair's name key.
_Pair = tuple[AgentState, AgentState, float, float, tuple[str, str]]

_LANE_KINDS = (ActionKind.FOLLOW_LANE, ActionKind.BRAKE, ActionKind.CUT_IN)

# Unit offset of each relative placement from the reference's heading (cos, sin).
_OFFSETS = {
    "ahead": lambda c, s: (c, s),
    "behind": lambda c, s: (-c, -s),
    "left": lambda c, s: (-s, c),
    "right": lambda c, s: (s, -c),
}

# Angle of a cross or cut-in direction off the agent's heading.
_TURNS = {"left": math.pi / 2.0, "right": -math.pi / 2.0, "forward": 0.0}

_PI = math.pi
_TWO_PI = 2.0 * math.pi


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

        behavior = obj.behavior
        rt = _Runtime(behavior=behavior)
        rt.triggered = behavior is None or behavior.trigger is None
        if isinstance(spatial, COnLane):
            rt.lane_id, rt.lane, rt.s = spatial.lane, lane, spatial.s
        elif behavior is not None and behavior.kind in _LANE_KINDS:
            if not world.lanes:
                raise SampleError(f"object {obj.name!r}: map {world.name!r} has no lane to follow")
            rt.lane_id, rt.s, _ = world.nearest_lane(x, y)
            rt.lane = world.lanes[rt.lane_id]
        if behavior is not None and behavior.kind is ActionKind.CROSS:
            rt.cross_heading = _wrap(heading + _TURNS[behavior.direction])
        rt.move = _phase(rt)

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
                behavior_state=_initial_state(behavior, obj.init_speed),
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
    agents = list(zip(states, runtimes))
    pending = [(s, rt) for s, rt in agents if not rt.triggered]
    pairs = _pairs(states)
    frames: list[tuple[AgentState, ...]] = [tuple([s.snapshot() for s in states])]
    events: list[CollisionEvent] = []
    contacted: set[tuple[str, str]] = set()
    dt = config.dt
    n_steps = round(config.max_duration / dt)
    termination = "timeout"
    now = 0.0

    for k in range(1, n_steps + 1):
        prev_time, now = now, k * dt

        if pending:
            latched = False
            for state, rt in pending:
                if state.active and _fired(rt.behavior.trigger, by_name, prev_time):
                    rt.triggered = latched = True
                    rt.move = _phase(rt)
            if latched:
                pending = [(s, rt) for s, rt in pending if not rt.triggered]
        for state, rt in agents:
            if state.active:
                rt.move(state, rt, world, dt)

        frames.append(tuple([s.snapshot() for s in states]))

        new_events = _detect(pairs, contacted, now, k)
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
        dt=dt,
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


def _phase(rt: _Runtime) -> _Move:
    """The move for the runtime's behavior, trigger and merge state.

    IDLE and STOP hold still whether or not their trigger has fired.  The
    lane kinds hold the lane at the current speed before their trigger
    fires and once a cut-in has merged.
    """
    b = rt.behavior
    if b is None:
        return _coast
    if b.kind in _LANE_KINDS and (not rt.triggered or rt.merged):
        return _hold_lane
    if b.kind is ActionKind.CROSS and not rt.triggered:
        return _hold_still
    return _MOVES[b.kind]


def _coast(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    """Straight on at the current speed and heading."""
    state.x += state.speed * math.cos(state.heading) * dt
    state.y += state.speed * math.sin(state.heading) * dt


def _hold_still(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    """Idle, stop, and a cross before its trigger fires: no motion, and the
    label stays the one `_initial_state` gave."""
    state.speed = 0.0


def _hold_lane(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    _pursuit(state, rt, world, dt, state.speed)
    if state.behavior_state != "stopped":
        state.behavior_state = "merged" if rt.merged else "cruise"


def _follow_lane(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    _pursuit(state, rt, world, dt, rt.behavior.args[0])
    if state.behavior_state != "stopped":
        state.behavior_state = "cruise"


def _brake(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    speed = max(0.0, state.speed - rt.behavior.args[0] * dt)
    _pursuit(state, rt, world, dt, speed)
    state.behavior_state = "stopped" if speed == 0.0 else "braking"


def _cross(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    state.heading = rt.cross_heading
    state.speed = rt.behavior.args[0]
    _coast(state, rt, world, dt)
    state.behavior_state = "crossing"


def _follow(world: WorldMap, lane_id: str, s: float) -> tuple[str, float]:
    """Carry arc position s past lane ends onto first successors.

    On a lane with no successor the returned s may exceed its length.  A walk
    longer than the map has lanes is going round a loop of successors: s is
    then taken modulo the loop's length, so a far position costs at most two
    turns of it (an infinite s gives NaN).
    """
    lane = world.lanes[lane_id]
    walked = 0
    while s > lane.length and lane.successors:
        walked += 1
        if walked > len(world.lanes):
            loop, at = lane.length, lane.successors[0]
            while at != lane_id:
                loop += world.lanes[at].length
                at = world.lanes[at].successors[0]
            s %= loop
            walked = 0
            continue
        s -= lane.length
        lane_id = lane.successors[0]
        lane = world.lanes[lane_id]
    return lane_id, s


def _pursuit(state: AgentState, rt: _Runtime, world: WorldMap, dt: float, speed: float) -> None:
    """Advance along the assigned lane with pure-pursuit steering.

    `_follow` runs only when s passes the end of a lane with a successor:
    elsewhere it would return s unchanged.  The lookahead, `_wrap` and the
    straight-line step are written out here, the same operations in the
    same order, since this runs for most agents on every step.
    """
    lane = rt.lane
    length = lane.length
    s = rt.s + speed * dt
    if s > length and lane.successors:
        rt.lane_id, s = _follow(world, rt.lane_id, s)
        rt.lane = lane = world.lanes[rt.lane_id]
        length = lane.length
    if s > length:
        state.x, state.y = lane.point_at(length)
        state.heading = lane.heading_at(length)
        state.speed = 0.0
        rt.s = length
        state.behavior_state = "stopped"
        return
    rt.s = s
    # max(LOOKAHEAD_MIN, LOOKAHEAD_TIME * speed), NaN giving LOOKAHEAD_MIN
    lookahead = LOOKAHEAD_TIME * speed
    if not lookahead > LOOKAHEAD_MIN:
        lookahead = LOOKAHEAD_MIN
    target, target_s = lane, s + lookahead
    if target_s > length and lane.successors:
        target_id, target_s = _follow(world, rt.lane_id, target_s)
        target = world.lanes[target_id]
    if target.length < target_s:
        target_s = target.length
    tx, ty = target.point_at(target_s)
    x, y, heading = state.x, state.y, state.heading
    alpha = (math.atan2(ty - y, tx - x) - heading + _PI) % _TWO_PI
    if alpha <= 0:
        alpha += _TWO_PI
    alpha -= _PI
    heading = (heading + speed * (2.0 * math.sin(alpha) / lookahead) * dt + _PI) % _TWO_PI
    if heading <= 0:
        heading += _TWO_PI
    heading -= _PI
    state.heading = heading
    state.speed = speed
    state.x = x + speed * math.cos(heading) * dt
    state.y = y + speed * math.sin(heading) * dt


def _cut_in(state: AgentState, rt: _Runtime, world: WorldMap, dt: float) -> None:
    """Drift laterally toward the adjacent lane while keeping forward speed."""
    lane = rt.lane
    rt.s = min(rt.s + state.speed * dt, lane.length)
    tangent = lane.heading_at(rt.s)
    normal = tangent + _TURNS[rt.behavior.direction]
    rate = rt.behavior.args[0]
    vx = state.speed * math.cos(tangent) + rate * math.cos(normal)
    vy = state.speed * math.sin(tangent) + rate * math.sin(normal)
    state.x += vx * dt
    state.y += vy * dt
    state.heading = math.atan2(vy, vx)
    rt.lateral_travel += rate * dt
    if rt.lateral_travel >= lane.width:
        rt.merged = True
        rt.lane_id, rt.s, _ = world.nearest_lane(state.x, state.y)
        rt.lane = world.lanes[rt.lane_id]
        state.heading = rt.lane.heading_at(rt.s)
        state.behavior_state = "merged"
        rt.move = _phase(rt)
    else:
        state.behavior_state = "cutting"


_MOVES = {
    ActionKind.FOLLOW_LANE: _follow_lane,
    ActionKind.BRAKE: _brake,
    ActionKind.CROSS: _cross,
    ActionKind.CUT_IN: _cut_in,
    ActionKind.IDLE: _hold_still,
    ActionKind.STOP: _hold_still,
}


def _pairs(states: list[AgentState]) -> list[_Pair]:
    """Every pair of agents, with their diagonals (sides never change)."""
    diagonals = [math.hypot(s.length, s.width) for s in states]
    return [
        (a, b, diagonals[i], diagonals[j], (a.name, b.name))
        for i, a in enumerate(states)
        for j, b in enumerate(states[i + 1 :], i + 1)
    ]


def _detect(
    pairs: list[_Pair],
    contacted: set[tuple[str, str]],
    now: float,
    frame: int,
) -> list[CollisionEvent]:
    """New contacts among the active agents, pairs in declaration order.

    The broad phase runs on the states themselves; a Box is built only for
    a pair within reach, whose overlap `obbs_overlap` then decides.
    """
    events = []
    for a, b, diag_a, diag_b, key in pairs:
        if (
            not (a.active and b.active)
            or circles_apart(a.x, a.y, diag_a, b.x, b.y, diag_b)
            or key in contacted
        ):
            continue
        box_a, box_b = a.box(), b.box()
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
    """Fold into (-pi, pi]; an infinite angle gives NaN.

    `%` is C's fmod with the result moved into [0, 2 pi): the same bits as
    `math.fmod` followed by the `<= 0` step, where `math.fmod` would raise
    on an infinite angle.
    """
    a = (angle + _PI) % _TWO_PI
    if a <= 0:
        a += _TWO_PI
    return a - _PI
