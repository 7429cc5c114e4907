"""AST node types for scenario scripts.

Spans carry source locations for diagnostics and are excluded from equality,
so structurally identical scripts compare equal regardless of layout.
Headings in the surface language are degrees, counter-clockwise, 0 = +x.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

from scenekit.dsl.diagnostics import Span

_NO_SPAN = Span(0, 0, 0, 0)


class AgentClass(enum.Enum):
    CAR = "Car"
    TRUCK = "Truck"
    PEDESTRIAN = "Pedestrian"
    BICYCLE = "Bicycle"

    @property
    def is_vehicle(self) -> bool:
        return self in (AgentClass.CAR, AgentClass.TRUCK)

    @property
    def default_dims(self) -> tuple[float, float]:
        """(length, width) in metres."""
        return _DEFAULT_DIMS[self]


_DEFAULT_DIMS = {
    AgentClass.CAR: (4.5, 2.0),
    AgentClass.TRUCK: (8.0, 2.5),
    AgentClass.PEDESTRIAN: (0.5, 0.5),
    AgentClass.BICYCLE: (1.8, 0.6),
}

# Collision names accepted by `require collision of <name>`.
COLLISION_TYPE_NAMES = (
    "vehicle-cyclist",
    "vehicle-pedestrian",
    "t-bone",
    "rear-end",
    "other",
)


# --------------------------------------------------------------------------
# scalar expressions


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Range:
    """Uniform draw over [lo, hi).  Requires lo < hi."""

    lo: float
    hi: float


@dataclass(frozen=True)
class Choice:
    """Uniform draw over a non-empty tuple of values."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class ParamRef:
    name: str


Scalar = Constant | Range | Choice | ParamRef
Distribution = Constant | Range | Choice


# --------------------------------------------------------------------------
# spatial specifications


@dataclass(frozen=True)
class Absolute:
    x: Scalar
    y: Scalar
    heading: Scalar = Constant(0.0)


@dataclass(frozen=True)
class Relative:
    """`ahead of`, `behind`, `left of` or `right of` REF `by` AMOUNT.

    kind is "ahead", "behind", "left" or "right", the kinds the sim places by.
    """

    kind: str
    ref: str
    amount: Scalar


@dataclass(frozen=True)
class OnLane:
    lane: str
    s: Scalar


SpatialSpec = Absolute | Relative | OnLane


# --------------------------------------------------------------------------
# triggers


@dataclass(frozen=True)
class DistanceToEgoBelow:
    """Fires once the named object's centre is closer to ego than `meters`.

    obj None means the owning agent (the behavior's host).
    """

    meters: Scalar
    obj: str | None = None


@dataclass(frozen=True)
class TimeElapsed:
    seconds: Scalar


Trigger = DistanceToEgoBelow | TimeElapsed


# --------------------------------------------------------------------------
# behaviors


class ActionKind(enum.Enum):
    FOLLOW_LANE = "follow_lane"
    BRAKE = "brake"
    CROSS = "cross"
    CUT_IN = "cut_in"
    IDLE = "idle"
    STOP = "stop"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    args: tuple[Scalar, ...] = ()
    direction: str | None = None  # cross: left/right/forward, cut_in: left/right


@dataclass(frozen=True)
class BehaviorDef:
    name: str
    params: tuple[str, ...]
    action: Action
    trigger: Trigger | None = None  # None: `when always`, or no `when` clause
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class BehaviorRef:
    name: str
    args: tuple[Scalar, ...] = ()


# --------------------------------------------------------------------------
# declarations and statements


@dataclass(frozen=True)
class ParamDecl:
    name: str
    value: Distribution
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class ObjectDecl:
    name: str
    klass: AgentClass
    spatial: SpatialSpec
    init_speed: Scalar = Constant(0.0)
    dims: tuple[Scalar, Scalar] | None = None
    behavior: BehaviorRef | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class RequireCollision:
    """`require collision [of <name>]`; None accepts any collision."""

    coll_type: str | None = None
    span: Span = field(default=_NO_SPAN, compare=False)


@dataclass(frozen=True)
class RequireEgoSpeedAbove:
    """`require ego speed above <v> at collision`."""

    speed: Scalar
    span: Span = field(default=_NO_SPAN, compare=False)


Requirement = RequireCollision | RequireEgoSpeedAbove


@dataclass(frozen=True)
class ScenarioAst:
    params: tuple[ParamDecl, ...] = ()
    behaviors: tuple[BehaviorDef, ...] = ()
    objects: tuple[ObjectDecl, ...] = ()
    requirements: tuple[Requirement, ...] = ()
    termination: Trigger | None = None


def declared_scalars(obj: ObjectDecl) -> Iterator[Scalar]:
    """An object's declaration-site scalars, in the order the sampler draws them.

    Placement first (x, y, heading; a relative amount; a lane position), then
    initial speed, dims (length, width) when given, and behavior arguments.
    """
    spatial = obj.spatial
    if isinstance(spatial, Absolute):
        yield from (spatial.x, spatial.y, spatial.heading)
    elif isinstance(spatial, Relative):
        yield spatial.amount
    else:
        yield spatial.s
    yield obj.init_speed
    if obj.dims is not None:
        yield from obj.dims
    if obj.behavior is not None:
        yield from obj.behavior.args
