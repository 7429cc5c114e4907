"""Seeded resolution of scenario distributions into concrete scenarios.

One `random.Random(seed)` (Mersenne Twister) drives a whole sample.  Draws
happen in a fixed documented order: params in declaration order, then per
object (declaration order) its `declared_scalars`: placement, initial speed,
dims, and behavior arguments.  Only Range and Choice consume randomness;
constants and parameter references never touch the generator, so adding one
does not shift the values drawn for everything after it.  The variations of
one `sample_variations` call hold one copy of each part they all draw alike.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

from scenekit.dsl.nodes import (
    Absolute,
    ActionKind,
    AgentClass,
    BehaviorDef,
    Choice,
    Constant,
    DistanceToEgoBelow,
    ObjectDecl,
    ParamRef,
    Range,
    Relative,
    RequireCollision,
    RequireEgoSpeedAbove,
    Scalar,
    ScenarioAst,
    TimeElapsed,
    Trigger,
    declared_scalars,
)

_RETRY_CAP = 32


class SampleError(Exception):
    """A sampled value violates a constraint (bad dims, negative arc length, ...)."""


class VariationError(Exception):
    """Distinct variations cannot be produced (deterministic script or retry cap)."""


# --------------------------------------------------------------------------
# concrete (fully numeric) scenario types


@dataclass(frozen=True, slots=True)
class CAbsolute:
    x: float
    y: float
    heading_deg: float


@dataclass(frozen=True, slots=True)
class CRelative:
    kind: str  # "ahead" | "behind" | "left" | "right"
    ref: str
    amount: float


@dataclass(frozen=True, slots=True)
class COnLane:
    lane: str
    s: float


CSpatial = CAbsolute | CRelative | COnLane


@dataclass(frozen=True, slots=True)
class CTrigger:
    """Concrete trigger; kind is "distance" (obj, meters) or "time" (seconds)."""

    kind: str
    obj: str | None = None
    value: float = 0.0


@dataclass(frozen=True, slots=True)
class ConcreteBehavior:
    kind: ActionKind
    args: tuple[float, ...] = ()
    direction: str | None = None
    trigger: CTrigger | None = None  # None means unconditional (always on)


@dataclass(frozen=True, slots=True)
class ConcreteObject:
    name: str
    klass: AgentClass
    spatial: CSpatial
    init_speed: float
    dims: tuple[float, float]
    behavior: ConcreteBehavior | None = None


@dataclass(frozen=True, slots=True)
class CRequirement:
    """kind "collision" (coll_type optional) or "ego_speed_above" (value)."""

    kind: str
    coll_type: str | None = None
    value: float = 0.0


@dataclass(frozen=True, slots=True)
class ConcreteScenario:
    seed: int
    params: tuple[tuple[str, float], ...]
    objects: tuple[ConcreteObject, ...]
    requirements: tuple[CRequirement, ...] = ()
    termination: CTrigger | None = None

    def resolved_key(self) -> tuple:
        """Everything that identifies the sampled values, minus the seed."""
        return (self.params, self.objects, self.requirements, self.termination)


# The types `_shared` walks into: every other part of a scenario is a leaf.
_PARTS = {tuple, CAbsolute, CRelative, COnLane, CTrigger, ConcreteBehavior, ConcreteObject, CRequirement}

# --------------------------------------------------------------------------
# sampling


def sample_parameters(ast: ScenarioAst, seed: int) -> ConcreteScenario:
    """Resolve every distribution in the AST using the given seed."""
    rng = random.Random(seed)
    params: dict[str, float] = {}
    for p in ast.params:
        params[p.name] = _value(p.value, params, rng)

    behaviors = {b.name: b for b in ast.behaviors}
    objects = []
    for obj in ast.objects:
        objects.append(_sample_object(obj, behaviors, rng, params))

    requirements = []
    for req in ast.requirements:
        if isinstance(req, RequireCollision):
            requirements.append(CRequirement("collision", coll_type=req.coll_type))
        elif isinstance(req, RequireEgoSpeedAbove):
            requirements.append(CRequirement("ego_speed_above", value=_value(req.speed, params)))

    termination = _concrete_trigger(ast.termination, owner=None, params=params, bound={})

    return ConcreteScenario(
        seed=seed,
        params=tuple(sorted(params.items())),
        objects=tuple(objects),
        requirements=tuple(requirements),
        termination=termination,
    )


def sample_variations(ast: ScenarioAst, n: int, base_seed: int) -> list[ConcreteScenario]:
    """Sample n pairwise-distinct variations.

    Variation i uses seed base_seed + i.  When a draw collides with an earlier
    variation it is redrawn with seed + n + retry (retry = 1, 2, ...) up to a
    cap, after which VariationError is raised.  A script with no Range or
    Choice anywhere cannot vary, so n > 1 fails up front.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 1 and not _has_stochastic(ast):
        raise VariationError(
            "script contains no Range or Choice distribution; it cannot produce "
            f"{n} distinct variations"
        )
    seen: set[tuple] = set()
    shared: dict[tuple, object] = {}
    out: list[ConcreteScenario] = []
    for i in range(n):
        seed = base_seed + i
        scenario = sample_parameters(ast, seed)
        retry = 0
        while scenario.resolved_key() in seen:
            retry += 1
            if retry > _RETRY_CAP:
                raise VariationError(
                    f"gave up finding a distinct draw for variation {i} after {_RETRY_CAP} retries"
                )
            scenario = sample_parameters(ast, seed + n + retry)
        seen.add(scenario.resolved_key())
        out.append(_shared(scenario, shared))
    return out


def _shared(value, memo: dict):
    """`value` with each part an earlier variation already holds replaced
    by that variation's object, so what a script does not vary is stored
    once however many variations hold it.

    Parts match by the identity of their leaves.  A Constant or Choice value
    is the AST's own float object in every draw and each Range draw is a
    new one, so matching parts are equal bit for bit (0.0 never stands in
    for -0.0).  `memo` holds every part it keys, so the keyed ids stay unique.
    """
    cls = type(value)
    own = value if cls is tuple else [getattr(value, name) for name in cls.__slots__]
    # leaves (floats, ints, strings, enum members, None) are kept as they are
    parts = [_shared(v, memo) if type(v) in _PARTS else v for v in own]
    key = (cls, *map(id, parts))
    found = memo.get(key)
    if found is None:
        if all(map(operator.is_, parts, own)):
            found = value
        else:
            found = cls(parts) if cls is tuple else cls(*parts)
        memo[key] = found
    return found


def _has_stochastic(ast: ScenarioAst) -> bool:
    scalars = [p.value for p in ast.params]
    scalars += [s for obj in ast.objects for s in declared_scalars(obj)]
    return any(isinstance(s, (Range, Choice)) for s in scalars)


def _value(
    scalar: Scalar,
    params: dict[str, float],
    rng: random.Random | None = None,
    bound: dict[str, float] | None = None,
) -> float:
    """Resolve a scalar.  Only declaration sites pass `rng`, so a Range or
    Choice anywhere else (bodies, triggers, requirements) is a SampleError;
    behavior parameters in `bound` shadow params."""
    if isinstance(scalar, Constant):
        return scalar.value
    if isinstance(scalar, ParamRef):
        if bound is not None and scalar.name in bound:
            return bound[scalar.name]
        try:
            return params[scalar.name]
        except KeyError:
            raise SampleError(f"unresolved param {scalar.name!r}") from None
    if rng is None:
        raise SampleError(f"distribution {scalar!r} is not allowed outside declaration sites")
    if isinstance(scalar, Range):
        value = rng.uniform(scalar.lo, scalar.hi)
        if not math.isfinite(value):  # hi - lo overflows
            raise SampleError(
                f"Range({scalar.lo!r}, {scalar.hi!r}) drew {value!r}; hi - lo must be finite"
            )
        return value
    if isinstance(scalar, Choice):
        return rng.choice(scalar.values)
    raise TypeError(f"unknown scalar {scalar!r}")


def _sample_object(
    obj: ObjectDecl,
    behaviors: dict[str, BehaviorDef],
    rng: random.Random,
    params: dict[str, float],
) -> ConcreteObject:
    drawn = (_value(scalar, params, rng) for scalar in declared_scalars(obj))
    spatial = obj.spatial
    if isinstance(spatial, Absolute):
        cspatial: CSpatial = CAbsolute(next(drawn), next(drawn), next(drawn))
    elif isinstance(spatial, Relative):
        cspatial = CRelative(spatial.kind, spatial.ref, next(drawn))
    else:
        s = next(drawn)
        if s < 0:
            raise SampleError(f"object {obj.name!r}: lane position must be >= 0, got {s}")
        cspatial = COnLane(spatial.lane, s)

    init_speed = next(drawn)
    if obj.dims is not None:
        dims = (next(drawn), next(drawn))
        if dims[0] <= 0 or dims[1] <= 0:
            raise SampleError(f"object {obj.name!r}: dims must be positive, got {dims}")
    else:
        dims = obj.klass.default_dims

    behavior = None
    if obj.behavior is not None:
        bdef = behaviors[obj.behavior.name]
        args = tuple(drawn)
        bound = dict(zip(bdef.params, args))
        behavior = ConcreteBehavior(
            kind=bdef.action.kind,
            args=tuple(_value(a, params, bound=bound) for a in bdef.action.args),
            direction=bdef.action.direction,
            trigger=_concrete_trigger(bdef.trigger, owner=obj.name, params=params, bound=bound),
        )
    return ConcreteObject(obj.name, obj.klass, cspatial, init_speed, dims, behavior)


def _concrete_trigger(
    trigger: Trigger | None,
    owner: str | None,
    params: dict[str, float],
    bound: dict[str, float],
) -> CTrigger | None:
    if trigger is None:
        return None
    if isinstance(trigger, DistanceToEgoBelow):
        obj = trigger.obj if trigger.obj is not None else owner
        return CTrigger("distance", obj=obj, value=_value(trigger.meters, params, bound=bound))
    if isinstance(trigger, TimeElapsed):
        return CTrigger("time", value=_value(trigger.seconds, params, bound=bound))
    raise TypeError(f"unknown trigger {trigger!r}")
