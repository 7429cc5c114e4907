"""Canonical pretty-printer for scenario ASTs.

The output layout is fixed: params, then behaviors, then objects, then
requirements, then termination, with one blank line between non-empty
sections.  Formatting is a pure function of the AST, so formatting the parse
of formatted output reproduces the same bytes (idempotence), and parsing
formatted output reproduces a structurally equal AST.
"""

from __future__ import annotations

from scenekit.dsl.nodes import (
    Absolute,
    Action,
    ActionKind,
    BehaviorDef,
    Choice,
    Constant,
    DistanceToEgoBelow,
    ObjectDecl,
    OnLane,
    ParamRef,
    Range,
    Relative,
    RequireCollision,
    RequireEgoSpeedAbove,
    Scalar,
    ScenarioAst,
    TimeElapsed,
    Trigger,
)

_INDENT = "    "


def format_script(ast: ScenarioAst) -> str:
    """Render an AST as canonical script text with a trailing newline."""
    sections: list[str] = []
    if ast.params:
        sections.append("\n".join(f"param {p.name} = {_scalar(p.value)}" for p in ast.params))
    if ast.behaviors:
        sections.append("\n\n".join(_behavior(b) for b in ast.behaviors))
    if ast.objects:
        sections.append("\n".join(_object(o) for o in ast.objects))
    if ast.requirements:
        sections.append("\n".join(_requirement(r) for r in ast.requirements))
    if ast.termination is not None:
        sections.append(f"terminate when {_trigger(ast.termination)}")
    return "\n\n".join(sections) + "\n"


def _scalar(s: Scalar) -> str:
    if isinstance(s, Constant):
        return _num(s.value)
    if isinstance(s, ParamRef):
        return s.name
    if isinstance(s, Range):
        return f"Range({_num(s.lo)}, {_num(s.hi)})"
    if isinstance(s, Choice):
        return "Choice[" + ", ".join(_num(v) for v in s.values) + "]"
    raise TypeError(f"unknown scalar {s!r}")


def _num(v: float) -> str:
    return repr(float(v))


def _behavior(b: BehaviorDef) -> str:
    header = f"behavior {b.name}({', '.join(b.params)}):"
    body = _action(b.action)
    if b.trigger is not None:
        body += f" when {_trigger(b.trigger)}"
    return f"{header}\n{_INDENT}{body}"


def _action(a: Action) -> str:
    if a.kind is ActionKind.FOLLOW_LANE:
        return f"follow lane at {_scalar(a.args[0])}"
    if a.kind is ActionKind.BRAKE:
        return f"brake at {_scalar(a.args[0])}"
    if a.kind is ActionKind.CROSS:
        return f"cross {a.direction} at {_scalar(a.args[0])}"
    if a.kind is ActionKind.CUT_IN:
        return f"cut in {a.direction} at {_scalar(a.args[0])}"
    if a.kind is ActionKind.IDLE:
        return "idle"
    if a.kind is ActionKind.STOP:
        return "stop"
    raise TypeError(f"unknown action {a!r}")


def _trigger(t: Trigger) -> str:
    if isinstance(t, DistanceToEgoBelow):
        if t.obj is None:
            return f"distance to ego below {_scalar(t.meters)}"
        return f"distance from {t.obj} to ego below {_scalar(t.meters)}"
    if isinstance(t, TimeElapsed):
        return f"time above {_scalar(t.seconds)}"
    raise TypeError(f"unknown trigger {t!r}")


def _object(o: ObjectDecl) -> str:
    parts = [f"{o.name} = new {o.klass.value} {_spatial(o.spatial)}"]
    if o.init_speed != Constant(0.0):
        parts.append(f"with speed {_scalar(o.init_speed)}")
    if o.dims is not None:
        parts.append(f"with dims ({_scalar(o.dims[0])}, {_scalar(o.dims[1])})")
    if o.behavior is not None:
        args = ", ".join(_scalar(a) for a in o.behavior.args)
        parts.append(f"with behavior {o.behavior.name}({args})")
    return " ".join(parts)


def _spatial(s) -> str:
    if isinstance(s, Absolute):
        base = f"at ({_scalar(s.x)}, {_scalar(s.y)})"
        if s.heading != Constant(0.0):
            base += f" facing {_scalar(s.heading)}"
        return base
    if isinstance(s, Relative):
        of = "" if s.kind == "behind" else " of"
        return f"{s.kind}{of} {s.ref} by {_scalar(s.amount)}"
    if isinstance(s, OnLane):
        return f"on lane {s.lane} at {_scalar(s.s)}"
    raise TypeError(f"unknown spatial spec {s!r}")


def _requirement(r) -> str:
    if isinstance(r, RequireCollision):
        if r.coll_type is None:
            return "require collision"
        return f"require collision of {r.coll_type}"
    if isinstance(r, RequireEgoSpeedAbove):
        return f"require ego speed above {_scalar(r.speed)} at collision"
    raise TypeError(f"unknown requirement {r!r}")
