"""Semantic checks over a parsed scenario AST.

Validation covers cross references the parser cannot see: spatial anchors,
behavior bindings, parameter references, trigger objects, and collision type
names.  Spatial references must point at objects declared earlier; mutual
references are reported once per cycle rather than once per member.
"""

from __future__ import annotations

from scenekit.dsl.diagnostics import Diagnostic, Severity, Span
from scenekit.dsl.nodes import (
    Choice,
    CollisionClass,
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


def validate(ast: ScenarioAst) -> list[Diagnostic]:
    """Return diagnostics for an AST that already parsed cleanly.

    The scenario is executable when the result contains no Error-severity
    entries; warnings (unused params, unused behaviors) do not block.
    """
    diags: list[Diagnostic] = []
    param_names = {p.name for p in ast.params}
    object_index = {obj.name: i for i, obj in enumerate(ast.objects)}
    behaviors = {b.name: b for b in ast.behaviors}
    used_params: set[str] = set()
    used_behaviors: set[str] = set()

    def check_scalar(scalar: Scalar, span: Span, local: tuple[str, ...] = ()) -> None:
        """A param reference must name a behavior parameter in `local` or a param."""
        if isinstance(scalar, ParamRef) and scalar.name not in local:
            if scalar.name in param_names:
                used_params.add(scalar.name)
            else:
                diags.append(_err(span, "E_UNRESOLVED_REF", f"unknown param {scalar.name!r}"))
        elif not isinstance(scalar, (Constant, Range, Choice, ParamRef)):
            raise TypeError(f"unknown scalar {scalar!r}")

    def check_trigger(
        trigger: Trigger | None, span: Span, local: tuple[str, ...] = (), implicit_ok: bool = True
    ) -> None:
        if isinstance(trigger, DistanceToEgoBelow):
            if trigger.obj is None:
                if not implicit_ok:
                    diags.append(
                        _err(
                            span,
                            "E_TRIGGER_NO_OBJECT",
                            "terminate triggers must name an object: "
                            "'distance from <obj> to ego below ...'",
                        )
                    )
            elif trigger.obj not in object_index:
                diags.append(_err(span, "E_UNRESOLVED_REF", f"unknown object {trigger.obj!r}"))
            check_scalar(trigger.meters, span, local)
        elif isinstance(trigger, TimeElapsed):
            check_scalar(trigger.seconds, span, local)
        elif trigger is not None:
            raise TypeError(f"unknown trigger {trigger!r}")

    cycle_members = _spatial_cycles(ast.objects, object_index, diags)

    for i, obj in enumerate(ast.objects):
        if isinstance(obj.spatial, Relative):
            ref = obj.spatial.ref
            if ref not in object_index:
                diags.append(_err(obj.span, "E_UNRESOLVED_REF", f"unknown object {ref!r}"))
            elif object_index[ref] >= i and obj.name not in cycle_members:
                diags.append(
                    _err(
                        obj.span,
                        "E_FORWARD_REF",
                        f"{obj.name!r} is placed relative to {ref!r}, which is declared later",
                    )
                )
        # Behavior arguments are checked after the behavior binding below, so
        # E_BAD_DIMS and binding errors come before their unknown params.
        scalars = list(declared_scalars(obj))
        args = obj.behavior.args if obj.behavior is not None else ()
        for scalar in scalars[: len(scalars) - len(args)]:
            check_scalar(scalar, obj.span)
        if obj.dims is not None and all(isinstance(s, Constant) for s in obj.dims):
            length, width = (s.value for s in obj.dims)
            if length <= 0 or width <= 0:
                diags.append(
                    _err(obj.span, "E_BAD_DIMS", f"dims must be positive, got ({length}, {width})")
                )
        if obj.behavior is not None:
            used_behaviors.add(obj.behavior.name)
            bdef = behaviors.get(obj.behavior.name)
            if bdef is None:
                diags.append(
                    _err(obj.span, "E_UNRESOLVED_REF", f"unknown behavior {obj.behavior.name!r}")
                )
            elif len(obj.behavior.args) != len(bdef.params):
                diags.append(
                    _err(
                        obj.span,
                        "E_BEHAVIOR_ARITY",
                        f"behavior {bdef.name!r} takes {len(bdef.params)} argument(s), "
                        f"got {len(obj.behavior.args)}",
                    )
                )
        for arg in args:
            check_scalar(arg, obj.span)

    for bdef in ast.behaviors:
        for scalar in bdef.action.args:
            check_scalar(scalar, bdef.span, bdef.params)
        check_trigger(bdef.trigger, bdef.span, bdef.params)

    for req in ast.requirements:
        if isinstance(req, RequireCollision):
            names = [c.value for c in CollisionClass]
            if req.coll_type is not None and req.coll_type not in names:
                diags.append(
                    _err(
                        req.span,
                        "E_UNKNOWN_COLLISION_TYPE",
                        f"unknown collision type {req.coll_type!r}; expected one of {', '.join(names)}",
                    )
                )
        elif isinstance(req, RequireEgoSpeedAbove):
            check_scalar(req.speed, req.span)

    check_trigger(ast.termination, ast.termination_span, implicit_ok=False)

    for p in ast.params:
        if p.name not in used_params:
            diags.append(
                Diagnostic(
                    Severity.WARNING, p.span, "W_UNUSED_PARAM", f"param {p.name!r} is never used"
                )
            )
    for b in ast.behaviors:
        if b.name not in used_behaviors:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    b.span,
                    "W_UNUSED_BEHAVIOR",
                    f"behavior {b.name!r} is never attached to an object",
                )
            )
    return diags


def _err(span: Span, code: str, message: str) -> Diagnostic:
    return Diagnostic(Severity.ERROR, span, code, message)


def _spatial_cycles(
    objects: tuple[ObjectDecl, ...],
    object_index: dict[str, int],
    diags: list[Diagnostic],
) -> set[str]:
    """Detect reference cycles among relative placements.

    Every object has at most one spatial anchor, so the graph is functional
    and each node lies on at most one cycle.  One diagnostic is emitted per
    cycle, attached to its earliest-declared member; the full member set is
    returned so callers can skip forward-reference reporting for them.
    """
    succ: dict[str, str] = {}
    for obj in objects:
        if isinstance(obj.spatial, Relative) and obj.spatial.ref in object_index:
            succ[obj.name] = obj.spatial.ref

    members: set[str] = set()
    state: dict[str, int] = {}  # 1 = on current walk, 2 = done
    for start in succ:
        if state.get(start) == 2:
            continue
        walk: list[str] = []
        node: str | None = start
        while node is not None and state.get(node) is None:
            state[node] = 1
            walk.append(node)
            node = succ.get(node)
        if node is not None and state.get(node) == 1:
            cycle = walk[walk.index(node):]
            members.update(cycle)
            first = min(cycle, key=lambda n: object_index[n])
            chain = " -> ".join(cycle + [cycle[0]])
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    objects[object_index[first]].span,
                    "E_CIRCULAR_SPATIAL",
                    f"circular placement: {chain}",
                )
            )
        for visited in walk:
            state[visited] = 2
    return members
