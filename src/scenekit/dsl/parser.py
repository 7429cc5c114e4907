"""Recursive-descent parser for scenario scripts.

Statements are line oriented.  A behavior definition is the one exception:
when nothing follows the colon, its body is taken from the next line.  The
parser recovers per line, so one pass reports every malformed statement
instead of stopping at the first.
"""

from __future__ import annotations

from scenekit.dsl.diagnostics import Diagnostic, Severity, Span, has_errors
from scenekit.dsl.nodes import (
    Absolute,
    Action,
    ActionKind,
    AgentClass,
    BehaviorDef,
    BehaviorRef,
    Choice,
    Constant,
    DistanceToEgoBelow,
    Distribution,
    ObjectDecl,
    OnLane,
    ParamDecl,
    ParamRef,
    Range,
    Relative,
    RequireCollision,
    RequireEgoSpeedAbove,
    Requirement,
    Scalar,
    ScenarioAst,
    SpatialSpec,
    TimeElapsed,
    Trigger,
)
from scenekit.dsl.tokens import Token, TokenKind

RESERVED = frozenset(
    """
    param behavior new at facing ahead behind left right of by on lane with
    speed dims require terminate when collision time distance from to below
    above always follow brake cross cut in idle stop forward
    Range Choice Car Truck Pedestrian Bicycle
    """.split()
)

_CLASSES = {c.value: c for c in AgentClass}


class _Abort(Exception):
    """Carries the diagnostic for an unparseable line."""

    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Cursor:
    """Token cursor over a single logical line."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> Token | None:
        return None if self.at_end() else self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _here(self) -> Span:
        if not self.at_end():
            return self.tokens[self.pos].span
        last = self.tokens[-1].span
        return Span(last.end_line, last.end_col, last.end_line, last.end_col + 1)

    def _found(self) -> str:
        tok = self.peek()
        return "end of line" if tok is None else repr(tok.text)

    def fail(self, expected: str) -> "_Abort":
        return _Abort(
            Diagnostic(
                Severity.ERROR,
                self._here(),
                "E_SYNTAX",
                f"expected {expected}, found {self._found()}",
            )
        )

    def accept_word(self, *texts: str) -> Token | None:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.WORD and tok.text in texts:
            return self.take()
        return None

    def expect_word(self, text: str) -> Token:
        tok = self.accept_word(text)
        if tok is None:
            raise self.fail(f"'{text}'")
        return tok

    def expect_kind(self, kind: TokenKind, desc: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not kind:
            raise self.fail(desc)
        return self.take()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.WORD:
            raise self.fail(what)
        if tok.text in RESERVED:
            raise _Abort(
                Diagnostic(
                    Severity.ERROR,
                    tok.span,
                    "E_SYNTAX",
                    f"{tok.text!r} is a reserved word and cannot be used as {what}",
                )
            )
        return self.take()

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.fail("end of statement")


def parse(tokens: list[Token]) -> tuple[ScenarioAst | None, list[Diagnostic]]:
    """Parse a token stream into a scenario AST.

    Returns (ast, diagnostics); the AST is None whenever any Error-severity
    diagnostic was produced.  An empty stream yields E_EMPTY_SCRIPT, a stream
    whose objects never include one named `ego` yields E_NO_EGO.
    """
    diags: list[Diagnostic] = []
    if not tokens:
        diags.append(
            Diagnostic(Severity.ERROR, Span.point(1, 1), "E_EMPTY_SCRIPT", "script has no statements")
        )
        return None, diags

    lines = _split_lines(tokens)
    params: list[ParamDecl] = []
    behaviors: list[BehaviorDef] = []
    objects: list[ObjectDecl] = []
    requirements: list[Requirement] = []
    termination: Trigger | None = None
    termination_span: Span | None = None

    idx = 0
    while idx < len(lines):
        cur = _Cursor(lines[idx])
        idx += 1
        head = cur.peek()
        try:
            if head.kind is not TokenKind.WORD:
                raise cur.fail("a statement keyword or object name")
            if head.text == "param":
                params.append(_parse_param(cur))
            elif head.text == "behavior":
                body: _Cursor | None = None
                if _header_only(cur.tokens):
                    if idx >= len(lines):
                        raise _Abort(
                            Diagnostic(
                                Severity.ERROR,
                                head.span,
                                "E_SYNTAX",
                                "behavior definition has no body",
                            )
                        )
                    body = _Cursor(lines[idx])
                    idx += 1
                behaviors.append(_parse_behavior(cur, body))
            elif head.text == "require":
                requirements.append(_parse_require(cur))
            elif head.text == "terminate":
                trig, span = _parse_terminate(cur)
                if termination is not None:
                    raise _Abort(
                        Diagnostic(
                            Severity.ERROR,
                            span,
                            "E_SYNTAX",
                            "script already has a terminate statement",
                        )
                    )
                termination, termination_span = trig, span
            else:
                objects.append(_parse_object(cur))
        except _Abort as abort:
            diags.append(abort.diag)

    had_bad_lines = bool(diags)  # each diagnostic so far dropped a statement
    _check_structure(params, behaviors, objects, diags, had_bad_lines)

    if has_errors(diags):
        return None, diags
    return (
        ScenarioAst(
            params=tuple(params),
            behaviors=tuple(behaviors),
            objects=tuple(objects),
            requirements=tuple(requirements),
            termination=termination,
        ),
        diags,
    )


def _split_lines(tokens: list[Token]) -> list[list[Token]]:
    lines: list[list[Token]] = []
    current: list[Token] = []
    current_line = tokens[0].span.line
    for tok in tokens:
        if tok.span.line != current_line:
            lines.append(current)
            current = []
            current_line = tok.span.line
        current.append(tok)
    if current:
        lines.append(current)
    return lines


def _header_only(tokens: list[Token]) -> bool:
    """True when a behavior line ends at its colon."""
    return bool(tokens) and tokens[-1].kind is TokenKind.COLON


# --------------------------------------------------------------------------
# statement parsers


def _parse_param(cur: _Cursor) -> ParamDecl:
    kw = cur.expect_word("param")
    name = cur.expect_ident("a parameter name")
    cur.expect_kind(TokenKind.EQUALS, "'='")
    value = _parse_distribution(cur)
    cur.expect_end()
    return ParamDecl(name.text, value, span=_stmt_span(kw, name))


def _parse_behavior(cur: _Cursor, body: _Cursor | None) -> BehaviorDef:
    kw = cur.expect_word("behavior")
    name = cur.expect_ident("a behavior name")
    cur.expect_kind(TokenKind.LPAREN, "'('")
    params: list[str] = []
    while cur.peek() is not None and cur.peek().kind is not TokenKind.RPAREN:
        params.append(cur.expect_ident("a behavior parameter name").text)
    cur.expect_kind(TokenKind.RPAREN, "')'")
    cur.expect_kind(TokenKind.COLON, "':'")
    if body is None:
        body = cur  # inline body on the same line
    action = _parse_action(body)
    trigger = _parse_trigger(body) if body.accept_word("when") else None
    body.expect_end()
    cur.expect_end()
    return BehaviorDef(name.text, tuple(params), action, trigger, span=_stmt_span(kw, name))


def _parse_object(cur: _Cursor) -> ObjectDecl:
    name = cur.expect_ident("a statement keyword or object name")
    cur.expect_kind(TokenKind.EQUALS, "'='")
    cur.expect_word("new")
    cls_tok = cur.expect_kind(TokenKind.WORD, "an agent class (Car, Truck, Pedestrian, Bicycle)")
    klass = _CLASSES.get(cls_tok.text)
    if klass is None:
        raise _Abort(
            Diagnostic(
                Severity.ERROR,
                cls_tok.span,
                "E_SYNTAX",
                f"unknown agent class {cls_tok.text!r}; expected Car, Truck, Pedestrian, or Bicycle",
            )
        )
    spatial = _parse_spatial(cur)

    init_speed: Scalar = Constant(0.0)
    dims: tuple[Scalar, Scalar] | None = None
    behavior: BehaviorRef | None = None
    seen: set[str] = set()
    while cur.accept_word("with"):
        clause = cur.peek()
        if clause is None or clause.kind is not TokenKind.WORD:
            raise cur.fail("'speed', 'dims', or 'behavior'")
        if clause.text in seen:
            raise _Abort(
                Diagnostic(
                    Severity.ERROR,
                    clause.span,
                    "E_SYNTAX",
                    f"duplicate 'with {clause.text}' clause",
                )
            )
        seen.add(clause.text)
        if cur.accept_word("speed"):
            init_speed = _parse_scalar(cur, "a speed value")
        elif cur.accept_word("dims"):
            cur.expect_kind(TokenKind.LPAREN, "'('")
            length = _parse_scalar(cur, "a length value")
            width = _parse_scalar(cur, "a width value")
            cur.expect_kind(TokenKind.RPAREN, "')'")
            dims = (length, width)
        elif cur.accept_word("behavior"):
            bname = cur.expect_ident("a behavior name")
            args: list[Scalar] = []
            if cur.peek() is not None and cur.peek().kind is TokenKind.LPAREN:
                cur.take()
                while cur.peek() is not None and cur.peek().kind is not TokenKind.RPAREN:
                    args.append(_parse_scalar(cur, "a behavior argument"))
                cur.expect_kind(TokenKind.RPAREN, "')'")
            behavior = BehaviorRef(bname.text, tuple(args))
        else:
            raise cur.fail("'speed', 'dims', or 'behavior'")
    cur.expect_end()
    return ObjectDecl(
        name.text,
        klass,
        spatial,
        init_speed=init_speed,
        dims=dims,
        behavior=behavior,
        span=_stmt_span(name, name),
    )


def _parse_spatial(cur: _Cursor) -> SpatialSpec:
    if cur.accept_word("at"):
        cur.expect_kind(TokenKind.LPAREN, "'('")
        x = _parse_scalar(cur, "an x coordinate")
        y = _parse_scalar(cur, "a y coordinate")
        cur.expect_kind(TokenKind.RPAREN, "')'")
        heading: Scalar = Constant(0.0)
        if cur.accept_word("facing"):
            heading = _parse_scalar(cur, "a heading in degrees")
        return Absolute(x, y, heading)
    kind = cur.accept_word("ahead", "behind", "left", "right")
    if kind is not None:
        if kind.text != "behind":
            cur.expect_word("of")
        ref = cur.expect_ident("an object name")
        cur.expect_word("by")
        what = "an offset" if kind.text in ("left", "right") else "a distance"
        return Relative(kind.text, ref.text, _parse_scalar(cur, what))
    if cur.accept_word("on"):
        cur.expect_word("lane")
        lane = cur.expect_ident("a lane id")
        cur.expect_word("at")
        return OnLane(lane.text, _parse_scalar(cur, "an arc-length position"))
    raise cur.fail("a placement ('at', 'ahead of', 'behind', 'left of', 'right of', 'on lane')")


def _parse_action(cur: _Cursor) -> Action:
    if cur.accept_word("follow"):
        cur.expect_word("lane")
        cur.expect_word("at")
        return Action(ActionKind.FOLLOW_LANE, (_parse_body_scalar(cur, "a target speed"),))
    if cur.accept_word("brake"):
        cur.expect_word("at")
        return Action(ActionKind.BRAKE, (_parse_body_scalar(cur, "a deceleration rate"),))
    if cur.accept_word("cross"):
        direction = cur.accept_word("left", "right", "forward")
        if direction is None:
            raise cur.fail("'left', 'right', or 'forward'")
        cur.expect_word("at")
        return Action(
            ActionKind.CROSS,
            (_parse_body_scalar(cur, "a crossing speed"),),
            direction=direction.text,
        )
    if cur.accept_word("cut"):
        cur.expect_word("in")
        direction = cur.accept_word("left", "right")
        if direction is None:
            raise cur.fail("'left' or 'right'")
        cur.expect_word("at")
        return Action(
            ActionKind.CUT_IN,
            (_parse_body_scalar(cur, "a lateral rate"),),
            direction=direction.text,
        )
    if cur.accept_word("idle"):
        return Action(ActionKind.IDLE)
    if cur.accept_word("stop"):
        return Action(ActionKind.STOP)
    raise cur.fail("an action ('follow lane', 'brake', 'cross', 'cut in', 'idle', 'stop')")


def _parse_trigger(
    cur: _Cursor, expected: str = "a trigger ('distance ... to ego below', 'time above', 'always')"
) -> Trigger | None:
    """The trigger after `when`; None for `always`.  `expected` names what may stand here."""
    if cur.accept_word("distance"):
        obj: str | None = None
        if cur.accept_word("from"):
            obj = cur.expect_ident("an object name").text
        cur.expect_word("to")
        cur.expect_word("ego")
        cur.expect_word("below")
        return DistanceToEgoBelow(_parse_body_scalar(cur, "a distance threshold"), obj)
    if cur.accept_word("time"):
        cur.expect_word("above")
        return TimeElapsed(_parse_body_scalar(cur, "a time threshold"))
    if cur.accept_word("always"):
        return None
    raise cur.fail(expected)


def _parse_require(cur: _Cursor) -> Requirement:
    kw = cur.expect_word("require")
    if cur.accept_word("collision"):
        coll_type: str | None = None
        span = _stmt_span(kw, kw)
        if cur.accept_word("of"):
            name = cur.expect_kind(TokenKind.WORD, "a collision type name")
            coll_type = name.text
            span = _stmt_span(kw, name)
        cur.expect_end()
        return RequireCollision(coll_type, span=span)
    if cur.accept_word("ego"):
        cur.expect_word("speed")
        cur.expect_word("above")
        speed = _parse_body_scalar(cur, "a speed threshold")
        cur.expect_word("at")
        cur.expect_word("collision")
        cur.expect_end()
        return RequireEgoSpeedAbove(speed, span=_stmt_span(kw, kw))
    raise cur.fail("'collision' or 'ego speed above'")


def _parse_terminate(cur: _Cursor) -> tuple[Trigger, Span]:
    kw = cur.expect_word("terminate")
    cur.expect_word("when")
    expected = "a terminate trigger ('time above', 'distance from ... to ego below')"
    if cur.peek() is not None and cur.peek().text == "always":
        # `always` is a behavior trigger only, see docs/language.md
        raise cur.fail(expected)
    trig = _parse_trigger(cur, expected)
    cur.expect_end()
    return trig, kw.span


# --------------------------------------------------------------------------
# scalar parsers


def _parse_distribution(cur: _Cursor) -> Distribution:
    tok = cur.peek()
    if tok is not None and tok.kind is TokenKind.NUMBER:
        return Constant(cur.take().value)
    if tok is not None and tok.kind is TokenKind.WORD and tok.text in ("Range", "Choice"):
        return _parse_range_or_choice(cur)
    raise cur.fail("a number, Range(lo, hi), or Choice[...]")


def _parse_scalar(cur: _Cursor, what: str) -> Scalar:
    """Scalar at a declaration site: literal, parameter reference, or distribution."""
    tok = cur.peek()
    if tok is None:
        raise cur.fail(what)
    if tok.kind is TokenKind.NUMBER:
        return Constant(cur.take().value)
    if tok.kind is TokenKind.WORD and tok.text in ("Range", "Choice"):
        return _parse_range_or_choice(cur)
    if tok.kind is TokenKind.WORD and tok.text not in RESERVED:
        return ParamRef(cur.take().text)
    raise cur.fail(what)


def _parse_body_scalar(cur: _Cursor, what: str) -> Scalar:
    """Scalar inside behavior bodies, triggers, and requirements.

    Distributions are not allowed here; randomness lives only at declaration
    sites so every variation resolves each site exactly once.
    """
    tok = cur.peek()
    if tok is None:
        raise cur.fail(what)
    if tok.kind is TokenKind.NUMBER:
        return Constant(cur.take().value)
    if tok.kind is TokenKind.WORD and tok.text in ("Range", "Choice"):
        raise _Abort(
            Diagnostic(
                Severity.ERROR,
                tok.span,
                "E_SYNTAX",
                f"distributions are not allowed here; bind {tok.text} to a param instead",
            )
        )
    if tok.kind is TokenKind.WORD and tok.text not in RESERVED:
        return ParamRef(cur.take().text)
    raise cur.fail(what)


def _parse_range_or_choice(cur: _Cursor) -> Distribution:
    head = cur.take()
    if head.text == "Range":
        cur.expect_kind(TokenKind.LPAREN, "'('")
        lo = cur.expect_kind(TokenKind.NUMBER, "a number")
        hi = cur.expect_kind(TokenKind.NUMBER, "a number")
        close = cur.expect_kind(TokenKind.RPAREN, "')'")
        if not lo.value < hi.value:
            raise _Abort(
                Diagnostic(
                    Severity.ERROR,
                    Span(head.span.line, head.span.col, close.span.end_line, close.span.end_col),
                    "E_EMPTY_RANGE",
                    f"Range requires lo < hi, got ({lo.text}, {hi.text})",
                )
            )
        return Range(lo.value, hi.value)
    cur.expect_kind(TokenKind.LBRACKET, "'['")
    values: list[float] = []
    while cur.peek() is not None and cur.peek().kind is TokenKind.NUMBER:
        values.append(cur.take().value)
    close = cur.expect_kind(TokenKind.RBRACKET, "']'")
    if not values:
        raise _Abort(
            Diagnostic(
                Severity.ERROR,
                Span(head.span.line, head.span.col, close.span.end_line, close.span.end_col),
                "E_EMPTY_CHOICE",
                "Choice requires at least one value",
            )
        )
    return Choice(tuple(values))


# --------------------------------------------------------------------------
# structural checks


def _check_structure(
    params: list[ParamDecl],
    behaviors: list[BehaviorDef],
    objects: list[ObjectDecl],
    diags: list[Diagnostic],
    had_bad_lines: bool,
) -> None:
    seen_params: set[str] = set()
    for p in params:
        if p.name in seen_params:
            diags.append(
                Diagnostic(Severity.ERROR, p.span, "E_DUP_PARAM", f"duplicate param {p.name!r}")
            )
        seen_params.add(p.name)

    seen_behaviors: set[str] = set()
    for b in behaviors:
        if b.name in seen_behaviors:
            diags.append(
                Diagnostic(
                    Severity.ERROR, b.span, "E_DUP_BEHAVIOR", f"duplicate behavior {b.name!r}"
                )
            )
        seen_behaviors.add(b.name)

    seen_objects: set[str] = set()
    ego: ObjectDecl | None = None
    for obj in objects:
        if obj.name in seen_objects:
            diags.append(
                Diagnostic(
                    Severity.ERROR, obj.span, "E_DUP_OBJECT", f"duplicate object {obj.name!r}"
                )
            )
        seen_objects.add(obj.name)
        if obj.name == "ego" and ego is None:
            ego = obj

    if ego is None:
        # A malformed line may be the ego declaration, so stay quiet then.
        if not had_bad_lines:
            span = objects[0].span if objects else Span.point(1, 1)
            diags.append(
                Diagnostic(Severity.ERROR, span, "E_NO_EGO", "script declares no object named 'ego'")
            )
    elif not ego.klass.is_vehicle:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                ego.span,
                "E_EGO_CLASS",
                f"ego must be a Car or Truck, not {ego.klass.value}",
            )
        )


def _stmt_span(first: Token, last: Token) -> Span:
    return Span(first.span.line, first.span.col, last.span.end_line, last.span.end_col)
