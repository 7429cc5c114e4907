from scenekit.dsl import (
    Absolute,
    Action,
    ActionKind,
    AgentClass,
    BehaviorDef,
    BehaviorRef,
    Choice,
    Constant,
    DistanceToEgoBelow,
    OnLane,
    ParamRef,
    Range,
    Relative,
    RequireCollision,
    RequireEgoSpeedAbove,
    TimeElapsed,
    parse,
    tokenize,
)
from scenekit.dsl.diagnostics import Severity


def parse_text(text):
    tokens, lex_diags = tokenize(text)
    assert not lex_diags
    return parse(tokens)


def errors(diags):
    return [d for d in diags if d.severity is Severity.ERROR]


FULL = """
param gap = Range(20.0, 35.0)
param pace = Choice[10.0, 12.0, 14.0]

behavior Cruise(v):
    follow lane at v

behavior Dart(v):
    cross left at v when distance to ego below 12.0

ego = new Car on lane main_a at 15.0 with speed pace with behavior Cruise(pace)
walker = new Pedestrian ahead of ego by gap with behavior Dart(1.8)
prop = new Truck at (3.0, -4.5) facing 90.0 with dims (7.5, 2.4)

require collision of vehicle-pedestrian
require ego speed above 2.0 at collision

terminate when time above 20.0
"""


def test_full_script_shapes():
    ast, diags = parse_text(FULL)
    assert not errors(diags)
    assert [p.name for p in ast.params] == ["gap", "pace"]
    assert ast.params[0].value == Range(20.0, 35.0)
    assert ast.params[1].value == Choice((10.0, 12.0, 14.0))

    cruise, dart = ast.behaviors
    assert cruise == BehaviorDef("Cruise", ("v",), Action(ActionKind.FOLLOW_LANE, (ParamRef("v"),)))
    assert dart.trigger == DistanceToEgoBelow(Constant(12.0))

    ego, walker, prop = ast.objects
    assert ego.klass is AgentClass.CAR
    assert ego.spatial == OnLane("main_a", Constant(15.0))
    assert ego.init_speed == ParamRef("pace")
    assert ego.behavior == BehaviorRef("Cruise", (ParamRef("pace"),))
    assert walker.spatial == Relative("ahead", "ego", ParamRef("gap"))
    assert prop.spatial == Absolute(Constant(3.0), Constant(-4.5), Constant(90.0))
    assert prop.dims == (Constant(7.5), Constant(2.4))

    assert ast.requirements == (
        RequireCollision("vehicle-pedestrian"),
        RequireEgoSpeedAbove(Constant(2.0)),
    )
    assert ast.termination == TimeElapsed(Constant(20.0))


def test_inline_behavior_body():
    ast, diags = parse_text(
        "behavior Halt(): stop\n"
        "ego = new Car at (0.0, 0.0) with behavior Halt()\n"
    )
    assert not errors(diags)
    assert ast.behaviors[0].action.kind is ActionKind.STOP
    assert ast.behaviors[0].trigger is None


def test_cut_in_action():
    ast, diags = parse_text(
        "behavior Merge(r):\n"
        "    cut in right at r when time above 2.0\n"
        "ego = new Car at (0.0, 0.0)\n"
    )
    assert not errors(diags)
    action = ast.behaviors[0].action
    assert action.kind is ActionKind.CUT_IN
    assert action.direction == "right"


def test_no_ego_is_an_error():
    ast, diags = parse_text("walker = new Pedestrian at (0.0, 0.0)")
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_NO_EGO"]


def test_empty_script():
    ast, diags = parse_text("# nothing here\n")
    assert ast is None
    assert [d.code for d in diags] == ["E_EMPTY_SCRIPT"]


def test_duplicate_object_names():
    ast, diags = parse_text(
        "ego = new Car at (0.0, 0.0)\nego = new Car at (5.0, 0.0)\n"
    )
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_DUP_OBJECT"]
    assert diags[0].span.line == 2


def test_ego_must_be_a_vehicle():
    ast, diags = parse_text("ego = new Bicycle at (0.0, 0.0)")
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_EGO_CLASS"]


def test_empty_range_rejected():
    ast, diags = parse_text("param g = Range(10.0, 5.0)\nego = new Car at (0.0, 0.0)\n")
    assert ast is None
    codes = [d.code for d in errors(diags)]
    assert codes == ["E_EMPTY_RANGE"]
    assert diags[0].span.line == 1


def test_dropped_ego_declaration_reports_only_its_own_error():
    # The ego line is dropped for its empty range; E_NO_EGO would be a cascade.
    ast, diags = parse_text("ego = new Car at (0.0, 0.0) with speed Range(9.0, 2.0)\n")
    assert ast is None
    assert [d.code for d in diags] == ["E_EMPTY_RANGE"]


def test_degenerate_range_rejected():
    ast, diags = parse_text("param g = Range(5.0, 5.0)\nego = new Car at (0.0, 0.0)\n")
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_EMPTY_RANGE"]


def test_empty_choice_rejected():
    ast, diags = parse_text("param g = Choice[]\nego = new Car at (0.0, 0.0)\n")
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_EMPTY_CHOICE"]


def test_recovery_reports_every_bad_line():
    ast, diags = parse_text(
        "param = 1.0\n"
        "ego = new Car at (0.0, 0.0)\n"
        "lead = new Rocket at (9.0, 0.0)\n"
    )
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_SYNTAX", "E_SYNTAX"]
    assert [d.span.line for d in diags] == [1, 3]


def test_syntax_message_names_expectation():
    _, diags = parse_text("ego = new Car ahead of lead\n")
    assert len(diags) == 1
    assert diags[0].code == "E_SYNTAX"
    assert "'by'" in diags[0].message


def test_reserved_word_rejected_as_name():
    ast, diags = parse_text("lane = new Car at (0.0, 0.0)")
    assert ast is None
    assert diags[0].code == "E_SYNTAX"
    assert "reserved" in diags[0].message


def test_duplicate_with_clause():
    ast, diags = parse_text("ego = new Car at (0.0, 0.0) with speed 5.0 with speed 6.0")
    assert ast is None
    assert diags[0].code == "E_SYNTAX"
    assert "duplicate" in diags[0].message


def test_two_terminate_statements():
    ast, diags = parse_text(
        "ego = new Car at (0.0, 0.0)\n"
        "terminate when time above 5.0\n"
        "terminate when time above 9.0\n"
    )
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_SYNTAX"]


def test_terminate_rejects_always():
    ast, diags = parse_text("ego = new Car at (0.0, 0.0)\nterminate when always\n")
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_SYNTAX"]
    assert (diags[0].span.line, diags[0].span.col) == (2, 16)
    assert "found 'always'" in diags[0].message


def test_terminate_trigger_error_does_not_offer_always():
    ast, diags = parse_text("ego = new Car at (0.0, 0.0)\nterminate when foo\n")
    assert ast is None
    assert [d.message for d in errors(diags)] == [
        "expected a terminate trigger ('time above', 'distance from ... to ego below'), found 'foo'"
    ]


def test_distribution_not_allowed_in_behavior_body():
    ast, diags = parse_text(
        "behavior Jitter():\n"
        "    follow lane at Range(1.0, 2.0)\n"
        "ego = new Car at (0.0, 0.0)\n"
    )
    assert ast is None
    assert diags[0].code == "E_SYNTAX"
    assert "param" in diags[0].message


def test_behavior_without_body():
    ast, diags = parse_text("ego = new Car at (0.0, 0.0)\nbehavior Ghost():\n")
    assert ast is None
    assert [d.code for d in errors(diags)] == ["E_SYNTAX"]


def test_layout_insensitive_equality():
    a, _ = parse_text("ego = new Car at (0.0, 0.0)\nterminate when time above 5.0\n")
    b, _ = parse_text(
        "# comment\n\n  ego   =  new   Car  at ( 0.0 , 0.0 )\n\n\nterminate when time above 5.0"
    )
    assert a == b
