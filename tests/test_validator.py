import random

from scenekit.dsl import compile_script, parse, tokenize, validate
from scenekit.dsl.diagnostics import Severity


def check(text):
    tokens, lex = tokenize(text)
    assert not lex
    ast, diags = parse(tokens)
    assert ast is not None, diags
    return validate(ast)


def codes(diags, severity=Severity.ERROR):
    return [d.code for d in diags if d.severity is severity]


def test_unknown_spatial_ref():
    diags = check("ego = new Car at (0.0, 0.0)\nnpc = new Car ahead of ghost by 10.0\n")
    assert codes(diags) == ["E_UNRESOLVED_REF"]


def test_forward_ref():
    diags = check(
        "ego = new Car at (0.0, 0.0)\n"
        "a = new Car ahead of b by 10.0\n"
        "b = new Car at (50.0, 0.0)\n"
    )
    assert codes(diags) == ["E_FORWARD_REF"]
    assert diags[0].span.line == 2


def test_mutual_reference_is_one_cycle_diagnostic():
    diags = check(
        "ego = new Car at (0.0, 0.0)\n"
        "a = new Car ahead of b by 10.0\n"
        "b = new Car behind a by 10.0\n"
    )
    assert codes(diags) == ["E_CIRCULAR_SPATIAL"]
    assert "a" in diags[0].message and "b" in diags[0].message


def test_self_reference_cycle():
    diags = check("ego = new Car ahead of ego by 5.0\nnpc = new Car at (9.0, 1.0)\n")
    assert codes(diags) == ["E_CIRCULAR_SPATIAL"]


def test_three_way_cycle_plus_clean_object():
    diags = check(
        "ego = new Car at (0.0, 0.0)\n"
        "a = new Car ahead of b by 5.0\n"
        "b = new Car ahead of c by 5.0\n"
        "c = new Car ahead of a by 5.0\n"
        "d = new Car behind ego by 7.0\n"
    )
    assert codes(diags) == ["E_CIRCULAR_SPATIAL"]


def test_cycle_detection_matches_pointer_chase_oracle():
    # Oracle: a node sits on a cycle iff following anchor pointers from it
    # comes back to it within n hops.
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(2, 9)
        names = [f"o{i}" for i in range(n)]
        anchor = {}
        lines = ["ego = new Car at (0.0, 0.0)"]
        for i, name in enumerate(names):
            if rng.random() < 0.7:
                ref = rng.choice(names)
                anchor[name] = ref
                lines.append(f"{name} = new Car ahead of {ref} by 5.0")
            else:
                lines.append(f"{name} = new Car at ({float(i)}, 0.0)")

        cyclic_names = set()
        for name in anchor:
            node = name
            for _ in range(n + 1):
                node = anchor.get(node)
                if node is None:
                    break
                if node == name:
                    cyclic_names.add(name)
                    break

        diags = check("\n".join(lines) + "\n")
        cyclic = [d for d in diags if d.code == "E_CIRCULAR_SPATIAL"]
        if cyclic_names:
            assert cyclic, f"oracle found cycles {cyclic_names} but validator reported none"
            mentioned = set()
            for d in cyclic:
                mentioned.update(
                    w for w in d.message.replace("->", " ").split() if w in cyclic_names
                )
            assert mentioned == cyclic_names
        else:
            assert not cyclic


def test_unknown_behavior():
    diags = check("ego = new Car at (0.0, 0.0) with behavior Ghost()\n")
    assert codes(diags) == ["E_UNRESOLVED_REF"]


def test_behavior_defined_after_use_is_fine():
    diags = check(
        "ego = new Car at (0.0, 0.0) with behavior Halt()\n"
        "behavior Halt(): stop\n"
    )
    assert codes(diags) == []


def test_behavior_arity_mismatch():
    diags = check(
        "behavior Cruise(v): follow lane at v\n"
        "ego = new Car at (0.0, 0.0) with behavior Cruise(5.0, 6.0)\n"
    )
    assert codes(diags) == ["E_BEHAVIOR_ARITY"]
    assert "1 argument" in diags[0].message


def test_unknown_param_in_placement():
    diags = check("ego = new Car at (x0, 0.0)\n")
    assert codes(diags) == ["E_UNRESOLVED_REF"]


def test_behavior_params_shadow_script_params():
    diags = check(
        "param v = 9.0\n"
        "behavior Cruise(v): follow lane at v\n"
        "ego = new Car at (0.0, 0.0) with behavior Cruise(5.0)\n"
    )
    # the behavior's own v binds; the script param goes unused
    assert codes(diags) == []
    assert codes(diags, Severity.WARNING) == ["W_UNUSED_PARAM"]


def test_behavior_body_may_use_script_params():
    diags = check(
        "param rate = 3.5\n"
        "behavior Slow(): brake at rate\n"
        "ego = new Car at (0.0, 0.0) with behavior Slow()\n"
    )
    assert codes(diags) == []
    assert codes(diags, Severity.WARNING) == []


def test_unknown_collision_type():
    diags = check("ego = new Car at (0.0, 0.0)\nrequire collision of side-swipe\n")
    assert codes(diags) == ["E_UNKNOWN_COLLISION_TYPE"]


def test_known_collision_types_accepted():
    for name in ("vehicle-cyclist", "vehicle-pedestrian", "t-bone", "rear-end", "other"):
        diags = check(f"ego = new Car at (0.0, 0.0)\nrequire collision of {name}\n")
        assert codes(diags) == [], name


def test_terminate_distance_needs_object():
    diags = check("ego = new Car at (0.0, 0.0)\nterminate when distance to ego below 4.0\n")
    assert codes(diags) == ["E_TRIGGER_NO_OBJECT"]


def test_terminate_distance_with_object():
    diags = check(
        "ego = new Car at (0.0, 0.0)\n"
        "npc = new Car at (30.0, 0.0)\n"
        "terminate when distance from npc to ego below 4.0\n"
    )
    assert codes(diags) == []


def test_terminate_unknown_object():
    diags = check(
        "ego = new Car at (0.0, 0.0)\nterminate when distance from ghost to ego below 4.0\n"
    )
    assert codes(diags) == ["E_UNRESOLVED_REF"]


def test_unused_behavior_warning():
    diags = check("behavior Idle(): idle\nego = new Car at (0.0, 0.0)\n")
    assert codes(diags) == []
    assert codes(diags, Severity.WARNING) == ["W_UNUSED_BEHAVIOR"]


def test_bad_constant_dims():
    diags = check("ego = new Car at (0.0, 0.0) with dims (-4.5, 2.0)\n")
    assert codes(diags) == ["E_BAD_DIMS"]


def test_bad_dims_reported_before_unknown_behavior_argument():
    # validate prints diagnostics in this order, and the repair prompt carries it
    diags = check(
        "behavior B(v):\n"
        "    follow lane at v\n"
        "ego = new Car at (0.0, 0.0) with dims (0.0, 1.0) with behavior B(nope)\n"
    )
    assert codes(diags) == ["E_BAD_DIMS", "E_UNRESOLVED_REF"]


def test_compile_script_success_keeps_warnings():
    ast, diags = compile_script("param unused = 1.0\nego = new Car at (0.0, 0.0)\n")
    assert ast is not None
    assert codes(diags, Severity.WARNING) == ["W_UNUSED_PARAM"]
