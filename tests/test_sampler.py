import pickle
import random

import pytest

from scenekit.dsl import (
    SampleError,
    VariationError,
    compile_script,
    sample_parameters,
    sample_variations,
)
from scenekit.dsl.sampler import (
    CAbsolute,
    ConcreteBehavior,
    ConcreteObject,
    ConcreteScenario,
    COnLane,
    CRelative,
    CRequirement,
    CTrigger,
)
from scenekit.promptgen.library import builtin_library


def compile_ok(text):
    ast, diags = compile_script(text)
    assert ast is not None, diags
    return ast


def object_of(scenario, name):
    return next(o for o in scenario.objects if o.name == name)


def params_of(scenario):
    return dict(scenario.params)


def test_range_golden_value():
    ast = compile_ok("param g = Range(5.0, 15.0)\nego = new Car at (g, 0.0)\n")
    scenario = sample_parameters(ast, 42)
    # random.Random(42).uniform(5, 15); first MT19937 draw for seed 42
    assert params_of(scenario)["g"] == 11.394267984578837
    assert object_of(scenario, "ego").spatial.x == 11.394267984578837


def test_choice_golden_value():
    ast = compile_ok("param c = Choice[3.0, 7.0, 9.0]\nego = new Car at (c, 0.0)\n")
    assert params_of(sample_parameters(ast, 7))["c"] == 7.0


def test_same_seed_same_everything():
    ast = compile_ok(
        "param gap = Range(20.0, 35.0)\n"
        "ego = new Car at (Range(-5.0, 5.0), 0.0) facing Choice[0.0, 90.0]\n"
        "lead = new Car ahead of ego by gap\n"
    )
    assert sample_parameters(ast, 1234) == sample_parameters(ast, 1234)
    assert sample_parameters(ast, 1234) != sample_parameters(ast, 1235)


def test_param_refs_do_not_draw():
    # A param reference shares the param's value instead of redrawing.
    ast = compile_ok(
        "param gap = Range(10.0, 20.0)\n"
        "ego = new Car at (0.0, 0.0)\n"
        "a = new Car ahead of ego by gap\n"
        "b = new Car behind ego by gap\n"
    )
    sc = sample_parameters(ast, 5)
    gap = params_of(sc)["gap"]
    assert object_of(sc, "a").spatial.amount == object_of(sc, "b").spatial.amount == gap


def test_constants_do_not_consume_randomness():
    with_const = compile_ok(
        "param a = Range(0.0, 1.0)\n"
        "param mid = 7.0\n"
        "param b = Range(0.0, 1.0)\n"
        "ego = new Car at (0.0, 0.0)\n"
    )
    without = compile_ok(
        "param a = Range(0.0, 1.0)\n"
        "param b = Range(0.0, 1.0)\n"
        "ego = new Car at (0.0, 0.0)\n"
    )
    pa = params_of(sample_parameters(with_const, 77))
    pb = params_of(sample_parameters(without, 77))
    assert pa["a"] == pb["a"] and pa["b"] == pb["b"]


def test_draw_order_is_declaration_order():
    ast = compile_ok(
        "param first = Range(0.0, 1.0)\n"
        "param second = Range(0.0, 1.0)\n"
        "ego = new Car at (Range(0.0, 1.0), 0.0)\n"
    )
    sc = sample_parameters(ast, 2020)
    rng = random.Random(2020)
    assert params_of(sc)["first"] == rng.uniform(0.0, 1.0)
    assert params_of(sc)["second"] == rng.uniform(0.0, 1.0)
    assert object_of(sc, "ego").spatial.x == rng.uniform(0.0, 1.0)


def test_behavior_args_bind_by_position():
    ast = compile_ok(
        "behavior Cruise(v): follow lane at v\n"
        "ego = new Car at (0.0, 0.0) with behavior Cruise(Range(8.0, 12.0))\n"
    )
    sc = sample_parameters(ast, 3)
    behavior = object_of(sc, "ego").behavior
    assert behavior.args == (random.Random(3).uniform(8.0, 12.0),)


def test_trigger_owner_defaults_to_host_object():
    ast = compile_ok(
        "behavior Dart(v): cross left at v when distance to ego below 12.0\n"
        "ego = new Car at (0.0, 0.0)\n"
        "walker = new Pedestrian at (20.0, 3.0) with behavior Dart(1.5)\n"
    )
    trig = object_of(sample_parameters(ast, 0), "walker").behavior.trigger
    assert trig.kind == "distance"
    assert trig.obj == "walker"
    assert trig.value == 12.0


def test_default_dims_resolved_per_class():
    ast = compile_ok(
        "ego = new Car at (0.0, 0.0)\n"
        "t = new Truck at (20.0, 0.0)\n"
        "p = new Pedestrian at (9.0, 5.0)\n"
        "b = new Bicycle at (-9.0, 5.0)\n"
    )
    sc = sample_parameters(ast, 0)
    assert object_of(sc, "ego").dims == (4.5, 2.0)
    assert object_of(sc, "t").dims == (8.0, 2.5)
    assert object_of(sc, "p").dims == (0.5, 0.5)
    assert object_of(sc, "b").dims == (1.8, 0.6)


def test_sampled_negative_dims_rejected():
    ast = compile_ok("ego = new Car at (0.0, 0.0) with dims (Range(-2.0, -1.0), 2.0)\n")
    with pytest.raises(SampleError):
        sample_parameters(ast, 11)


def test_sampled_negative_lane_position_rejected():
    ast = compile_ok("ego = new Car on lane main_a at Range(-5.0, -1.0)\n")
    with pytest.raises(SampleError):
        sample_parameters(ast, 11)


def test_variations_distinct_and_seeded():
    ast = compile_ok(
        "param gap = Range(20.0, 35.0)\nego = new Car at (0.0, 0.0)\nlead = new Car ahead of ego by gap\n"
    )
    base = 100
    out = sample_variations(ast, 8, base)
    assert len(out) == 8
    keys = {sc.resolved_key() for sc in out}
    assert len(keys) == 8
    assert [sc.seed for sc in out] == [base + i for i in range(8)]
    # each variation reproduces an independent single sample at its seed
    for sc in out:
        assert sc == sample_parameters(ast, sc.seed)


def test_deterministic_script_cannot_vary():
    ast = compile_ok("ego = new Car at (0.0, 0.0)\nlead = new Car ahead of ego by 30.0\n")
    with pytest.raises(VariationError):
        sample_variations(ast, 2, 0)
    # but a single variation is fine
    assert len(sample_variations(ast, 1, 0)) == 1


def test_collision_redraws_with_documented_reseed():
    # seeds 1 and 2 both draw 1.0 from Choice[1.0, 2.0]; the second variation
    # must redraw at seed + n + retry = 2 + 2 + 1 = 5, which yields 2.0
    ast = compile_ok("param c = Choice[1.0, 2.0]\nego = new Car at (c, 0.0)\n")
    assert random.Random(1).choice((1.0, 2.0)) == random.Random(2).choice((1.0, 2.0))
    out = sample_variations(ast, 2, 1)
    values = [params_of(sc)["c"] for sc in out]
    assert sorted(values) == [1.0, 2.0]
    assert out[1] == sample_parameters(ast, 5)
    assert out[1].seed == 5


def test_single_value_choice_exhausts_retries():
    ast = compile_ok("param c = Choice[4.0]\nego = new Car at (c, 0.0)\n")
    with pytest.raises(VariationError):
        sample_variations(ast, 2, 0)


def test_variation_count_must_be_positive():
    ast = compile_ok("param c = Choice[1.0, 2.0]\nego = new Car at (c, 0.0)\n")
    with pytest.raises(ValueError):
        sample_variations(ast, 0, 0)


def test_concrete_scenarios_pickle_and_hash_equal():
    # the process pool pickles each task's scenario; the types carry slots, no __dict__
    kinds = set()
    for entry in builtin_library().entries:
        scenario = sample_parameters(entry.ast, 7)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario and hash(clone) == hash(scenario)
        kinds |= {type(o.spatial) for o in scenario.objects}
        kinds |= {type(o.behavior.trigger) for o in scenario.objects if o.behavior}
        kinds |= {type(r) for r in scenario.requirements}
    assert {CAbsolute, CRelative, COnLane, CTrigger, CRequirement} <= kinds
    for klass in (CAbsolute, CRelative, COnLane, CTrigger, ConcreteBehavior, ConcreteObject, CRequirement,
                  ConcreteScenario):
        assert "__slots__" in vars(klass) and "__dict__" not in vars(klass), klass
