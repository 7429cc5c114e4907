"""Prompt assembly, the example library, seeded selection, and extraction."""

import json
from pathlib import Path

import pytest

from scenekit.promptgen.extract import extract_script
from scenekit.promptgen.library import (
    EmptyLibraryError,
    LibraryError,
    builtin_library,
    load_library,
    select_examples,
)
from scenekit.promptgen.template import (
    COLLISION_PHRASES,
    DEFAULT_TEMPLATE,
    ScenarioType,
    assemble_prompt,
)

DATA = Path(__file__).parent / "data"

EXAMPLE_CRUISE = """behavior Cruise(v):
    follow lane at v

ego = new Car on lane main_a at 10.0 with speed 12.0 with behavior Cruise(12.0)

terminate when time above 8.0
"""

EXAMPLE_DASH = """behavior Dash(v):
    cross forward at v when distance to ego below 9.0

ego = new Car on lane main_a at 5.0 with speed 10.0
walker = new Pedestrian at (30.0, -3.0) facing 90.0 with behavior Dash(2.0)

require collision
terminate when time above 10.0
"""


def test_golden_prompt_bytes():
    # The expected text is written out by hand in the fixture file; this is
    # a byte-for-byte comparison, not a re-derivation.
    expected = (DATA / "golden_prompt.txt").read_text()
    got = assemble_prompt(
        DEFAULT_TEMPLATE, ScenarioType.VEHICLE_CUT_IN, [EXAMPLE_CRUISE, EXAMPLE_DASH]
    )
    assert got == expected


def test_stock_kind_not_duplicated():
    # rear-end is already in the default trio, so the parenthetical list
    # must come out unchanged.
    got = assemble_prompt(DEFAULT_TEMPLATE, ScenarioType.REAR_END_COLLISION, [EXAMPLE_CRUISE])
    assert "(e.g., pedestrian collision, T-bone collision, rear-end collision)." in got
    assert got.count("rear-end collision") == 1


def test_requested_kind_appended_last():
    got = assemble_prompt(
        DEFAULT_TEMPLATE, ScenarioType.VEHICLE_CYCLIST_COLLISION, [EXAMPLE_CRUISE]
    )
    assert (
        "(e.g., pedestrian collision, T-bone collision, rear-end collision, "
        "vehicle-cyclist collision)." in got
    )


def test_prompt_ends_with_closing_line():
    got = assemble_prompt(DEFAULT_TEMPLATE, ScenarioType.VEHICLE_CUT_IN, [EXAMPLE_CRUISE])
    assert got.endswith("Your generated Scenic script:")


def test_trailing_newlines_in_examples_are_normalized():
    a = assemble_prompt(
        DEFAULT_TEMPLATE, ScenarioType.VEHICLE_CUT_IN, [EXAMPLE_CRUISE + "\n\n", EXAMPLE_DASH]
    )
    b = assemble_prompt(
        DEFAULT_TEMPLATE, ScenarioType.VEHICLE_CUT_IN, [EXAMPLE_CRUISE, EXAMPLE_DASH]
    )
    assert a == b


def test_empty_example_list_rejected():
    with pytest.raises(ValueError):
        assemble_prompt(DEFAULT_TEMPLATE, ScenarioType.VEHICLE_CUT_IN, [])


def test_scenario_type_from_name():
    for t in ScenarioType:
        assert ScenarioType.from_name(t.value) is t
    with pytest.raises(ValueError, match="unknown scenario type"):
        ScenarioType.from_name("head-on")


def test_every_type_has_a_phrase():
    assert set(COLLISION_PHRASES) == set(ScenarioType)


# --- builtin library ----------------------------------------------------


def test_builtin_library_covers_every_type():
    lib = builtin_library()
    assert len(lib) == 7
    types = [e.scenario_type for e in lib.entries]
    assert sorted(t.value for t in types) == sorted(t.value for t in ScenarioType)
    ids = [e.id for e in lib.entries]
    assert len(set(ids)) == len(ids)


def test_builtin_scripts_have_collision_requirements():
    # Every shipped example models a collision scenario and says when to stop.
    lib = builtin_library()
    for entry in lib.entries:
        kinds = [type(r).__name__ for r in entry.ast.requirements]
        assert "RequireCollision" in kinds, entry.id
        assert entry.ast.termination is not None, entry.id


def test_load_library_rejects_broken_script(tmp_path):
    (tmp_path / "index.json").write_text(
        json.dumps(
            {
                "entries": [
                    {
                        "id": "bad",
                        "scenario_type": "rear-end-collision",
                        "description": "does not compile",
                        "file": "bad.scn",
                    }
                ]
            }
        )
    )
    (tmp_path / "bad.scn").write_text("ego = new Car at (0.0,\n")
    with pytest.raises(LibraryError, match="does not compile"):
        load_library(tmp_path)


def test_load_library_missing_index(tmp_path):
    with pytest.raises(LibraryError, match="no index.json"):
        load_library(tmp_path)


def test_load_library_duplicate_id(tmp_path):
    entry = {
        "id": "twin",
        "scenario_type": "rear-end-collision",
        "description": "x",
        "file": "a.scn",
    }
    (tmp_path / "index.json").write_text(json.dumps({"entries": [entry, dict(entry)]}))
    (tmp_path / "a.scn").write_text("ego = new Car at (0.0, 0.0)\n")
    with pytest.raises(LibraryError, match="duplicate entry id"):
        load_library(tmp_path)


def test_load_library_unknown_type(tmp_path):
    (tmp_path / "index.json").write_text(
        json.dumps(
            {
                "entries": [
                    {"id": "x", "scenario_type": "head-on", "description": "x", "file": "a.scn"}
                ]
            }
        )
    )
    (tmp_path / "a.scn").write_text("ego = new Car at (0.0, 0.0)\n")
    with pytest.raises(LibraryError, match="unknown scenario type"):
        load_library(tmp_path)


# --- selection ----------------------------------------------------------


def test_selection_prefers_matching_type():
    lib = builtin_library()
    for t in ScenarioType:
        picked = select_examples(lib, t, 3, seed=0)
        assert picked[0].scenario_type is t


def test_selection_is_deterministic():
    lib = builtin_library()
    a = [e.id for e in select_examples(lib, ScenarioType.VEHICLE_CUT_IN, 3, seed=11)]
    b = [e.id for e in select_examples(lib, ScenarioType.VEHICLE_CUT_IN, 3, seed=11)]
    assert a == b


def test_selection_varies_with_seed():
    lib = builtin_library()
    orders = {
        tuple(e.id for e in select_examples(lib, ScenarioType.VEHICLE_CUT_IN, 5, seed=s))
        for s in range(10)
    }
    assert len(orders) > 1


def test_selection_invariants_over_many_seeds():
    # Matching entries always precede non-matching ones, no duplicates, and
    # asking for more than the library holds returns everything.
    lib = builtin_library()
    all_ids = {e.id for e in lib.entries}
    for seed in range(25):
        picked = select_examples(lib, ScenarioType.T_BONE_COLLISION, 50, seed=seed)
        ids = [e.id for e in picked]
        assert len(ids) == len(all_ids)
        assert set(ids) == all_ids
        flags = [e.scenario_type is ScenarioType.T_BONE_COLLISION for e in picked]
        assert flags == sorted(flags, reverse=True)


def test_selection_bad_k():
    lib = builtin_library()
    with pytest.raises(ValueError):
        select_examples(lib, ScenarioType.VEHICLE_CUT_IN, 0, seed=0)


def test_selection_empty_library():
    from scenekit.promptgen.library import ExampleLibrary

    with pytest.raises(EmptyLibraryError):
        select_examples(ExampleLibrary(()), ScenarioType.VEHICLE_CUT_IN, 1, seed=0)


# --- extraction ---------------------------------------------------------


def test_extract_fenced_block_with_tag():
    response = "Sure, here you go:\n```scenic\nego = new Car at (0.0, 0.0)\n```\nEnjoy!"
    assert extract_script(response) == "ego = new Car at (0.0, 0.0)"


def test_extract_fenced_block_plain():
    response = "```\nparam a = 1.0\nego = new Car at (0.0, 0.0)\n```"
    assert extract_script(response) == "param a = 1.0\nego = new Car at (0.0, 0.0)"


def test_extract_prefers_first_fence():
    response = "```\nego = new Car at (0.0, 0.0)\n```\ntext\n```\nego = new Truck at (1.0, 1.0)\n```"
    assert extract_script(response) == "ego = new Car at (0.0, 0.0)"


def test_extract_bare_script_after_chatter():
    response = (
        "Here is a scenario that should work well.\n"
        "\n"
        "ego = new Car on lane main_a at 5.0 with speed 10.0\n"
        "terminate when time above 5.0\n"
    )
    got = extract_script(response)
    assert got is not None
    assert got.startswith("ego = new Car")
    assert "terminate when time above 5.0" in got


def test_extract_nothing_scriptlike():
    assert extract_script("I am sorry, I cannot help with that request.") is None
    assert extract_script("") is None
