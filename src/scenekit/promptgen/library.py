"""Example-script library: loading, validation, and seeded selection."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from scenekit.dsl import ScenarioAst, compile_script
from scenekit.dsl.diagnostics import only_errors
from scenekit.jsonio import items, member, read_json, typed
from scenekit.promptgen.template import ScenarioType


class LibraryError(Exception):
    pass


class EmptyLibraryError(LibraryError):
    pass


@dataclass(frozen=True)
class LibraryEntry:
    id: str
    scenario_type: ScenarioType
    description: str
    script_text: str
    ast: ScenarioAst = field(repr=False)


@dataclass(frozen=True)
class ExampleLibrary:
    entries: tuple[LibraryEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def by_type(self, scenario_type: ScenarioType) -> list[LibraryEntry]:
        return [e for e in self.entries if e.scenario_type is scenario_type]


def load_library(path: Path | str) -> ExampleLibrary:
    """Load a library directory containing index.json plus script files.

    Every script must compile without errors; a broken entry fails the whole
    load so a bad library cannot silently degrade few-shot quality.  A library
    with no entries has no examples to offer and is an EmptyLibraryError.
    """
    root = Path(path)
    index_path = root / "index.json"
    index = read_json(index_path, LibraryError, f"malformed index.json in {root}: ")

    raw_entries = member(index, "entries", LibraryError, str(index_path))
    if not items(raw_entries, LibraryError, f"{index_path}: entries"):
        raise EmptyLibraryError(f"{index_path}: the library has no entries")

    entries: list[LibraryEntry] = []
    seen_ids: set[str] = set()
    for i, raw in enumerate(raw_entries):
        where = f"{index_path}: entries[{i}]"
        entry_id, type_name, description, file = (
            typed(str, member(raw, key, LibraryError, where), LibraryError, f"{where}.{key}")
            for key in ("id", "scenario_type", "description", "file")
        )
        if entry_id in seen_ids:
            raise LibraryError(f"{index_path}: duplicate entry id {entry_id!r}")
        seen_ids.add(entry_id)
        try:
            scenario_type = ScenarioType.from_name(type_name)
        except ValueError as e:
            raise LibraryError(f"{index_path}: entry {entry_id!r}: {e}") from None
        script_path = root / file
        try:
            text = script_path.read_text()
        except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the name
            raise LibraryError(f"entry {entry_id!r}: cannot read {script_path}: {e}") from None
        ast, diags = compile_script(text)
        if ast is None:
            details = "; ".join(d.message for d in only_errors(diags))
            raise LibraryError(f"entry {entry_id!r}: script does not compile: {details}")
        entries.append(LibraryEntry(entry_id, scenario_type, description, text, ast))
    return ExampleLibrary(tuple(entries))


def builtin_library() -> ExampleLibrary:
    """The library shipped with the package."""
    return load_library(Path(__file__).resolve().parent.parent / "data" / "library")


def select_examples(
    library: ExampleLibrary,
    scenario_type: ScenarioType,
    k: int,
    seed: int,
) -> list[LibraryEntry]:
    """Pick k examples, preferring entries of the requested type.

    Matching entries are shuffled first, remaining entries shuffled after
    them, and the first k are taken; when the library holds fewer than k
    entries, all of them are returned.  Selection is a pure function of
    (library order, scenario_type, k, seed).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not library.entries:
        raise EmptyLibraryError("example library is empty")
    rng = random.Random(seed)
    matching = library.by_type(scenario_type)
    others = [e for e in library.entries if e.scenario_type is not scenario_type]
    rng.shuffle(matching)
    rng.shuffle(others)
    return (matching + others)[:k]
