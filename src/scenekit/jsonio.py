"""The one reader of JSON input files; every file loader goes through it."""

import json
from pathlib import Path


def read_json(path: Path | str, error_type: type[Exception], prefix: str):
    """The JSON value in the UTF-8 file at `path`, else `error_type`: `no {name}
    in {directory}` for a missing file, `prefix` + the reason for any other
    failure.  NaN and Infinity parse; each loader checks its own numbers."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as e:
        raise error_type(f"no {path.name} in {path.parent}") from e
    except (OSError, ValueError, RecursionError) as e:
        raise error_type(f"{prefix}{e}") from e
