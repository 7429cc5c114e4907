"""The one reader of JSON input files and endpoint replies, and the field
checks every file loader makes on what it read.  Each function takes the
caller's error type, so a malformed file raises the loader's own error, with
a message naming the field by the caller's `where`."""

import json
import math
from pathlib import Path


def read_json(path: Path | str, error_type: type[Exception], prefix: str):
    """The JSON value in the UTF-8 file at `path`, else `error_type`: `no {name}
    in {directory}` for a missing file, `prefix` + the reason for any other
    failure.  NaN and Infinity parse; each loader checks its own numbers."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as e:
        raise error_type(f"no {path.name} in {path.parent}") from e
    except (OSError, ValueError) as e:
        raise error_type(f"{prefix}{e}") from e
    return parse_json(text, error_type, prefix)


def parse_json(text: str, error_type: type[Exception], prefix: str):
    """The JSON value in `text`, else `error_type`(`prefix` + the reason)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # not JSON, or nested too deep
        raise error_type(f"{prefix}{e}") from e


def member(obj, key: str, error_type: type[Exception], where: str):
    """`obj[key]`, when `obj` is a JSON object that holds `key`."""
    if not isinstance(obj, dict):
        raise error_type(f"{where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise error_type(f"{where} has no {key!r}")
    return obj[key]


def items(value, error_type: type[Exception], where: str, length: int | None = None) -> list:
    """`value`, when it is a JSON list (of `length` entries, if given)."""
    if not isinstance(value, list):
        raise error_type(f"{where} must be a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise error_type(f"{where} must have {length} entries, got {len(value)}")
    return value


def number(value, error_type: type[Exception], where: str):
    """`value`, when it is a finite JSON number: an int or a float, not a bool
    and not a numeric string.  It is returned as read, so a file written back
    keeps its bytes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int past the float range
            pass
    raise error_type(f"{where} must be a finite number, got {value!r}")


def typed(kind: type, value, error_type: type[Exception], where: str):
    """`value`, when it is a `kind` (an int that is a bool is not)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise error_type(f"{where} must be {kind.__name__}, got {value!r}")
