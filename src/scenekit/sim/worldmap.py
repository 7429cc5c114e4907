"""Lane-graph world maps loaded from JSON.

A map is a set of named lanes, each a polyline centerline with a width and
optional successor lanes, plus named anchor poses.  Arc length s runs from 0
at the first centerline point to the lane's total length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


class MapError(Exception):
    pass


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: float  # radians


@dataclass
class Lane:
    id: str
    width: float
    centerline: tuple[tuple[float, float], ...]
    successors: tuple[str, ...] = ()
    # filled by __post_init__
    seg_lengths: tuple[float, ...] = field(init=False, repr=False)
    cum_s: tuple[float, ...] = field(init=False, repr=False)
    length: float = field(init=False)

    def __post_init__(self):
        if len(self.centerline) < 2:
            raise MapError(f"lane {self.id!r}: centerline needs at least 2 points")
        if self.width <= 0:
            raise MapError(f"lane {self.id!r}: width must be positive, got {self.width}")
        seg = []
        for (x0, y0), (x1, y1) in zip(self.centerline, self.centerline[1:]):
            d = math.hypot(x1 - x0, y1 - y0)
            if d == 0:
                raise MapError(f"lane {self.id!r}: zero-length centerline segment at ({x0}, {y0})")
            seg.append(d)
        self.seg_lengths = tuple(seg)
        cum = [0.0]
        for d in seg:
            cum.append(cum[-1] + d)
        self.cum_s = tuple(cum)
        self.length = cum[-1]

    def _segment_at(self, s: float) -> tuple[int, float]:
        """Segment index and distance into it, with s clamped to [0, length]."""
        s = min(max(s, 0.0), self.length)
        for i, end in enumerate(self.cum_s[1:]):
            if s <= end:
                return i, s - self.cum_s[i]
        return len(self.seg_lengths) - 1, self.seg_lengths[-1]

    def point_at(self, s: float) -> tuple[float, float]:
        i, into = self._segment_at(s)
        (x0, y0), (x1, y1) = self.centerline[i], self.centerline[i + 1]
        f = into / self.seg_lengths[i]
        return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))

    def heading_at(self, s: float) -> float:
        i, _ = self._segment_at(s)
        (x0, y0), (x1, y1) = self.centerline[i], self.centerline[i + 1]
        return math.atan2(y1 - y0, x1 - x0)

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Closest point on the centerline: returns (s, distance)."""
        best_s = 0.0
        best_d = math.inf
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(self.centerline, self.centerline[1:])):
            dx, dy = x1 - x0, y1 - y0
            t = ((x - x0) * dx + (y - y0) * dy) / (self.seg_lengths[i] ** 2)
            t = min(max(t, 0.0), 1.0)
            px, py = x0 + t * dx, y0 + t * dy
            d = math.hypot(x - px, y - py)
            if d < best_d:
                best_d = d
                best_s = self.cum_s[i] + t * self.seg_lengths[i]
        return best_s, best_d


@dataclass
class WorldMap:
    name: str
    lanes: dict[str, Lane]
    anchors: dict[str, Pose] = field(default_factory=dict)

    def nearest_lane(self, x: float, y: float) -> tuple[str, float, float]:
        """(lane_id, s, distance) of the closest lane; ties keep map order."""
        if not self.lanes:
            raise MapError(f"map {self.name!r} has no lanes")
        best: tuple[str, float, float] | None = None
        for lane_id, lane in self.lanes.items():
            s, d = lane.project(x, y)
            if best is None or d < best[2]:
                best = (lane_id, s, d)
        return best


def _number(value, where: str) -> float:
    """A finite float from a JSON field, or MapError naming the field."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise MapError(f"{where}: expected a finite number, got {value!r}")
    return number


def load_map(path: Path | str) -> WorldMap:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise MapError(f"map file not found: {path}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, a huge int, deep nesting
        raise MapError(f"malformed map JSON in {path}: {e}") from None

    if not isinstance(raw, dict) or not isinstance(raw.get("lanes"), list):
        raise MapError(f"{path}: expected a 'lanes' list")
    lanes: dict[str, Lane] = {}
    for entry in raw["lanes"]:
        if not isinstance(entry, dict):
            raise MapError(f"{path}: lane entry must be an object, got {entry!r}")
        for key in ("id", "width", "centerline"):
            if key not in entry:
                raise MapError(f"{path}: lane entry missing {key!r}")
        if not isinstance(entry["id"], str):
            raise MapError(f"{path}: lane id must be a string, got {entry['id']!r}")
        if entry["id"] in lanes:
            raise MapError(f"{path}: duplicate lane id {entry['id']!r}")
        where = f"{path}: lane {entry['id']!r}"
        try:
            centerline = tuple(
                (_number(x, f"{where} centerline"), _number(y, f"{where} centerline"))
                for x, y in entry["centerline"]
            )
        except (TypeError, ValueError):
            raise MapError(f"{where}: centerline must be a list of [x, y] points") from None
        successors = entry.get("successors", [])
        if not isinstance(successors, list) or not all(isinstance(n, str) for n in successors):
            raise MapError(f"{where}: successors must be a list of lane ids")
        lanes[entry["id"]] = Lane(
            id=entry["id"],
            width=_number(entry["width"], f"{where} width"),
            centerline=centerline,
            successors=tuple(successors),
        )
    for lane in lanes.values():
        for succ in lane.successors:
            if succ not in lanes:
                raise MapError(f"lane {lane.id!r}: unknown successor {succ!r}")

    raw_anchors = raw.get("anchors", {})
    if not isinstance(raw_anchors, dict):
        raise MapError(f"{path}: 'anchors' must be an object of named poses")
    anchors = {}
    for name, a in raw_anchors.items():
        where = f"{path}: anchor {name!r}"
        if not isinstance(a, dict):
            raise MapError(f"{where}: expected an object with x, y, heading_deg")
        anchors[name] = Pose(
            _number(a.get("x"), f"{where} x"),
            _number(a.get("y"), f"{where} y"),
            math.radians(_number(a.get("heading_deg", 0.0), f"{where} heading_deg")),
        )
    return WorldMap(name=raw.get("name", path.stem), lanes=lanes, anchors=anchors)


def builtin_map(name: str) -> WorldMap:
    """Load one of the maps shipped with the package ('crossing', 'straight')."""
    root = Path(__file__).resolve().parent.parent / "data" / "maps"
    path = root / f"{name}.map.json"
    if not path.exists():
        known = ", ".join(sorted(p.name.split(".")[0] for p in root.glob("*.map.json")))
        raise MapError(f"no builtin map {name!r}; available: {known}")
    return load_map(path)
