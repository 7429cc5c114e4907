"""Lane-graph world maps loaded from JSON.

A map is a set of named lanes, each a polyline centerline with a width and
optional successor lanes, plus named anchor poses.  Arc length s runs from 0
at the first centerline point to the lane's total length.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

from scenekit.jsonio import items, member, number, read_json, typed

# Farthest from the origin, in metres along each axis, that a map's
# centerline points and anchors (and a camera) may lie: distances between
# any two such points square well inside the float range.
MAX_WORLD_COORD = 1e12


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
            # `project` and the rasterizer divide by its square, a normal float
            if d * d < sys.float_info.min:
                raise MapError(f"lane {self.id!r}: centerline segment at ({x0}, {y0}) is too short")
            if d * d == math.inf:
                raise MapError(f"lane {self.id!r}: centerline segment at ({x0}, {y0}) is too long")
            seg.append(d)
        self.seg_lengths = tuple(seg)
        cum = [0.0]
        for d in seg:
            cum.append(cum[-1] + d)
        self.cum_s = tuple(cum)
        self.length = cum[-1]

    def _segment_at(self, s: float) -> tuple[int, float]:
        """Segment index and distance into it, with s clamped to [0, length]:
        the first segment whose end is at or past s.  A NaN s gives the whole
        last segment."""
        if s < 0.0:  # min(max(s, 0.0), length), NaN and -0.0 kept
            s = 0.0
        elif s > self.length:
            s = self.length
        if s != s:
            return len(self.seg_lengths) - 1, self.seg_lengths[-1]
        i = bisect_left(self.cum_s, s, 1)
        return i - 1, s - self.cum_s[i - 1]

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


def load_map(path: Path | str) -> WorldMap:
    path = Path(path)
    raw = read_json(path, MapError, f"malformed map JSON in {path}: ")
    lanes: dict[str, Lane] = {}
    for entry in items(member(raw, "lanes", MapError, str(path)), MapError, f"{path}: lanes"):
        lane_id = member(entry, "id", MapError, f"{path}: lane entry")
        if typed(str, lane_id, MapError, f"{path}: lane id") in lanes:
            raise MapError(f"{path}: duplicate lane id {lane_id!r}")
        where = f"{path}: lane {lane_id!r}"
        at = f"{where} centerline"
        lanes[lane_id] = Lane(
            id=lane_id,
            width=float(number(member(entry, "width", MapError, where), MapError, f"{where} width")),
            centerline=tuple(
                tuple(float(number(v, MapError, at)) for v in items(point, MapError, at, 2))
                for point in items(member(entry, "centerline", MapError, where), MapError, at)
            ),
            successors=tuple(
                typed(str, n, MapError, f"{where} successors")
                for n in items(entry.get("successors", []), MapError, f"{where} successors")
            ),
        )
        for x, y in lanes[lane_id].centerline:
            _in_world(x, y, at)
    for lane in lanes.values():
        for succ in lane.successors:
            if succ not in lanes:
                raise MapError(f"{path}: lane {lane.id!r}: unknown successor {succ!r}")

    anchors = {}
    for name, a in typed(dict, raw.get("anchors", {}), MapError, f"{path}: anchors").items():
        where = f"{path}: anchor {name!r}"
        anchors[name] = Pose(
            float(number(member(a, "x", MapError, where), MapError, f"{where} x")),
            float(number(member(a, "y", MapError, where), MapError, f"{where} y")),
            math.radians(number(a.get("heading_deg", 0.0), MapError, f"{where} heading_deg")),
        )
        _in_world(anchors[name].x, anchors[name].y, where)
    name = typed(str, raw.get("name", path.stem), MapError, f"{path}: name")
    return WorldMap(name=name, lanes=lanes, anchors=anchors)


def _in_world(x: float, y: float, where: str) -> None:
    if max(abs(x), abs(y)) > MAX_WORLD_COORD:
        raise MapError(f"{where}: point ({x:g}, {y:g}) lies more than {MAX_WORLD_COORD:g} m from the origin")


def builtin_map(name: str) -> WorldMap:
    """Load one of the maps shipped with the package ('crossing', 'straight')."""
    root = Path(__file__).resolve().parent.parent / "data" / "maps"
    path = root / f"{name}.map.json"
    if not path.exists():
        known = ", ".join(sorted(p.name.split(".")[0] for p in root.glob("*.map.json")))
        raise MapError(f"no builtin map {name!r}; available: {known}")
    return load_map(path)
