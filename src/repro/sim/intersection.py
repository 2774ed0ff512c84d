"""Four-way unsignalized intersection map and route geometry.

This is the road network of the paper's use case (§IV.A): a four-way
intersection with one lane per direction under right-hand traffic.  The
map exposes :class:`Route` objects — arc-length parameterized polylines —
that vehicles follow; turning movements are quarter-circle arcs through
the intersection box.

Coordinate frame: the intersection centre is the origin; x grows east and
y grows north.  An :class:`Approach` names the side a vehicle comes *from*
(a vehicle with ``Approach.SOUTH`` drives northwards).
"""

from __future__ import annotations

import bisect
import enum
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geom import Vec2

#: Lane centre offset from the road axis (half a 3.5 m lane).
LANE_OFFSET = 1.75

#: Half-width of the square conflict zone at the intersection centre.
INTERSECTION_HALF_SIZE = 7.0

#: Length of the approach leg before the intersection box.
APPROACH_LENGTH = 60.0

#: Length of the exit leg after the intersection box.
EXIT_LENGTH = 40.0

#: Sampling step for route polylines (metres).
ROUTE_SAMPLE_STEP = 0.5

#: Entries in :meth:`Route.points_ahead`: one per metre of lookahead.
_LOOKAHEAD_STEPS = 30

#: Lateral half-width of the lane corridor around a route (m).
_CORRIDOR_HALF_WIDTH = 2.5

#: Float-error slack of :meth:`Route.first_in_corridor`'s skip (m): the
#: computed distances sit within ~1e-13 m of exact on this map.
_CORRIDOR_SKIP_SLACK = 1e-9

#: The last lookahead table, per thread: one immutable ``(route, s,
#: points)`` tuple, read once and replaced whole.  Routes are shared by
#: every thread of a process and the service runs two jobs at once on
#: threads; per thread, neither job evicts the other's table, and the
#: number of route samplings each job does stays independent of the
#: thread schedule.
_lookahead_memo = threading.local()


class Approach(enum.Enum):
    """The compass side a vehicle enters from."""

    NORTH = "north"
    SOUTH = "south"
    EAST = "east"
    WEST = "west"


class Movement(enum.Enum):
    """Turning movement through the intersection."""

    STRAIGHT = "straight"
    LEFT = "left"
    RIGHT = "right"


#: Rotation (radians, counter-clockwise) mapping the canonical from-south
#: frame onto each approach.
_APPROACH_ROTATION = {
    Approach.SOUTH: 0.0,
    Approach.WEST: -math.pi / 2.0,
    Approach.NORTH: math.pi,
    Approach.EAST: math.pi / 2.0,
}


@dataclass
class Route:
    """An arc-length parameterized path through the network.

    Routes are immutable after construction and shared process-wide (see
    :func:`default_map`).

    Attributes:
        approach: where the route enters from.
        movement: the turning movement it performs.
        waypoints: densely sampled polyline.
        length: total arc length (m).
    """

    approach: Approach
    movement: Movement
    waypoints: List[Vec2]
    length: float = field(init=False, repr=False)
    _cumulative: List[float] = field(init=False, repr=False)
    _entry_s: float = field(init=False, repr=False)
    _exit_s: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a route needs at least two waypoints")
        self._cumulative = [0.0]
        for i in range(1, len(self.waypoints)):
            step = self.waypoints[i].distance_to(self.waypoints[i - 1])
            self._cumulative.append(self._cumulative[-1] + step)
        self.length = self._cumulative[-1]
        # Waypoints are immutable after construction, so the box-crossing
        # arc lengths are fixed; precomputing them keeps entry_s/exit_s out
        # of the per-tick hot path (they are queried for every vehicle).
        self._entry_s = self.length
        for i, point in enumerate(self.waypoints):
            if _in_box(point):
                self._entry_s = self._cumulative[i]
                break
        self._exit_s = 0.0
        for i in range(len(self.waypoints) - 1, -1, -1):
            if _in_box(self.waypoints[i]):
                self._exit_s = self._cumulative[min(i + 1, len(self.waypoints) - 1)]
                break

    def __deepcopy__(self, memo: dict) -> "Route":
        # Immutable and shared: run-end world-state snapshots keep the
        # reference instead of copying the polyline.
        return self

    def point_at(self, s: float) -> Vec2:
        """Position at arc length ``s`` (clamped to the route ends)."""
        s = max(0.0, min(s, self.length))
        cumulative = self._cumulative
        waypoints = self.waypoints
        index = bisect.bisect_right(cumulative, s) - 1
        if index >= len(waypoints) - 1:
            return waypoints[-1]
        seg_start = cumulative[index]
        seg_len = cumulative[index + 1] - seg_start
        t = 0.0 if seg_len == 0.0 else (s - seg_start) / seg_len
        a = waypoints[index]
        b = waypoints[index + 1]
        # ``a.lerp(b, t)``, inlined.
        return Vec2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)

    def points_ahead(self, s: float) -> "Tuple[Vec2, ...]":
        """Lookahead table: entry ``k - 1`` is ``point_at(s + float(k))``
        for ``k = 1 .. _LOOKAHEAD_STEPS``.

        The planner features, the HD-map sensor text and the
        blocking-obstacle check all look ahead from the same ``s`` in one
        tick, so the last table is kept (see :data:`_lookahead_memo`).
        """
        memo = getattr(_lookahead_memo, "last", None)
        if memo is not None and memo[0] is self and memo[1] == s:
            return memo[2]
        points = tuple([self.point_at(s + float(k)) for k in range(1, _LOOKAHEAD_STEPS + 1)])
        _lookahead_memo.last = (self, s, points)
        return points

    def first_in_corridor(self, s: float, point: Vec2, first: int, last: int) -> Optional[int]:
        """Smallest ``k`` in ``first..last`` whose lookahead point
        (:meth:`points_ahead`) lies within :data:`_CORRIDOR_HALF_WIDTH` of
        ``point``; ``None`` when ``point`` is outside the corridor there.

        Lookahead entries ``k`` and ``k + j`` are at most ``j`` m apart
        (the chord is no longer than the arc; clamped entries coincide),
        so a point ``d`` m from entry ``k`` is more than the half-width
        from entries ``k + 1 .. k + floor(d - half-width - slack)``, and
        the scan skips them: it returns the same ``k`` as a full scan.
        """
        ahead = self.points_ahead(s)
        half_width = _CORRIDOR_HALF_WIDTH
        skip_offset = half_width + _CORRIDOR_SKIP_SLACK
        k = first
        while k <= last:
            d = point.distance_to(ahead[k - 1])
            if d <= half_width:
                return k
            # d > half-width, so d - skip_offset > -1 and int() floors it
            # (to 0 in the slack band).
            k += 1 + int(d - skip_offset)
        return None

    def heading_at(self, s: float) -> float:
        """Path tangent heading (radians) at arc length ``s``."""
        s = max(0.0, min(s, self.length))
        index = bisect.bisect_right(self._cumulative, s) - 1
        index = min(index, len(self.waypoints) - 2)
        direction = self.waypoints[index + 1] - self.waypoints[index]
        return direction.angle()

    @property
    def entry_s(self) -> float:
        """Arc length at which the route enters the intersection box."""
        return self._entry_s

    @property
    def exit_s(self) -> float:
        """Arc length at which the route leaves the intersection box."""
        return self._exit_s


def _in_box(point: Vec2, half_size: float = INTERSECTION_HALF_SIZE) -> bool:
    return abs(point.x) <= half_size and abs(point.y) <= half_size


def _sample_line(start: Vec2, end: Vec2) -> List[Vec2]:
    length = start.distance_to(end)
    steps = max(1, int(math.ceil(length / ROUTE_SAMPLE_STEP)))
    return [start.lerp(end, i / steps) for i in range(steps + 1)]


def _sample_arc(center: Vec2, radius: float, start_angle: float, end_angle: float) -> List[Vec2]:
    arc_len = abs(end_angle - start_angle) * radius
    steps = max(2, int(math.ceil(arc_len / ROUTE_SAMPLE_STEP)))
    return [
        center + Vec2.from_polar(radius, start_angle + (end_angle - start_angle) * i / steps)
        for i in range(steps + 1)
    ]


def _canonical_waypoints(movement: Movement) -> List[Vec2]:
    """Waypoints for the from-south approach; other approaches are rotations."""
    entry = Vec2(LANE_OFFSET, -INTERSECTION_HALF_SIZE)
    start = Vec2(LANE_OFFSET, -INTERSECTION_HALF_SIZE - APPROACH_LENGTH)
    points = _sample_line(start, entry)

    if movement is Movement.STRAIGHT:
        through_end = Vec2(LANE_OFFSET, INTERSECTION_HALF_SIZE)
        exit_end = Vec2(LANE_OFFSET, INTERSECTION_HALF_SIZE + EXIT_LENGTH)
        points += _sample_line(entry, through_end)[1:]
        points += _sample_line(through_end, exit_end)[1:]
    elif movement is Movement.RIGHT:
        # Clockwise quarter circle from the south entry to the east exit.
        center = Vec2(INTERSECTION_HALF_SIZE, -INTERSECTION_HALF_SIZE)
        radius = INTERSECTION_HALF_SIZE - LANE_OFFSET
        points += _sample_arc(center, radius, math.pi, math.pi / 2.0)[1:]
        exit_start = Vec2(INTERSECTION_HALF_SIZE, -LANE_OFFSET)
        exit_end = Vec2(INTERSECTION_HALF_SIZE + EXIT_LENGTH, -LANE_OFFSET)
        points += _sample_line(exit_start, exit_end)[1:]
    elif movement is Movement.LEFT:
        # Counter-clockwise quarter circle from the south entry to the west exit.
        center = Vec2(-INTERSECTION_HALF_SIZE, -INTERSECTION_HALF_SIZE)
        radius = INTERSECTION_HALF_SIZE + LANE_OFFSET
        points += _sample_arc(center, radius, 0.0, math.pi / 2.0)[1:]
        exit_start = Vec2(-INTERSECTION_HALF_SIZE, LANE_OFFSET)
        exit_end = Vec2(-INTERSECTION_HALF_SIZE - EXIT_LENGTH, LANE_OFFSET)
        points += _sample_line(exit_start, exit_end)[1:]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown movement {movement}")
    return points


@dataclass(frozen=True)
class Crosswalk:
    """A straight pedestrian crossing, parameterized by its two kerb points."""

    start: Vec2
    end: Vec2

    @property
    def length(self) -> float:
        return self.start.distance_to(self.end)

    def point_at(self, s: float) -> Vec2:
        t = 0.0 if self.length == 0.0 else max(0.0, min(1.0, s / self.length))
        return self.start.lerp(self.end, t)

    def heading(self) -> float:
        return (self.end - self.start).angle()


class IntersectionMap:
    """The road network: 12 routes (4 approaches x 3 movements) + crosswalks.

    Routes are built eagerly and cached; route pairs that geometrically
    conflict inside the intersection box are precomputed for the background
    traffic's right-of-way logic.
    """

    #: Gap (metres) below which two routes are considered conflicting.
    CONFLICT_DISTANCE = 2.5

    def __init__(self) -> None:
        self._routes: Dict[Tuple[Approach, Movement], Route] = {}
        for approach in Approach:
            rotation = _APPROACH_ROTATION[approach]
            for movement in Movement:
                waypoints = [p.rotated(rotation) for p in _canonical_waypoints(movement)]
                self._routes[(approach, movement)] = Route(approach, movement, waypoints)
        self._conflicts = self._compute_conflicts()
        #: South-side crossing used by the pedestrian scenario: it crosses
        #: the from-south approach lane just before the intersection box.
        self.south_crosswalk = Crosswalk(
            Vec2(-6.0, -(INTERSECTION_HALF_SIZE + 2.0)),
            Vec2(6.0, -(INTERSECTION_HALF_SIZE + 2.0)),
        )

    def route(self, approach: Approach, movement: Movement) -> Route:
        """The route for an (approach, movement) pair."""
        return self._routes[(approach, movement)]

    @property
    def routes(self) -> "List[Route]":
        return list(self._routes.values())

    def conflict(self, a: Route, b: Route) -> bool:
        """True when the two routes cross paths inside the intersection."""
        return (self._key(a), self._key(b)) in self._conflicts

    @staticmethod
    def _key(route: Route) -> Tuple[Approach, Movement]:
        return (route.approach, route.movement)

    def _compute_conflicts(self) -> "set[Tuple[Tuple[Approach, Movement], Tuple[Approach, Movement]]]":
        conflicts = set()
        routes = list(self._routes.values())
        for i, a in enumerate(routes):
            a_points = [p for p in a.waypoints if _in_box(p, INTERSECTION_HALF_SIZE + 1.0)]
            for b in routes[i + 1:]:
                if a.approach == b.approach:
                    continue
                b_points = [p for p in b.waypoints if _in_box(p, INTERSECTION_HALF_SIZE + 1.0)]
                if self._polylines_close(a_points, b_points):
                    conflicts.add((self._key(a), self._key(b)))
                    conflicts.add((self._key(b), self._key(a)))
        return conflicts

    @classmethod
    def _polylines_close(cls, a_points: List[Vec2], b_points: List[Vec2]) -> bool:
        threshold = cls.CONFLICT_DISTANCE
        for pa in a_points:
            for pb in b_points:
                if pa.distance_to(pb) <= threshold:
                    return True
        return False


def in_intersection_box(point: Vec2, margin: float = 0.0) -> bool:
    """True when ``point`` lies inside the central conflict zone."""
    return _in_box(point, INTERSECTION_HALF_SIZE + margin)


_DEFAULT_MAP: "IntersectionMap | None" = None


def default_map() -> IntersectionMap:
    """Process-wide shared :class:`IntersectionMap`.

    The map (12 routes + the O(n^2) conflict table) is immutable after
    construction, so every :class:`~repro.sim.world.World` in a process can
    share one instance instead of rebuilding it per run — construction was
    ~18% of a short run's wall time.  Forked workers inherit the parent's
    instance; spawned workers build their own on first use.
    """
    global _DEFAULT_MAP
    if _DEFAULT_MAP is None:
        _DEFAULT_MAP = IntersectionMap()
    return _DEFAULT_MAP
