"""Planar footprints and overlap tests.

Vehicles are modelled as oriented rectangles (OBBs) and pedestrians as
circles.  The simulator's ground-truth collision detector
(:mod:`repro.sim.collision`) and the geometric safety checks both use the
overlap predicates defined here, so the monitor and the ground truth share a
single, well-tested geometric vocabulary.  Footprints are slotted values,
immutable by convention like :class:`~repro.geom.vec.Vec2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, List, Tuple, Union

from .vec import Vec2


@dataclass(unsafe_hash=True)
class Circle:
    """A circular footprint (used for pedestrians and ghost obstacles)."""

    __slots__ = ("center", "radius")

    center: Vec2
    radius: float

    def contains(self, point: Vec2) -> bool:
        """True when ``point`` lies inside or on the circle boundary."""
        return self.center.distance_to(point) <= self.radius

    def translated(self, offset: Vec2) -> "Circle":
        """Circle moved by ``offset``."""
        return Circle(self.center + offset, self.radius)

    def bounding_radius(self) -> float:
        """Radius of the smallest circle centred on ``center`` containing it."""
        return self.radius


@dataclass(unsafe_hash=True)
class OBB:
    """An oriented bounding box: ``center``, ``heading`` (radians) and
    half-extents along the local x (length) and y (width) axes.
    """

    __slots__ = ("center", "heading", "half_length", "half_width")

    center: Vec2
    heading: float
    half_length: float
    half_width: float

    @property
    def axes(self) -> "tuple[Vec2, Vec2]":
        """Local unit axes (forward, left) in world coordinates."""
        forward = Vec2.unit(self.heading)
        return forward, forward.perpendicular()

    def corners(self) -> List[Vec2]:
        """The four corners in counter-clockwise order."""
        forward, left = self.axes
        dx = forward * self.half_length
        dy = left * self.half_width
        return [
            self.center + dx + dy,
            self.center - dx + dy,
            self.center - dx - dy,
            self.center + dx - dy,
        ]

    def contains(self, point: Vec2) -> bool:
        """True when ``point`` lies inside or on the box boundary."""
        forward, left = self.axes
        rel = point - self.center
        return (
            abs(rel.dot(forward)) <= self.half_length + 1e-12
            and abs(rel.dot(left)) <= self.half_width + 1e-12
        )

    def translated(self, offset: Vec2) -> "OBB":
        """Box moved by ``offset`` (heading unchanged)."""
        return OBB(self.center + offset, self.heading, self.half_length, self.half_width)

    def inflated(self, margin: float) -> "OBB":
        """Box grown by ``margin`` on every side (safety buffers)."""
        return OBB(
            self.center,
            self.heading,
            self.half_length + margin,
            self.half_width + margin,
        )

    def bounding_radius(self) -> float:
        """Radius of the smallest circle centred on ``center`` containing the box."""
        return math.hypot(self.half_length, self.half_width)


Shape = Union[OBB, Circle]


def obb_overlaps_obb(a: OBB, b: OBB) -> bool:
    """Separating-axis overlap test between two oriented boxes.

    A cheap bounding-circle rejection runs first because in a sparse traffic
    scene almost all pairs are far apart.
    """
    reach = a.bounding_radius() + b.bounding_radius()
    acx, acy = a.center.x, a.center.y
    bcx, bcy = b.center.x, b.center.y
    if math.hypot(acx - bcx, acy - bcy) > reach:
        return False
    return _sat_overlap(
        acx, acy, math.cos(a.heading), math.sin(a.heading), a.half_length, a.half_width,
        bcx, bcy, math.cos(b.heading), math.sin(b.heading), b.half_length, b.half_width,
    )


def _sat_overlap(
    acx: float, acy: float, afx: float, afy: float, ahl: float, ahw: float,
    bcx: float, bcy: float, bfx: float, bfy: float, bhl: float, bhw: float,
) -> bool:
    """Separating-axis test on plain floats (``f``: each box's unit forward axis).

    Both boxes are projected onto the four candidate axes; any gap between
    the two projected intervals separates them.  The vector algebra is
    inlined because this predicate (via :func:`footprint_gap`) is the
    simulator's hottest call, and short-lived ``Vec2`` instances dominated
    its cost.
    """
    # The four candidate axes: a.forward, a.left, b.forward, b.left
    # (left = forward rotated 90 degrees counter-clockwise).
    for ax, ay in ((afx, afy), (-afy, afx), (bfx, bfy), (-bfy, bfx)):
        acenter = acx * ax + acy * ay
        aextent = abs(afx * ax + afy * ay) * ahl + abs(-afy * ax + afx * ay) * ahw
        bcenter = bcx * ax + bcy * ay
        bextent = abs(bfx * ax + bfy * ay) * bhl + abs(-bfy * ax + bfx * ay) * bhw
        if acenter + aextent < bcenter - bextent or bcenter + bextent < acenter - aextent:
            return False
    return True


def obb_overlaps_circle(box: OBB, circle: Circle) -> bool:
    """True when an oriented box and a circle intersect."""
    fx, fy = math.cos(box.heading), math.sin(box.heading)
    cx, cy = box.center.x, box.center.y
    px, py = circle.center.x, circle.center.y
    relx, rely = px - cx, py - cy
    # Closest point on the box to the circle center, in local coordinates
    # (left axis = (-fy, fx), the forward axis rotated 90 degrees CCW).
    local_x = max(-box.half_length, min(box.half_length, relx * fx + rely * fy))
    local_y = max(-box.half_width, min(box.half_width, relx * -fy + rely * fx))
    closest_x = (cx + fx * local_x) + -fy * local_y
    closest_y = (cy + fy * local_x) + fx * local_y
    return math.hypot(closest_x - px, closest_y - py) <= circle.radius


def circle_overlaps_circle(a: Circle, b: Circle) -> bool:
    """True when two circles intersect."""
    return a.center.distance_to(b.center) <= a.radius + b.radius


def shapes_overlap(a: Shape, b: Shape) -> bool:
    """Dispatching overlap test for any pair of footprints."""
    if isinstance(a, OBB) and isinstance(b, OBB):
        return obb_overlaps_obb(a, b)
    if isinstance(a, OBB) and isinstance(b, Circle):
        return obb_overlaps_circle(a, b)
    if isinstance(a, Circle) and isinstance(b, OBB):
        return obb_overlaps_circle(b, a)
    if isinstance(a, Circle) and isinstance(b, Circle):
        return circle_overlaps_circle(a, b)
    raise TypeError(f"unsupported shape pair: {type(a).__name__}, {type(b).__name__}")


def _point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point ``p`` to segment ``ab`` on plain floats.

    Clamped projection of ``p`` onto the segment, then the distance to it.
    """
    segx, segy = bx - ax, by - ay
    seg_len_sq = segx * segx + segy * segy
    if seg_len_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * segx + (py - ay) * segy) / seg_len_sq))
    return math.hypot(px - (ax + segx * t), py - (ay + segy * t))


def _corner_coords(
    cx: float, cy: float, fx: float, fy: float, half_length: float, half_width: float
) -> "tuple[float, ...]":
    """Corner coordinates ``(x0, y0, ..., x3, y3)`` in CCW order.

    Float twin of :meth:`OBB.corners` with identical operation order:
    each corner is ``(center ± dx) ± dy`` evaluated left to right.
    """
    dxx, dxy = fx * half_length, fy * half_length
    dyx, dyy = -fy * half_width, fx * half_width
    return (
        (cx + dxx) + dyx, (cy + dxy) + dyy,
        (cx - dxx) + dyx, (cy - dxy) + dyy,
        (cx - dxx) - dyx, (cy - dxy) - dyy,
        (cx + dxx) - dyx, (cy + dxy) - dyy,
    )


#: Safety margin absorbing float rounding in the lower bounds below (vertex
#: and edge-line bounds here, footprint pairs in :func:`nearest_first`,
#: projected intervals in :func:`separating_axis_bound`), so pruning can
#: never discard the true minimum.
_EDGE_BOUND_SLACK = 1e-9

#: For boxes the SAT test separates, the segment-crossing test of
#: :func:`_edges_cross` can fire only when a corner lies within rounding of
#: an edge line of the other box; this is that distance, with ample margin.
_CONTACT_DISTANCE = 1e-6


def _edges_cross(ca: "tuple[float, ...]", cb: "tuple[float, ...]") -> bool:
    """True when an edge of one box properly crosses an edge of the other.

    The segment-crossing sign test of the 16-edge-pair reference (edge i
    of ``ca`` against edge j of ``cb``) with its arithmetic unchanged, so
    it fires on exactly the pairs where rounding makes the reference fire.
    """
    for i in (0, 2, 4, 6):
        p1x, p1y = ca[i], ca[i + 1]
        p2x, p2y = ca[(i + 2) % 8], ca[(i + 3) % 8]
        px, py = p2x - p1x, p2y - p1y
        for j in (0, 2, 4, 6):
            q1x, q1y = cb[j], cb[j + 1]
            q2x, q2y = cb[(j + 2) % 8], cb[(j + 3) % 8]
            qx, qy = q2x - q1x, q2y - q1y
            d1 = px * (q1y - p1y) - py * (q1x - p1x)
            d2 = px * (q2y - p1y) - py * (q2x - p1x)
            d3 = qx * (p1y - q1y) - qy * (p1x - q1x)
            d4 = qx * (p2y - q1y) - qy * (p2x - q1x)
            if d1 * d2 < 0.0 and d3 * d4 < 0.0:
                return True
    return False


def _obb_gap(a: OBB, b: OBB) -> float:
    acx, acy = a.center.x, a.center.y
    bcx, bcy = b.center.x, b.center.y
    afx, afy = math.cos(a.heading), math.sin(a.heading)
    bfx, bfy = math.cos(b.heading), math.sin(b.heading)
    ahl, ahw = a.half_length, a.half_width
    bhl, bhw = b.half_length, b.half_width
    # obb_overlaps_obb, sharing cos/sin with the corner construction.
    far = math.hypot(acx - bcx, acy - bcy) > a.bounding_radius() + b.bounding_radius()
    if not far and _sat_overlap(acx, acy, afx, afy, ahl, ahw, bcx, bcy, bfx, bfy, bhl, bhw):
        return 0.0
    ca = _corner_coords(acx, acy, afx, afy, ahl, ahw)
    cb = _corner_coords(bcx, bcy, bfx, bfy, bhl, bhw)
    # Each corner in the other box's frame, (u, v) along its forward and
    # left axes, with its distance to that box as ``bound``.
    vertices = []
    near = False
    for corners, cx, cy, fx, fy, hl, hw, edges in (
        (cb, acx, acy, afx, afy, ahl, ahw, ca),
        (ca, bcx, bcy, bfx, bfy, bhl, bhw, cb),
    ):
        for k in (0, 2, 4, 6):
            x, y = corners[k], corners[k + 1]
            rx, ry = x - cx, y - cy
            u = rx * fx + ry * fy
            v = ry * fx - rx * fy
            du = abs(u) - hl
            dv = abs(v) - hw
            if abs(du) < _CONTACT_DISTANCE or abs(dv) < _CONTACT_DISTANCE:
                near = True
            if du > 0.0:
                bound = math.hypot(du, dv) if dv > 0.0 else du
            else:
                bound = dv if dv > 0.0 else 0.0
            vertices.append((bound, x, y, u, v, hl, hw, edges))
    # The reference reads 0 when an edge pair crosses.  For boxes the
    # separating-axis test keeps apart, that takes a corner within rounding
    # of an edge line of the other box (touching boxes, collinear faces),
    # so only then are the 16 pairs tested.
    if near and _edges_cross(ca, cb):
        return 0.0
    # The gap is the least vertex-edge distance.  A vertex's distance to
    # the other box bounds all four of its edge distances and the distance
    # to an edge's line bounds that edge's: visit vertices in ascending
    # order and stop at the first bound past the best distance.
    vertices.sort(key=itemgetter(0))
    best = math.inf
    for bound, x, y, u, v, hl, hw, e in vertices:
        if bound - _EDGE_BOUND_SLACK > best:
            break
        # Edge k runs from corner k to corner k + 1 and lies on the line
        # v = hw, u = -hl, v = -hw, u = hl for k = 0, 1, 2, 3.
        if abs(v - hw) - _EDGE_BOUND_SLACK <= best:
            d = _point_segment_distance(x, y, e[0], e[1], e[2], e[3])
            if d < best:
                best = d
        if abs(u + hl) - _EDGE_BOUND_SLACK <= best:
            d = _point_segment_distance(x, y, e[2], e[3], e[4], e[5])
            if d < best:
                best = d
        if abs(v + hw) - _EDGE_BOUND_SLACK <= best:
            d = _point_segment_distance(x, y, e[4], e[5], e[6], e[7])
            if d < best:
                best = d
        if abs(u - hl) - _EDGE_BOUND_SLACK <= best:
            d = _point_segment_distance(x, y, e[6], e[7], e[0], e[1])
            if d < best:
                best = d
    return best


def nearest_first(shape: Shape, others: Iterable[Shape]) -> "List[Tuple[float, Shape]]":
    """``(bound, other)`` pairs in ascending order of ``bound``, a lower
    bound on ``footprint_gap(shape, other)``.

    ``bound`` is the centre distance minus both bounding radii minus
    :data:`_EDGE_BOUND_SLACK`.  A caller that needs only the minimum gap
    visits the pairs in order and stops at the first bound at or above its
    running minimum: no gap from there on can undercut it.
    """
    cx, cy = shape.center.x, shape.center.y
    reach = shape.bounding_radius() + _EDGE_BOUND_SLACK
    pairs = [
        (
            math.hypot(other.center.x - cx, other.center.y - cy)
            - reach
            - other.bounding_radius(),
            other,
        )
        for other in others
    ]
    pairs.sort(key=itemgetter(0))
    return pairs


def separating_axis_bound(a: OBB, b: OBB) -> float:
    """A lower bound on ``footprint_gap(a, b)`` from projected intervals.

    Both boxes are projected onto the four candidate axes of
    :func:`_sat_overlap`; the largest gap between the two intervals, minus
    :data:`_EDGE_BOUND_SLACK`, is returned (negative when every axis
    overlaps).  Projection onto a unit axis never lengthens a distance, so
    no point of ``a`` lies closer than that gap to a point of ``b``.
    """
    acx, acy = a.center.x, a.center.y
    bcx, bcy = b.center.x, b.center.y
    afx, afy = math.cos(a.heading), math.sin(a.heading)
    bfx, bfy = math.cos(b.heading), math.sin(b.heading)
    ahl, ahw = a.half_length, a.half_width
    bhl, bhw = b.half_length, b.half_width
    bound = -math.inf
    for ax, ay in ((afx, afy), (-afy, afx), (bfx, bfy), (-bfy, bfx)):
        gap = (
            abs((acx - bcx) * ax + (acy - bcy) * ay)
            - abs(afx * ax + afy * ay) * ahl - abs(-afy * ax + afx * ay) * ahw
            - abs(bfx * ax + bfy * ay) * bhl - abs(-bfy * ax + bfx * ay) * bhw
        )
        if gap > bound:
            bound = gap
    return bound - _EDGE_BOUND_SLACK


def _closest_point_on_obb(box: OBB, point: Vec2) -> Vec2:
    forward, left = box.axes
    rel = point - box.center
    local_x = max(-box.half_length, min(box.half_length, rel.dot(forward)))
    local_y = max(-box.half_width, min(box.half_width, rel.dot(left)))
    return box.center + forward * local_x + left * local_y


def footprint_gap(a: Shape, b: Shape) -> float:
    """Exact minimum gap between two footprints (0 when they touch/overlap).

    This is the separation measure the geometric safety checks use: a pass
    in the adjacent lane keeps a ~1.5 m gap, a genuine crossing conflict
    drives the gap to zero — which centre distances cannot distinguish.
    """
    if isinstance(a, OBB) and isinstance(b, OBB):
        return _obb_gap(a, b)
    if isinstance(a, Circle) and isinstance(b, Circle):
        return max(0.0, a.center.distance_to(b.center) - a.radius - b.radius)
    if isinstance(a, Circle):
        a, b = b, a
    if isinstance(a, OBB) and isinstance(b, Circle):
        if obb_overlaps_circle(a, b):
            return 0.0
        closest = _closest_point_on_obb(a, b.center)
        return max(0.0, closest.distance_to(b.center) - b.radius)
    raise TypeError(f"unsupported shape pair: {type(a).__name__}, {type(b).__name__}")
