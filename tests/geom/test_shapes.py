"""Unit and property tests for footprints and overlap/gap computation."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geom import (
    OBB,
    Circle,
    Vec2,
    circle_overlaps_circle,
    footprint_gap,
    nearest_first,
    obb_overlaps_circle,
    obb_overlaps_obb,
    segment_distance,
    separation_distance,
    shapes_overlap,
)


def car(x: float, y: float, heading: float = 0.0) -> OBB:
    return OBB(center=Vec2(x, y), heading=heading, half_length=2.25, half_width=1.0)


class TestOBB:
    def test_corners_count_and_distance(self):
        box = car(0, 0)
        corners = box.corners()
        assert len(corners) == 4
        for corner in corners:
            assert corner.norm() == pytest.approx(math.hypot(2.25, 1.0))

    def test_contains_center_and_edge(self):
        box = car(0, 0)
        assert box.contains(Vec2(0, 0))
        assert box.contains(Vec2(2.25, 0))
        assert not box.contains(Vec2(2.3, 0))

    def test_rotated_contains(self):
        box = car(0, 0, heading=math.pi / 2)
        assert box.contains(Vec2(0, 2.25))
        assert not box.contains(Vec2(2.25, 0))

    def test_inflated_grows_both_extents(self):
        grown = car(0, 0).inflated(0.5)
        assert grown.half_length == 2.75
        assert grown.half_width == 1.5

    def test_translated(self):
        moved = car(0, 0).translated(Vec2(1, 2))
        assert moved.center == Vec2(1, 2)

    def test_bounding_radius(self):
        assert car(0, 0).bounding_radius() == pytest.approx(math.hypot(2.25, 1.0))


class TestOverlap:
    def test_identical_boxes_overlap(self):
        assert obb_overlaps_obb(car(0, 0), car(0, 0))

    def test_adjacent_lane_pass_does_not_overlap(self):
        # Two cars side by side at 3.5 m lane spacing.
        assert not obb_overlaps_obb(car(0, 0), car(0, 3.5))

    def test_touching_edge_overlaps(self):
        assert obb_overlaps_obb(car(0, 0), car(4.5, 0))

    def test_rotated_cross_overlap(self):
        a = car(0, 0)
        b = car(0, 0, heading=math.pi / 2)
        assert obb_overlaps_obb(a, b)

    def test_diagonal_near_miss(self):
        # Corner-to-corner separation just above zero.
        a = car(0, 0)
        b = car(4.8, 2.3)
        assert not obb_overlaps_obb(a, b)

    def test_circle_obb(self):
        box = car(0, 0)
        assert obb_overlaps_circle(box, Circle(Vec2(2.5, 0), 0.3))
        assert not obb_overlaps_circle(box, Circle(Vec2(3.0, 0), 0.3))

    def test_circle_circle(self):
        assert circle_overlaps_circle(Circle(Vec2(0, 0), 1.0), Circle(Vec2(1.5, 0), 0.6))
        assert not circle_overlaps_circle(Circle(Vec2(0, 0), 1.0), Circle(Vec2(1.7, 0), 0.6))

    def test_dispatch_covers_all_pairs(self):
        box, circle = car(0, 0), Circle(Vec2(0, 0), 0.5)
        assert shapes_overlap(box, box)
        assert shapes_overlap(box, circle)
        assert shapes_overlap(circle, box)
        assert shapes_overlap(circle, circle)

    def test_dispatch_rejects_unknown(self):
        with pytest.raises(TypeError):
            shapes_overlap(car(0, 0), "not a shape")  # type: ignore[arg-type]


class TestSegmentDistance:
    def test_crossing_segments_zero(self):
        assert segment_distance(Vec2(-1, 0), Vec2(1, 0), Vec2(0, -1), Vec2(0, 1)) == 0.0

    def test_parallel_segments(self):
        d = segment_distance(Vec2(0, 0), Vec2(2, 0), Vec2(0, 1), Vec2(2, 1))
        assert d == pytest.approx(1.0)

    def test_collinear_disjoint(self):
        d = segment_distance(Vec2(0, 0), Vec2(1, 0), Vec2(3, 0), Vec2(4, 0))
        assert d == pytest.approx(2.0)

    def test_degenerate_points(self):
        d = segment_distance(Vec2(0, 0), Vec2(0, 0), Vec2(3, 4), Vec2(3, 4))
        assert d == pytest.approx(5.0)


class TestFootprintGap:
    def test_adjacent_lane_gap_exact(self):
        # 3.5 m centre spacing, 1.0 m half widths -> 1.5 m gap.
        assert footprint_gap(car(0, 0), car(0, 3.5)) == pytest.approx(1.5)

    def test_bumper_to_bumper_gap(self):
        assert footprint_gap(car(0, 0), car(6.5, 0)) == pytest.approx(2.0)

    def test_overlap_gives_zero(self):
        assert footprint_gap(car(0, 0), car(1.0, 0)) == 0.0

    def test_circle_pair(self):
        a, b = Circle(Vec2(0, 0), 1.0), Circle(Vec2(5, 0), 1.5)
        assert footprint_gap(a, b) == pytest.approx(2.5)

    def test_obb_circle(self):
        gap = footprint_gap(car(0, 0), Circle(Vec2(5, 0), 0.5))
        assert gap == pytest.approx(5 - 2.25 - 0.5)

    def test_circle_obb_argument_order(self):
        a = footprint_gap(Circle(Vec2(5, 0), 0.5), car(0, 0))
        b = footprint_gap(car(0, 0), Circle(Vec2(5, 0), 0.5))
        assert a == pytest.approx(b)


coords = st.floats(min_value=-50, max_value=50, allow_nan=False)
headings = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


class TestProperties:
    @given(coords, coords, headings, coords, coords, headings)
    def test_overlap_symmetric(self, ax, ay, ah, bx, by, bh):
        a, b = car(ax, ay, ah), car(bx, by, bh)
        assert obb_overlaps_obb(a, b) == obb_overlaps_obb(b, a)

    @given(coords, coords, headings, coords, coords, headings)
    def test_gap_symmetric(self, ax, ay, ah, bx, by, bh):
        a, b = car(ax, ay, ah), car(bx, by, bh)
        assert footprint_gap(a, b) == pytest.approx(footprint_gap(b, a), abs=1e-9)

    @given(coords, coords, headings, coords, coords, headings)
    def test_gap_zero_iff_overlap(self, ax, ay, ah, bx, by, bh):
        a, b = car(ax, ay, ah), car(bx, by, bh)
        if shapes_overlap(a, b):
            assert footprint_gap(a, b) == 0.0
        else:
            assert footprint_gap(a, b) > 0.0

    @given(coords, coords, headings, coords, coords, headings)
    def test_quick_bound_never_exceeds_exact_gap(self, ax, ay, ah, bx, by, bh):
        a, b = car(ax, ay, ah), car(bx, by, bh)
        assert separation_distance(a, b) <= footprint_gap(a, b) + 1e-9

    @given(coords, coords, headings)
    def test_box_contains_all_its_corners(self, x, y, h):
        box = car(x, y, h)
        for corner in box.corners():
            assert box.contains(corner)


# ----------------------------------------------------------------------
# Exactness of the pruned OBB gap and of the broad phase
# ----------------------------------------------------------------------
def _ref_point_segment(p: Vec2, a: Vec2, b: Vec2) -> float:
    seg = b - a
    seg_len_sq = seg.norm_sq()
    if seg_len_sq == 0.0:
        return p.distance_to(a)
    t = max(0.0, min(1.0, (p - a).dot(seg) / seg_len_sq))
    return p.distance_to(a + seg * t)


def _ref_segment_distance(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> float:
    p, q = p2 - p1, q2 - q1
    if p.cross(q1 - p1) * p.cross(q2 - p1) < 0.0 and q.cross(p1 - q1) * q.cross(p2 - q1) < 0.0:
        return 0.0
    return min(
        _ref_point_segment(q1, p1, p2),
        _ref_point_segment(q2, p1, p2),
        _ref_point_segment(p1, q1, q2),
        _ref_point_segment(p2, q1, q2),
    )


def _ref_obb_gap(a: OBB, b: OBB) -> float:
    """All 16 edge pairs, no pruning, no memo: the reference."""
    if obb_overlaps_obb(a, b):
        return 0.0
    ca, cb = a.corners(), b.corners()
    return min(
        _ref_segment_distance(ca[i], ca[(i + 1) % 4], cb[j], cb[(j + 1) % 4])
        for i in range(4)
        for j in range(4)
    )


def _random_box(rng: random.Random, spread: float = 8.0) -> OBB:
    return OBB(
        center=Vec2(rng.uniform(-spread, spread), rng.uniform(-spread, spread)),
        heading=rng.uniform(-math.pi, math.pi),
        half_length=rng.uniform(0.2, 3.0),
        half_width=rng.uniform(0.2, 1.5),
    )


def _box_pairs(seed: int):
    rng = random.Random(seed)
    for _ in range(600):  # rotated, anywhere from overlapping to far
        yield _random_box(rng), _random_box(rng)
    for _ in range(300):  # face to face: touching, then 1e-9 apart
        a = _random_box(rng)
        forward = Vec2.unit(a.heading)
        for extra in (0.0, 1e-9, -1e-9):
            reach = a.half_length + 2.25 + extra
            b = OBB(a.center + forward * reach, a.heading, 2.25, 1.0)
            yield a, b
    for _ in range(300):  # a rotated corner touching (or 1e-9 off) a face
        a = _random_box(rng)
        turn = rng.uniform(0.1, 1.4)
        b_half = (rng.uniform(0.3, 2.5), rng.uniform(0.3, 1.2))
        # b's corner (-hl, -hw) in b's frame sits on a's forward face.
        corner_offset = Vec2(-b_half[0], -b_half[1]).rotated(a.heading + turn)
        face_point = a.center + Vec2.unit(a.heading) * a.half_length
        for extra in (0.0, 1e-9):
            center = face_point + Vec2.unit(a.heading) * extra - corner_offset
            yield a, OBB(center, a.heading + turn, *b_half)


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_obb_gap_equals_unpruned_reference(self, seed):
        for a, b in _box_pairs(seed):
            assert footprint_gap(a, b) == _ref_obb_gap(a, b), (a, b)
            assert footprint_gap(b, a) == _ref_obb_gap(b, a), (b, a)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_nearest_first_minimum_equals_exhaustive_minimum(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            ego = _random_box(rng, spread=3.0)
            others = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.3:
                    others.append(Circle(Vec2(rng.uniform(-8, 8), rng.uniform(-8, 8)),
                                         rng.uniform(0.2, 0.5)))
                else:
                    others.append(_random_box(rng))
            best = math.inf
            for bound, shape in nearest_first(ego, others):
                assert bound <= footprint_gap(ego, shape)
                if bound >= best:
                    break
                best = min(best, footprint_gap(ego, shape))
            assert best == min(footprint_gap(ego, shape) for shape in others)

    def test_nearest_first_orders_by_bound(self):
        ego = car(0, 0)
        near, far = car(0, 4), Circle(Vec2(20, 0), 0.3)
        assert [shape for _, shape in nearest_first(ego, [far, near])] == [near, far]
