"""Tests for the intersection map and route geometry."""

import copy
import math
import sys
import threading

import pytest

from repro.geom import Vec2
from repro.sim.intersection import _CORRIDOR_HALF_WIDTH
from repro.sim import (
    APPROACH_LENGTH,
    INTERSECTION_HALF_SIZE,
    LANE_OFFSET,
    Approach,
    Movement,
    in_intersection_box,
)


class TestRouteGeometry:
    def test_all_twelve_routes_exist(self, intersection_map):
        assert len(intersection_map.routes) == 12

    def test_route_starts_on_approach_lane(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        start = route.point_at(0.0)
        assert start.x == pytest.approx(LANE_OFFSET)
        assert start.y == pytest.approx(-(INTERSECTION_HALF_SIZE + APPROACH_LENGTH))

    def test_straight_route_is_straight(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        for s in (0.0, 30.0, 60.0, 80.0):
            assert route.point_at(s).x == pytest.approx(LANE_OFFSET, abs=1e-9)
            assert route.heading_at(s) == pytest.approx(math.pi / 2, abs=1e-6)

    def test_right_turn_exits_east(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.RIGHT)
        end = route.point_at(route.length)
        assert end.x > INTERSECTION_HALF_SIZE
        assert end.y == pytest.approx(-LANE_OFFSET, abs=0.1)
        assert route.heading_at(route.length) == pytest.approx(0.0, abs=0.05)

    def test_left_turn_exits_west(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.LEFT)
        end = route.point_at(route.length)
        assert end.x < -INTERSECTION_HALF_SIZE
        assert end.y == pytest.approx(LANE_OFFSET, abs=0.1)

    def test_rotated_approaches_are_consistent(self, intersection_map):
        # From-north straight drives south along x = -LANE_OFFSET.
        route = intersection_map.route(Approach.NORTH, Movement.STRAIGHT)
        mid = route.point_at(route.length / 2)
        assert mid.x == pytest.approx(-LANE_OFFSET, abs=0.1)
        assert route.heading_at(10.0) == pytest.approx(-math.pi / 2, abs=1e-6)

    def test_entry_and_exit_bracket_the_box(self, intersection_map):
        for route in intersection_map.routes:
            assert 0.0 < route.entry_s < route.exit_s < route.length
            inside = route.point_at((route.entry_s + route.exit_s) / 2)
            assert in_intersection_box(inside)
            assert not in_intersection_box(route.point_at(route.entry_s - 2.0))

    def test_entry_distance_matches_approach_length(self, intersection_map):
        route = intersection_map.route(Approach.WEST, Movement.STRAIGHT)
        assert route.entry_s == pytest.approx(APPROACH_LENGTH, abs=1.0)

    def test_point_at_clamps(self, intersection_map):
        route = intersection_map.route(Approach.EAST, Movement.LEFT)
        assert route.point_at(-5.0) == route.point_at(0.0)
        assert route.point_at(route.length + 10.0) == route.point_at(route.length)

    def test_arc_length_parameterization_is_monotone(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.LEFT)
        previous = route.point_at(0.0)
        for i in range(1, 40):
            s = i * route.length / 40
            point = route.point_at(s)
            step = point.distance_to(previous)
            assert step > 0.0
            previous = point

    def test_arc_length_accuracy(self, intersection_map):
        # Walking 10 m along the route moves ~10 m of geometry.
        route = intersection_map.route(Approach.SOUTH, Movement.RIGHT)
        a, b = route.point_at(20.0), route.point_at(30.0)
        assert a.distance_to(b) == pytest.approx(10.0, rel=0.02)

    def test_deepcopy_shares_the_route(self, intersection_map):
        # Routes are immutable and shared, so a run-end world-state
        # snapshot keeps the reference instead of copying the polyline.
        route = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        assert copy.deepcopy(route) is route
        assert copy.deepcopy([route])[0] is route

    def test_length_is_the_final_arc_length(self, intersection_map):
        for route in intersection_map.routes:
            assert route.length == route._cumulative[-1]


class TestLookaheadTable:
    def test_entries_equal_point_at_on_every_route(self, intersection_map):
        # Both clamped ends included: s < 0, s = 0, s within 30 m of the
        # end, s = length and s beyond it.
        for route in intersection_map.routes:
            for s in (-3.0, 0.0, 10.0, 37.3, route.length - 12.5, route.length, route.length + 4.0):
                ahead = route.points_ahead(s)
                assert len(ahead) == 30
                for k in range(1, 31):
                    assert ahead[k - 1] == route.point_at(s + float(k)), (route, s, k)

    def test_entries_are_one_metre_apart_along_the_path(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        ahead = route.points_ahead(10.0)
        assert ahead[4].distance_to(route.point_at(15.0)) < 0.3
        assert ahead[1].distance_to(ahead[0]) == pytest.approx(1.0)

    def test_same_s_reuses_the_table(self, intersection_map):
        route = intersection_map.route(Approach.WEST, Movement.LEFT)
        first = route.points_ahead(21.5)
        assert route.points_ahead(21.5) is first
        assert route.points_ahead(22.0) is not first

    def test_threads_never_read_each_others_table(self, intersection_map):
        # Two threads alternate on one route with a tiny switch interval,
        # each with its own s.  A memo kept as separate attributes (s,
        # points) would hand one thread the other's points.
        shared = intersection_map.route(Approach.SOUTH, Movement.LEFT)
        cases = [(12.25, shared.points_ahead(12.25)), (40.5, shared.points_ahead(40.5))]
        errors = []

        def sample(s, expected):
            for _ in range(3000):
                if shared.points_ahead(s) != expected:
                    errors.append(s)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sample, args=case) for case in cases]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_corridor_hit_is_the_first_table_point_in_reach(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        ahead = route.points_ahead(5.0)
        on_lane = ahead[9]
        assert route.first_in_corridor(5.0, on_lane, 1, 25) == 8
        assert route.first_in_corridor(5.0, on_lane, 13, 25) is None
        beside = Vec2(on_lane.x + 3.0, on_lane.y)
        assert route.first_in_corridor(5.0, beside, 1, 30) is None


def full_corridor_scan(route, s, point, first, last):
    """Reference for ``Route.first_in_corridor``: every entry, in order."""
    ahead = route.points_ahead(s)
    for k in range(first, last + 1):
        if point.distance_to(ahead[k - 1]) <= _CORRIDOR_HALF_WIDTH:
            return k
    return None


def corridor_probe_points(route, s):
    """Points on the route, far from it, and within 1e-12 m of the
    corridor's edge around every lookahead entry."""
    ahead = route.points_ahead(s)
    points = list(ahead)
    points += [route.point_at(s + k + 0.5) for k in range(0, 31, 3)]
    points += [Vec2(p.x + 40.0, p.y - 35.0) for p in ahead[::7]]
    for k, entry in enumerate(ahead, start=1):
        heading = route.heading_at(s + float(k))
        # Along the path (where the skip's bound is tight), back along
        # it, and to either side.
        for turn in (0.0, math.pi, math.pi / 2.0, -math.pi / 2.0):
            direction = Vec2.unit(heading + turn)
            for delta in (-1e-12, 0.0, 1e-12):
                points.append(entry + direction * (_CORRIDOR_HALF_WIDTH + delta))
    return points


class TestCorridorSkip:
    """``first_in_corridor`` skips entries a distance bound rules out;
    it must return exactly what the full scan returns."""

    @pytest.mark.parametrize("first,last", [(1, 25), (2, 30)])
    def test_matches_the_full_scan_on_every_route(self, intersection_map, first, last):
        checked = hits = 0
        for route in intersection_map.routes:
            for s in (-3.0, 0.0, route.length / 2.0, route.length - 12.5,
                      route.length - 0.5, route.length + 4.0):
                for point in corridor_probe_points(route, s):
                    expected = full_corridor_scan(route, s, point, first, last)
                    assert route.first_in_corridor(s, point, first, last) == expected, (
                        route.approach, route.movement, s, point
                    )
                    checked += 1
                    hits += expected is not None
        assert len(intersection_map.routes) == 12
        assert hits and hits < checked  # both outcomes exercised

    def test_far_point_reads_few_entries(self, intersection_map):
        route = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        reads = []

        class CountingPoint(Vec2):
            def distance_to(self, other):
                reads.append(other)
                return super().distance_to(other)

        far = route.point_at(20.0) + Vec2(30.0, 0.0)
        assert route.first_in_corridor(5.0, CountingPoint(far.x, far.y), 2, 30) is None
        assert len(reads) <= 2


class TestConflicts:
    def test_crossing_straights_conflict(self, intersection_map):
        south = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        east = intersection_map.route(Approach.EAST, Movement.STRAIGHT)
        assert intersection_map.conflict(south, east)

    def test_opposite_straights_do_not_conflict(self, intersection_map):
        south = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        north = intersection_map.route(Approach.NORTH, Movement.STRAIGHT)
        assert not intersection_map.conflict(south, north)

    def test_oncoming_left_conflicts_with_straight(self, intersection_map):
        south = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        north_left = intersection_map.route(Approach.NORTH, Movement.LEFT)
        assert intersection_map.conflict(south, north_left)

    def test_conflict_is_symmetric(self, intersection_map):
        routes = intersection_map.routes
        for a in routes:
            for b in routes:
                assert intersection_map.conflict(a, b) == intersection_map.conflict(b, a)

    def test_same_approach_never_conflicts(self, intersection_map):
        a = intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
        b = intersection_map.route(Approach.SOUTH, Movement.LEFT)
        assert not intersection_map.conflict(a, b)


class TestCrosswalk:
    def test_south_crosswalk_crosses_ego_lane(self, intersection_map):
        crosswalk = intersection_map.south_crosswalk
        xs = [crosswalk.point_at(s).x for s in (0.0, crosswalk.length)]
        assert min(xs) < LANE_OFFSET < max(xs)

    def test_point_at_clamps(self, intersection_map):
        crosswalk = intersection_map.south_crosswalk
        assert crosswalk.point_at(-1.0) == crosswalk.start
        assert crosswalk.point_at(crosswalk.length + 1.0) == crosswalk.end


class TestBoxPredicate:
    def test_centre_inside(self):
        assert in_intersection_box(Vec2(0, 0))

    def test_margin(self):
        outside = Vec2(INTERSECTION_HALF_SIZE + 0.5, 0)
        assert not in_intersection_box(outside)
        assert in_intersection_box(outside, margin=1.0)
