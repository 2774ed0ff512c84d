"""Tests for constant-velocity prediction, CPA and TTC."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geom import (
    KinematicState,
    Vec2,
    closest_point_of_approach,
    min_separation_over_horizon,
    path_length,
    predict_positions,
    stopping_distance,
    time_to_collision,
)


def state(px, py, vx, vy) -> KinematicState:
    return KinematicState(position=Vec2(px, py), velocity=Vec2(vx, vy))


class TestPrediction:
    def test_at_linear(self):
        s = state(1, 2, 3, -1)
        assert s.at(2.0) == Vec2(7, 0)

    def test_predict_positions_includes_t0(self):
        points = predict_positions(state(0, 0, 1, 0), horizon_s=1.0, step_s=0.5)
        assert points[0] == Vec2(0, 0)
        assert points[-1] == Vec2(1, 0)
        assert len(points) == 3

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            predict_positions(state(0, 0, 0, 0), horizon_s=-1.0)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            predict_positions(state(0, 0, 0, 0), step_s=0.0)


class TestCPA:
    def test_head_on(self):
        a = state(0, 0, 1, 0)
        b = state(10, 0, -1, 0)
        t, d = closest_point_of_approach(a, b)
        assert t == pytest.approx(5.0)
        assert d == pytest.approx(0.0)

    def test_parallel_same_velocity(self):
        a = state(0, 0, 2, 0)
        b = state(0, 3, 2, 0)
        t, d = closest_point_of_approach(a, b)
        assert t == 0.0
        assert d == pytest.approx(3.0)

    def test_diverging_clamped_to_now(self):
        a = state(0, 0, -1, 0)
        b = state(5, 0, 1, 0)
        t, d = closest_point_of_approach(a, b)
        assert t == 0.0
        assert d == pytest.approx(5.0)

    def test_crossing_offset(self):
        # Perpendicular crossing, arriving 1 s apart at the crossing point.
        a = state(0, -10, 0, 10)  # reaches origin at t=1
        b = state(-20, 0, 10, 0)  # reaches origin at t=2
        t, d = closest_point_of_approach(a, b)
        assert 1.0 < t < 2.0
        assert 0.0 < d < 15.0


class TestTTC:
    def test_head_on_collision_time(self):
        a = state(0, 0, 5, 0)
        b = state(20, 0, -5, 0)
        ttc = time_to_collision(a, b, collision_distance=2.0)
        # Gap 20, closing at 10, contact at separation 2 -> t = 1.8.
        assert ttc == pytest.approx(1.8)

    def test_never_colliding(self):
        a = state(0, 0, 1, 0)
        b = state(0, 10, 1, 0)
        assert time_to_collision(a, b, 2.0) is None

    def test_already_within_distance(self):
        a = state(0, 0, 0, 0)
        b = state(1, 0, 0, 0)
        assert time_to_collision(a, b, 2.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            time_to_collision(state(0, 0, 0, 0), state(1, 1, 0, 0), -1.0)

    def test_relative_rest_far_apart(self):
        a = state(0, 0, 3, 3)
        b = state(10, 0, 3, 3)
        assert time_to_collision(a, b, 2.0) is None


class TestMinSeparation:
    def test_clamps_to_horizon(self):
        a = state(0, 0, 1, 0)
        b = state(10, 0, -1, 0)  # CPA (contact) at t=5
        early = min_separation_over_horizon(a, b, horizon_s=1.0)
        assert early == pytest.approx(8.0)

    def test_full_horizon_reaches_cpa(self):
        a = state(0, 0, 1, 0)
        b = state(10, 0, -1, 0)
        assert min_separation_over_horizon(a, b, horizon_s=10.0) == pytest.approx(0.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            min_separation_over_horizon(state(0, 0, 0, 0), state(1, 0, 0, 0), -0.1)


class TestStoppingDistance:
    def test_textbook_value(self):
        assert stopping_distance(8.0, 8.0) == pytest.approx(4.0)

    def test_zero_speed(self):
        assert stopping_distance(0.0, 5.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stopping_distance(5.0, 0.0)
        with pytest.raises(ValueError):
            stopping_distance(-1.0, 5.0)


class TestPathLength:
    def test_polyline(self):
        points = [Vec2(0, 0), Vec2(3, 0), Vec2(3, 4)]
        assert path_length(points) == pytest.approx(7.0)

    def test_single_point(self):
        assert path_length([Vec2(1, 1)]) == 0.0


vel = st.floats(min_value=-20, max_value=20, allow_nan=False)
pos = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestProperties:
    @given(pos, pos, vel, vel, pos, pos, vel, vel)
    def test_cpa_is_global_minimum_on_samples(self, ax, ay, avx, avy, bx, by, bvx, bvy):
        a, b = state(ax, ay, avx, avy), state(bx, by, bvx, bvy)
        t_cpa, d_cpa = closest_point_of_approach(a, b)
        for i in range(0, 50):
            t = i * 0.2
            assert a.at(t).distance_to(b.at(t)) >= d_cpa - 1e-6

    @given(pos, pos, vel, vel, pos, pos, vel, vel,
           st.floats(min_value=0.1, max_value=5.0))
    def test_ttc_separation_matches_threshold(self, ax, ay, avx, avy, bx, by, bvx, bvy, dist):
        a, b = state(ax, ay, avx, avy), state(bx, by, bvx, bvy)
        ttc = time_to_collision(a, b, dist)
        if ttc is not None and ttc > 0.0:
            # At the returned time, separation equals the threshold.
            sep = a.at(ttc).distance_to(b.at(ttc))
            assert sep == pytest.approx(dist, rel=1e-5, abs=1e-5)

    @given(pos, pos, vel, vel, pos, pos, vel, vel,
           st.floats(min_value=0.0, max_value=10.0))
    def test_min_separation_monotonic_in_horizon(self, ax, ay, avx, avy, bx, by, bvx, bvy, h):
        a, b = state(ax, ay, avx, avy), state(bx, by, bvx, bvy)
        short = min_separation_over_horizon(a, b, horizon_s=h)
        longer = min_separation_over_horizon(a, b, horizon_s=h + 1.0)
        assert longer <= short + 1e-9
