"""Tests for the IntersectionSimInterface (CarlaInterface analog)."""

import math
import random

import pytest

from repro.env import IntersectionSimInterface
from repro.geom import Vec2, footprint_gap
from repro.sim import Maneuver, ScenarioType, build_scenario


def quiet(scenario=ScenarioType.NOMINAL, seed=0):
    interface = IntersectionSimInterface(
        build_scenario(scenario, seed), position_sigma=0.0, velocity_sigma=0.0
    )
    interface.reset()
    return interface


class TestObserve:
    REQUIRED_KEYS = {
        "perception",
        "ego_route",
        "ego_s",
        "ego_speed",
        "ego_acceleration",
        "ego_jerk",
        "min_separation",
        "object_count",
        "in_intersection",
        "ego_cleared",
        "clearance_time",
        "time",
    }

    def test_world_state_contract(self):
        state = quiet().observe()
        assert self.REQUIRED_KEYS <= set(state)

    def test_numeric_signals_are_numeric(self):
        state = quiet().observe()
        for key in ("ego_s", "ego_speed", "min_separation", "time"):
            assert isinstance(state[key], float)

    def test_min_separation_is_footprint_gap(self):
        interface = quiet(ScenarioType.CONGESTED)
        for _ in range(40):
            interface.apply_action(Maneuver.PROCEED)
            interface.advance()
        state = interface.observe()
        assert 0.0 <= state["min_separation"] < 100.0

    def test_measurement_noise_perturbs_objects(self):
        clean = IntersectionSimInterface(
            build_scenario(ScenarioType.CONGESTED, 0), position_sigma=0.0, velocity_sigma=0.0
        )
        noisy = IntersectionSimInterface(
            build_scenario(ScenarioType.CONGESTED, 0), position_sigma=1.0, velocity_sigma=0.5
        )
        for iface in (clean, noisy):
            iface.reset()
            for _ in range(30):
                iface.apply_action(Maneuver.PROCEED)
                iface.advance()
        a = clean.observe()["perception"]
        b = noisy.observe()["perception"]
        assert len(a.objects) == len(b.objects)
        if a.objects:
            deltas = [
                x.position.distance_to(y.position) for x, y in zip(a.objects, b.objects)
            ]
            assert max(deltas) > 0.0

    def test_noise_is_seeded(self):
        a = IntersectionSimInterface(build_scenario(ScenarioType.CONGESTED, 3))
        b = IntersectionSimInterface(build_scenario(ScenarioType.CONGESTED, 3))
        for iface in (a, b):
            iface.reset()
            for _ in range(20):
                iface.apply_action(Maneuver.PROCEED)
                iface.advance()
        pa = a.observe()["perception"]
        pb = b.observe()["perception"]
        for x, y in zip(pa.objects, pb.objects):
            assert x.position == y.position

    def test_noise_draws_position_then_velocity_per_object(self):
        spec = build_scenario(ScenarioType.CONGESTED, 2)
        clean = IntersectionSimInterface(spec, position_sigma=0.0, velocity_sigma=0.0)
        noisy = IntersectionSimInterface(spec, position_sigma=0.3, velocity_sigma=0.2)
        for iface in (clean, noisy):
            iface.reset()
        rng = random.Random(spec.seed * 65537 + 7)
        for _ in range(25):
            truth = clean.observe()["perception"].objects
            seen = noisy.observe()["perception"].objects
            assert len(truth) == len(seen)
            for obj, got in zip(truth, seen):
                px, py = rng.gauss(0.0, 0.3), rng.gauss(0.0, 0.3)
                vx, vy = rng.gauss(0.0, 0.2), rng.gauss(0.0, 0.2)
                assert got == obj.with_position(obj.position + Vec2(px, py)).with_velocity(
                    obj.velocity + Vec2(vx, vy)
                )
            for iface in (clean, noisy):
                iface.apply_action(Maneuver.PROCEED)
                iface.advance()

    @pytest.mark.parametrize("scenario", [
        ScenarioType.CONGESTED, ScenarioType.CONFLICTING, ScenarioType.PEDESTRIAN,
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_separation_equals_exhaustive_minimum(self, scenario, seed):
        # PROCEED drives into the traffic, so gaps shrink to contact.
        iface = IntersectionSimInterface(build_scenario(scenario, seed))
        iface.reset()
        while not iface.done:
            state = iface.observe()
            ego_box = iface.world.ego.footprint()
            gaps = [footprint_gap(ego_box, obj.footprint()) for obj in state["perception"].objects]
            assert state["min_separation"] == (min(gaps) if gaps else 1e3)
            iface.apply_action(Maneuver.PROCEED)
            iface.advance()


class TestApplyAction:
    def test_none_coasts(self):
        interface = quiet()
        interface.apply_action(None)
        assert interface.world.ego.acceleration == 0.0

    def test_none_coast_holds_speed(self):
        # Regression: a missing decision must coast (zero acceleration,
        # speed held), never brake or accelerate implicitly.
        interface = quiet()
        speed = interface.world.ego.speed
        for _ in range(10):
            interface.apply_action(None)
            interface.advance()
        assert interface.world.ego.acceleration == 0.0
        assert interface.world.ego.speed == pytest.approx(speed)

    def test_none_warns_once_per_run(self, caplog):
        interface = quiet()
        with caplog.at_level("WARNING", logger="repro.env.sim_interface"):
            interface.apply_action(None)
            interface.apply_action(None)
        warnings = [r for r in caplog.records if "coast" in r.getMessage()]
        assert len(warnings) == 1
        # reset() re-arms the one-shot warning
        caplog.clear()
        interface.reset()
        with caplog.at_level("WARNING", logger="repro.env.sim_interface"):
            interface.apply_action(None)
        assert any("coast" in r.getMessage() for r in caplog.records)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            quiet().apply_action("proceed")

    def test_jerk_limit_ramps_acceleration(self):
        interface = quiet()
        interface.apply_action(Maneuver.EMERGENCY_BRAKE)
        first = interface.world.ego.acceleration
        # One tick cannot reach -8 m/s^2 through the emergency jerk limit.
        assert first > -8.0
        assert first <= -IntersectionSimInterface.EMERGENCY_JERK_LIMIT * 0.1 + 1e-9

    def test_emergency_ramp_reaches_full_braking(self):
        interface = quiet()
        for _ in range(10):
            interface.apply_action(Maneuver.EMERGENCY_BRAKE)
            interface.advance()
        assert interface.world.ego.acceleration == pytest.approx(-8.0, abs=0.2)

    def test_blocking_pedestrian_shortens_stop(self):
        interface = quiet(ScenarioType.PEDESTRIAN, seed=0)
        # Drive until the pedestrian is on the corridor, then WAIT.
        for _ in range(30):
            interface.apply_action(Maneuver.PROCEED)
            interface.advance()
        interface.observe()
        stop_s = interface._blocking_stop_s(interface.world.ego.route, interface.world.ego.s)
        # The helper yields a stop point only when something blocks;
        # for pedestrians it must be before the crosswalk when they cross.
        if stop_s is not None:
            assert stop_s > interface.world.ego.s


class TestLifecycle:
    def test_reset_restores_initial_state(self):
        interface = quiet()
        for _ in range(20):
            interface.apply_action(Maneuver.PROCEED)
            interface.advance()
        t_before = interface.time
        interface.reset()
        assert interface.time == 0.0
        assert t_before > 0.0
        assert interface.world.ego.s == pytest.approx(20.0)

    def test_done_after_clearance(self):
        interface = quiet()
        for _ in range(400):
            if interface.done:
                break
            interface.apply_action(Maneuver.PROCEED)
            interface.advance()
        assert interface.done
        info = interface.result_info()
        assert info["clearance_time"] is not None
        assert info["collision"] is False
        assert info["scenario"] == "nominal"
        # JSON has no Infinity token: an unobserved gap is null + flag.
        if info["min_true_gap_observed"]:
            assert math.isfinite(info["min_true_gap"])
        else:
            assert info["min_true_gap"] is None

    def test_result_info_keys(self):
        info = quiet().result_info()
        assert {
            "scenario",
            "seed",
            "collisions",
            "collision",
            "clearance_time",
            "gridlocked",
            "timed_out",
            "final_time",
            "last_maneuver",
            "min_true_gap",
            "min_true_gap_observed",
        } <= set(info)

    def test_unobserved_gap_serializes_without_infinity_token(self):
        """A run where nothing ever comes within gap range must not leak
        ``inf`` into result_info or its JSON serialization."""
        from repro.jsonutil import dumps
        from repro.sim.scenario import ScenarioSpec

        spec = ScenarioSpec(
            scenario_type=ScenarioType.NOMINAL, seed=0, spawn_schedule=[]
        )
        interface = IntersectionSimInterface(
            spec, position_sigma=0.0, velocity_sigma=0.0
        )
        interface.reset()
        for _ in range(400):
            if interface.done:
                break
            interface.apply_action(Maneuver.PROCEED)
            interface.advance()
        info = interface.result_info()
        assert info["min_true_gap"] is None
        assert info["min_true_gap_observed"] is False
        text = dumps(info)
        assert "Infinity" not in text and "NaN" not in text
