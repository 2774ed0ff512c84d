"""Tests for the World container: stepping, termination, ground truth."""

import gc
import weakref

import pytest

from repro.geom import footprint_gap
from repro.sim import (
    Maneuver,
    ManeuverExecutor,
    ScenarioType,
    World,
    build_scenario,
)


def drive(world: World, maneuver: Maneuver = Maneuver.PROCEED, max_steps: int = 800) -> None:
    executor = ManeuverExecutor()
    for _ in range(max_steps):
        if world.done:
            return
        accel = executor.acceleration_for(maneuver, world.ego.speed, world.ego.s, world.ego.route)
        world.ego.apply_acceleration(accel)
        world.step()


class TestStepping:
    def test_time_advances_by_tick(self):
        world = World(build_scenario(ScenarioType.NOMINAL, 0))
        world.ego.apply_acceleration(0.0)
        world.step()
        assert world.time == pytest.approx(0.1)
        assert world.tick_count == 1

    def test_background_traffic_spawns(self):
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        drive(world)
        assert len(world.background_vehicles) >= 4

    def test_nominal_run_clears_without_collision(self):
        world = World(build_scenario(ScenarioType.NOMINAL, 1))
        drive(world)
        assert world.ego_clearance_time is not None
        assert not world.had_collision

    def test_pedestrian_scenario_has_pedestrian(self):
        world = World(build_scenario(ScenarioType.PEDESTRIAN, 0))
        assert len(world.pedestrians) == 1

    def test_min_true_gap_tracked(self):
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        drive(world)
        assert world.min_true_gap < 100.0


class TestTermination:
    def test_timeout(self):
        spec = build_scenario(ScenarioType.NOMINAL, 0)
        spec.timeout_s = 1.0
        world = World(spec)
        drive(world, Maneuver.WAIT)
        assert world.timed_out
        assert world.done

    def test_gridlock_requires_no_clearance_and_no_collision(self):
        spec = build_scenario(ScenarioType.NOMINAL, 0)
        spec.timeout_s = 2.0
        world = World(spec)
        drive(world, Maneuver.WAIT)
        assert world.gridlocked

    def test_done_shortly_after_clearance(self):
        world = World(build_scenario(ScenarioType.NOMINAL, 2))
        drive(world)
        assert world.done
        assert world.time <= world.ego_clearance_time + 2.1


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        a = World(build_scenario(ScenarioType.CONGESTED, 5))
        b = World(build_scenario(ScenarioType.CONGESTED, 5))
        drive(a)
        drive(b)
        assert a.time == b.time
        assert a.ego.s == pytest.approx(b.ego.s)
        assert len(a.collisions) == len(b.collisions)
        assert [v.s for v in a.background_vehicles] == pytest.approx(
            [v.s for v in b.background_vehicles]
        )

    def test_different_seeds_differ(self):
        a = World(build_scenario(ScenarioType.CONGESTED, 1))
        b = World(build_scenario(ScenarioType.CONGESTED, 2))
        drive(a)
        drive(b)
        positions_a = sorted(round(v.s, 2) for v in a.background_vehicles)
        positions_b = sorted(round(v.s, 2) for v in b.background_vehicles)
        assert positions_a != positions_b


class TestNearMissRecord:
    @pytest.mark.parametrize("scenario", [
        ScenarioType.CONGESTED, ScenarioType.CONFLICTING, ScenarioType.PEDESTRIAN,
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_true_gap_equals_exhaustive_minimum(self, scenario, seed):
        world = World(build_scenario(scenario, seed))
        executor = ManeuverExecutor()
        expected = float("inf")
        while not world.done:
            ego = world.ego
            ego.apply_acceleration(
                executor.acceleration_for(Maneuver.PROCEED, ego.speed, ego.s, ego.route)
            )
            world.step()
            ego_box = ego.footprint()
            entities = [v for v in world.vehicles if not (v.is_ego or v.finished)]
            entities += [p for p in world.pedestrians if not p.finished]
            for entity in entities:
                if entity.position.distance_to(ego.position) < 15.0:
                    expected = min(expected, footprint_gap(ego_box, entity.footprint()))
            assert world.min_true_gap == expected


class TestCollisionBookkeeping:
    def test_collision_logged_once_per_partner(self):
        # Force an overlap by teleporting a background vehicle onto the ego.
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        world.ego.apply_acceleration(0.0)
        for _ in range(30):
            world.step()
        intruder = world.background_vehicles[0]
        intruder.route = world.ego.route
        intruder.s = world.ego.s + 1.0
        world.step()
        world.step()
        ids = [c.other_id for c in world.collisions]
        assert ids.count(intruder.vehicle_id) == 1
        assert world.had_collision

    def _world_with_contact(self):
        """(world, intruder) immediately after their first logged contact."""
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        world.ego.apply_acceleration(0.0)
        for _ in range(30):
            world.step()
        intruder = world.background_vehicles[0]
        intruder.route = world.ego.route
        intruder.s = world.ego.s + 1.0
        intruder.speed = world.ego.speed
        world.step()
        assert self._events_for(world, intruder) == 1
        return world, intruder

    @staticmethod
    def _events_for(world, intruder):
        return [c.other_id for c in world.collisions].count(intruder.vehicle_id)

    def test_recontact_after_separation_logged_again(self):
        world, intruder = self._world_with_contact()
        # Separate well beyond CONTACT_REARM_GAP: suppression must drop...
        intruder.s = world.ego.s + 30.0
        intruder.speed = world.ego.speed
        world.step()
        # ...so a fresh impact with the same partner is a new collision.
        intruder.s = world.ego.s + 1.0
        intruder.speed = world.ego.speed
        world.step()
        assert self._events_for(world, intruder) == 2

    def test_contact_stays_suppressed_within_rearm_gap(self):
        world, intruder = self._world_with_contact()
        # Hover just clear of the ego (footprint gap below CONTACT_REARM_GAP):
        # the pair has not genuinely separated, so no re-arm happens.
        half_lengths = (world.ego.length + intruder.length) / 2.0
        intruder.s = world.ego.s + half_lengths + 0.3
        intruder.speed = world.ego.speed
        world.step()
        # Re-overlapping now is the same grinding contact, not a new event.
        intruder.s = world.ego.s + 1.0
        intruder.speed = world.ego.speed
        world.step()
        assert self._events_for(world, intruder) == 1

    def test_departed_partner_rearms_via_liveness(self):
        world, intruder = self._world_with_contact()
        # Drive the intruder off the end of its route: a finished entity has
        # no footprint, which also drops the suppression.
        intruder.s = intruder.route.length + 1.0
        world.step()
        intruder.s = world.ego.s + 1.0
        intruder.speed = world.ego.speed
        world.step()
        assert self._events_for(world, intruder) == 2


class TestLifetime:
    def test_run_once_frees_its_worlds_without_the_cycle_collector(self, monkeypatch):
        # The spawner's id allocator must not tie a world into a reference
        # cycle: once run_once returns, reference counting alone frees
        # every world it built (with their vehicles and spawners).
        from repro.experiments.campaign import run_once

        built = []
        init = World.__init__

        def tracking_init(self, spec):
            init(self, spec)
            built.append(weakref.ref(self))

        monkeypatch.setattr(World, "__init__", tracking_init)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run_once(ScenarioType.CONGESTED, 0)
            assert built
            assert [ref() for ref in built] == [None] * len(built)
        finally:
            if was_enabled:
                gc.enable()

    def test_traffic_ids_count_up_from_two(self):
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        drive(world)
        ids = [vehicle.vehicle_id for vehicle in world.background_vehicles]
        assert ids == list(range(2, 2 + len(ids)))
