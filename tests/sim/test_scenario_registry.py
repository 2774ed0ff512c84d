"""Tests for the scenario registry and builder determinism guarantees.

Registered builders share ``build_scenario`` with the six paper
scenarios, and the search fans evaluations over spawned worker
processes, so the registry error surface and cross-process determinism
are load-bearing.
"""

import multiprocessing
import pickle

import pytest

from repro.sim import ScenarioType, build_scenario
from repro.sim.scenario import (
    known_scenarios,
    register_scenario,
    spec_to_dict,
    unregister_scenario,
)


def _nominal(seed: int):
    return build_scenario(ScenarioType.NOMINAL, seed)


def _spawn_build(name, seed):
    """Spawn-pool worker: build a scenario and return its dict form."""
    return spec_to_dict(build_scenario(name, seed))


class TestRegistry:
    def test_unknown_name_lists_known_scenarios(self):
        with pytest.raises(ValueError) as excinfo:
            build_scenario("no_such_scenario", 0)
        message = str(excinfo.value)
        for scenario_type in ScenarioType:
            assert scenario_type.value in message

    def test_unknown_name_is_not_a_key_error(self):
        with pytest.raises(ValueError):
            build_scenario("no_such_scenario", 0)

    def test_register_and_build(self):
        register_scenario("custom-nominal", _nominal)
        try:
            assert "custom-nominal" in known_scenarios()
            spec = build_scenario("custom-nominal", 3)
            assert spec_to_dict(spec) == spec_to_dict(_nominal(3))
        finally:
            unregister_scenario("custom-nominal")
        assert "custom-nominal" not in known_scenarios()

    def test_reregistration_requires_overwrite(self):
        register_scenario("custom-nominal", _nominal)
        try:
            with pytest.raises(ValueError):
                register_scenario("custom-nominal", _nominal)
            register_scenario("custom-nominal", _nominal, overwrite=True)
        finally:
            unregister_scenario("custom-nominal")

    def test_cannot_shadow_builtin(self):
        with pytest.raises(ValueError):
            register_scenario(ScenarioType.NOMINAL.value, _nominal)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_scenario("", _nominal)


class TestDeterminism:
    @pytest.mark.parametrize("scenario_type", list(ScenarioType))
    def test_in_process_determinism(self, scenario_type):
        a = spec_to_dict(build_scenario(scenario_type, 5))
        b = spec_to_dict(build_scenario(scenario_type, 5))
        assert a == b

    @pytest.mark.parametrize("scenario_type", list(ScenarioType))
    def test_spec_pickle_round_trip(self, scenario_type):
        spec = build_scenario(scenario_type, 5)
        clone = pickle.loads(pickle.dumps(spec))
        assert spec_to_dict(clone) == spec_to_dict(spec)

    def test_spawned_worker_matches_parent(self):
        """A spawned worker (fresh interpreter, as used by the campaign
        engine on non-fork platforms) must build byte-for-byte the same
        scenarios the parent does."""
        jobs = [(t.value, seed) for t in ScenarioType for seed in (0, 3)]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = pool.starmap(_spawn_build, jobs)
        local = [_spawn_build(name, seed) for name, seed in jobs]
        assert remote == local
