"""Tests for the fault-robustness matrix experiment."""

from repro.experiments.fault_matrix import (
    FAULT_FACTORIES,
    PresetFaultInjector,
    _run,
    generate,
)
from repro.roles import FaultPipeline, GhostObstacleFault
from repro.sim import ScenarioType


class TestPresetInjector:
    def test_keeps_fault_armed(self, ):
        pipeline = FaultPipeline(seed=0)
        injector = PresetFaultInjector(pipeline, lambda: GhostObstacleFault())
        from repro.core import DependabilityMetrics, RoleContext, StateManager

        context = RoleContext(
            state=StateManager(), metrics=DependabilityMetrics(), iteration=0, time=0.0
        )
        injector.execute(context)
        assert "ghost_obstacle" in pipeline.active_kinds
        pipeline.disarm("ghost_obstacle")
        injector.execute(context)
        assert "ghost_obstacle" in pipeline.active_kinds  # re-armed


class TestMatrix:
    def test_library_covers_all_fault_kinds(self):
        assert set(FAULT_FACTORIES) == {
            "none",
            "sensor_noise",
            "dropout",
            "latency",
            "gps_bias",
            "ghost_obstacle",
            "trajectory_spoof",
        }

    def test_clean_run_vs_permanent_ghost(self):
        clean = _run(ScenarioType.NOMINAL, 0, None)
        ghosted = _run(ScenarioType.NOMINAL, 0, FAULT_FACTORIES["ghost_obstacle"])
        assert clean["cleared"] and not clean["flagged"]
        # A permanent phantom roadblock: flagged and never crossed.
        assert ghosted["flagged"]
        assert not ghosted["cleared"]

    def test_generate_renders_every_cell(self):
        text = generate(seeds=(0,), scenarios=(ScenarioType.NOMINAL,))
        for label in FAULT_FACTORIES:
            assert label in text
        assert "Fault-robustness matrix" in text
