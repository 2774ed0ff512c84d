"""Integration tests: the full assurance loop end to end."""

import pytest

from repro.core import EventKind, Verdict
from repro.experiments import CampaignOptions, build_controller, run_once
from repro.sim import Maneuver, ScenarioType, build_scenario
from tests.conftest import collect_events


class TestScenarioSmoke:
    @pytest.mark.parametrize("scenario", list(ScenarioType))
    def test_every_scenario_completes(self, scenario):
        outcome = run_once(scenario, seed=0)
        assert outcome.iterations > 10
        # A run ends by clearing, colliding or timing out — never hangs.
        assert outcome.cleared or outcome.collision or outcome.timed_out


class TestPaperWorkflow:
    def test_nominal_run_is_clean_and_quick(self):
        outcome = run_once(ScenarioType.NOMINAL, seed=1)
        assert not outcome.collision
        assert outcome.clearance_time is not None
        assert outcome.clearance_time < 12.0

    def test_ghost_attack_triggers_monitor_and_slows_crossing(self):
        nominal = run_once(ScenarioType.NOMINAL, seed=1)
        ghost = run_once(ScenarioType.GHOST_ATTACK, seed=1)
        assert ghost.monitor_flagged
        assert ghost.faults_injected > 0
        if ghost.clearance_time is not None and nominal.clearance_time is not None:
            assert ghost.clearance_time > nominal.clearance_time

    def test_attack_chain_security_to_injector_to_generator(self):
        controller = build_controller(build_scenario(ScenarioType.GHOST_ATTACK, 0))
        events = collect_events(controller)
        controller.run()
        # Evidence trail: faults were injected and the monitor reacted.
        assert any(e.kind is EventKind.VIOLATION_DETECTED for e in events)
        faults = controller.metrics.faults
        assert faults and all(f.kind == "ghost_obstacle" for f in faults)

    def test_recovery_override_uses_emergency_brake(self):
        controller = build_controller(build_scenario(ScenarioType.GHOST_ATTACK, 0))
        events = collect_events(controller)
        controller.run()
        recoveries = [e for e in events if e.kind is EventKind.RECOVERY_ACTIVATED]
        assert recoveries
        assert all(e.payload["action"] == Maneuver.EMERGENCY_BRAKE.value for e in recoveries)

    def test_history_carries_cot_explanations(self):
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.run()
        assert isinstance(controller.state.recall("last_explanation"), str)
        record = controller.state.history[-1]
        assert record.outputs["Generator"].narrative


class TestDeterminismEndToEnd:
    def test_full_loop_reproducible(self):
        import dataclasses

        a = run_once(ScenarioType.SPOOF_ATTACK, seed=4)
        b = run_once(ScenarioType.SPOOF_ATTACK, seed=4)
        assert dataclasses.replace(a, wall_time_s=0.0) == dataclasses.replace(b, wall_time_s=0.0)

    def test_metrics_reproducible(self):
        ca = build_controller(build_scenario(ScenarioType.CONFLICTING, 2))
        cb = build_controller(build_scenario(ScenarioType.CONFLICTING, 2))
        ra, rb = ca.run(), cb.run()
        assert ra.metrics.violation_counts == rb.metrics.violation_counts
        assert ra.iterations == rb.iterations


class TestAblationsEndToEnd:
    def test_no_recovery_never_activates(self):
        outcome = run_once(ScenarioType.GHOST_ATTACK, 0, CampaignOptions(use_recovery=False))
        assert outcome.recovery_activations == 0

    def test_rule_planner_handles_ghost_without_panic_flags(self):
        llm = run_once(ScenarioType.GHOST_ATTACK, 0, CampaignOptions(planner="llm"))
        rule = run_once(ScenarioType.GHOST_ATTACK, 0, CampaignOptions(planner="rule"))
        # The baseline stops deliberately instead of slamming the brakes,
        # so it accumulates no more flags than the LLM.
        assert rule.safety_flag_count <= llm.safety_flag_count

    def test_monitor_horizon_shapes_flag_counts(self):
        short = run_once(
            ScenarioType.GHOST_ATTACK, 0, CampaignOptions(monitor_horizon_s=0.5)
        )
        long = run_once(
            ScenarioType.GHOST_ATTACK, 0, CampaignOptions(monitor_horizon_s=3.0)
        )
        assert long.safety_flag_count >= short.safety_flag_count


class TestSTLMonitorInLoop:
    def test_stl_monitor_can_replace_geometric(self):
        from repro.core import OrchestrationController, OrchestratorConfig, RoleGraph
        from repro.env import IntersectionSimInterface
        from repro.roles import (
            EmergencyBrakeRecovery,
            LLMGeneratorRole,
            STLSafetyMonitor,
        )

        spec = build_scenario(ScenarioType.NOMINAL, 0)
        env = IntersectionSimInterface(spec)
        roles = [
            LLMGeneratorRole(name="Generator"),
            STLSafetyMonitor(name="SafetyMonitor"),
            EmergencyBrakeRecovery(name="RecoveryPlanner"),
        ]
        controller = OrchestrationController(
            RoleGraph.sequential(roles), env, OrchestratorConfig(max_iterations=200)
        )
        result = controller.run()
        assert result.iterations > 10
        monitor_results = [
            record.outputs["SafetyMonitor"].verdict for record in controller.state.history
        ]
        assert Verdict.PASS in monitor_results
