"""Tests for the OrchestrationController's iterative assurance loop."""

import pytest

from repro.core import (
    ConfigurationError,
    EventKind,
    OnVerdict,
    OrchestrationController,
    OrchestratorConfig,
    ResilienceConfig,
    RoleExecutionError,
    RoleGraph,
    RoleKind,
    RoleResult,
    TerminationReason,
    Verdict,
)
from tests.conftest import ScriptedRole, StubEnvironment, collect_events, constant_generator


class FailingRole(ScriptedRole):
    def execute(self, context):
        raise RuntimeError("deliberate")


class TestValidation:
    def test_requires_generator(self):
        env = StubEnvironment()
        monitor = ScriptedRole([RoleResult()], name="M", kind=RoleKind.SAFETY_MONITOR)
        with pytest.raises(ConfigurationError, match="Generator"):
            OrchestrationController([monitor], env)

    def test_requires_roles(self):
        with pytest.raises(ConfigurationError):
            OrchestrationController(RoleGraph(), StubEnvironment())


class TestLoop:
    def test_runs_until_environment_done(self):
        env = StubEnvironment(steps=4)
        controller = OrchestrationController([constant_generator("go")], env)
        result = controller.run()
        assert result.reason is TerminationReason.ENVIRONMENT_DONE
        assert result.iterations == 4
        assert env.applied == ["go"] * 4

    def test_max_iterations_cap(self):
        env = StubEnvironment(steps=100)
        controller = OrchestrationController(
            [constant_generator("go")],
            env,
            OrchestratorConfig(max_iterations=3),
        )
        result = controller.run()
        assert result.reason is TerminationReason.MAX_ITERATIONS
        assert result.iterations == 3

    def test_roles_reset_and_rerunnable(self):
        env = StubEnvironment(steps=2)
        generator = constant_generator("go")
        controller = OrchestrationController([generator], env)
        controller.run()
        result = controller.run()
        assert generator.reset_count == 2
        assert env.reset_count == 2
        assert result.iterations == 2

    def test_environment_info_propagated(self):
        env = StubEnvironment(steps=2)
        controller = OrchestrationController([constant_generator("go")], env)
        result = controller.run()
        assert result.environment_info == {"ticks": 2}

    def test_final_world_state_is_a_snapshot(self):
        env = StubEnvironment(steps=2, states=[{"nested": {"speed": 1.0}}])
        controller = OrchestrationController([constant_generator("go")], env)
        result = controller.run()
        assert result.final_world_state["nested"] == {"speed": 1.0}

        # Post-run mutation of the live state manager (top-level *and*
        # nested) must not leak into the already-returned result.
        controller.state.set_world("nested", {"speed": 99.0})
        controller.state.world("nested")["speed"] = 99.0
        assert result.final_world_state["nested"] == {"speed": 1.0}

        # Nor may a second run on the same controller rewrite it.
        second = controller.run()
        assert result.final_world_state["nested"] == {"speed": 1.0}
        assert second.final_world_state["nested"] == {"speed": 1.0}

    def test_world_state_reaches_roles(self):
        seen = []

        class Probe(ScriptedRole):
            def execute(self, context):
                seen.append(context.state.world("tick"))
                return RoleResult(verdict=Verdict.INFO, data={"action": "noop"})

        probe = Probe([RoleResult()], name="Gen", kind=RoleKind.GENERATOR)
        OrchestrationController([probe], StubEnvironment(steps=3)).run()
        assert seen == [0, 1, 2]


class TestViolationsAndHalting:
    def _monitor(self, verdicts):
        return ScriptedRole(
            [RoleResult(verdict=v, narrative="n") for v in verdicts],
            name="Monitor",
            kind=RoleKind.SAFETY_MONITOR,
        )

    def test_fail_verdict_recorded_as_safety_violation(self):
        env = StubEnvironment(steps=3)
        monitor = self._monitor([Verdict.PASS, Verdict.FAIL, Verdict.PASS])
        controller = OrchestrationController([constant_generator("go"), monitor], env)
        result = controller.run()
        assert result.metrics.violation_counts == {"safety": 1}
        assert result.metrics.violations[0].iteration == 1

    def test_violation_category_follows_role_kind(self):
        env = StubEnvironment(steps=1)
        oracle = ScriptedRole(
            [RoleResult(verdict=Verdict.FAIL)], name="Oracle", kind=RoleKind.PERFORMANCE_ORACLE
        )
        controller = OrchestrationController([constant_generator("go"), oracle], env)
        result = controller.run()
        assert result.metrics.violation_counts == {"performance": 1}

    def test_halt_on_violation(self):
        env = StubEnvironment(steps=10)
        monitor = self._monitor([Verdict.PASS, Verdict.FAIL])
        controller = OrchestrationController(
            [constant_generator("go"), monitor],
            env,
            OrchestratorConfig(halt_on_violation=True),
        )
        result = controller.run()
        assert result.reason is TerminationReason.VIOLATION_HALT
        assert result.iterations == 2

    def test_violation_event_published(self):
        env = StubEnvironment(steps=2)
        monitor = self._monitor([Verdict.FAIL])
        controller = OrchestrationController([constant_generator("go"), monitor], env)
        published = collect_events(controller)
        controller.run()
        events = [e for e in published if e.kind is EventKind.VIOLATION_DETECTED]
        assert len(events) == 2  # scripted monitor repeats its last result
        assert events[0].role == "Monitor"


class TestErrorHandling:
    def test_role_error_propagates_by_default(self):
        env = StubEnvironment(steps=2)
        bad = FailingRole([RoleResult()], name="Bad")
        controller = OrchestrationController([constant_generator("go"), bad], env)
        with pytest.raises(RoleExecutionError, match="Bad"):
            controller.run()

    def test_continue_on_role_error(self):
        env = StubEnvironment(steps=3)
        bad = FailingRole([RoleResult()], name="Bad")
        controller = OrchestrationController(
            [constant_generator("go"), bad],
            env,
            OrchestratorConfig(continue_on_role_error=True),
        )
        result = controller.run()
        assert result.iterations == 3
        assert result.metrics.violation_counts == {"role_error": 3}

    def test_non_roleresult_return_rejected(self):
        class Wrong(ScriptedRole):
            def execute(self, context):
                return "not a result"

        env = StubEnvironment(steps=1)
        wrong = Wrong([RoleResult()], name="Wrong", kind=RoleKind.GENERATOR)
        with pytest.raises(RoleExecutionError, match="RoleResult"):
            OrchestrationController([wrong], env).run()


class TestDecision:
    def test_recovery_action_overrides_generator(self):
        env = StubEnvironment(steps=2)
        recovery = ScriptedRole(
            [RoleResult(verdict=Verdict.WARNING, data={"action": "brake"})],
            name="Recovery",
            kind=RoleKind.RECOVERY_PLANNER,
        )
        controller = OrchestrationController([constant_generator("go"), recovery], env)
        result = controller.run()
        assert env.applied == ["brake", "brake"]
        assert result.metrics.recovery_activation_count == 2

    def test_recovery_without_action_defers_to_generator(self):
        env = StubEnvironment(steps=1)
        recovery = ScriptedRole(
            [RoleResult(verdict=Verdict.PASS, data={"action": None})],
            name="Recovery",
            kind=RoleKind.RECOVERY_PLANNER,
        )
        controller = OrchestrationController([constant_generator("go"), recovery], env)
        controller.run()
        assert env.applied == ["go"]

    def test_skipped_generator_applies_none(self):
        env = StubEnvironment(steps=1)
        generator = constant_generator("go")
        graph = RoleGraph().add(generator, trigger=OnVerdict("nonexistent"))
        controller = OrchestrationController(graph, env)
        published = collect_events(controller)
        controller.run()
        assert env.applied == [None]
        skips = [e for e in published if e.kind is EventKind.ROLE_SKIPPED]
        assert len(skips) == 1

    def test_action_source_recorded_in_history(self):
        env = StubEnvironment(steps=1)
        controller = OrchestrationController([constant_generator("go")], env)
        controller.run()
        record = controller.state.history[-1]
        assert record.action_source == "Generator"
        assert record.executed_action == "go"


class TestEventsAndScores:
    def test_event_sequence_per_iteration(self):
        # A tick publishes one event, iteration_finished.  While it is
        # out, the controller's open tick holds the tick's milestones (the
        # state update, each role's verdict, the action); the history
        # keeps the finished tick.
        env = StubEnvironment(steps=1)
        controller = OrchestrationController([constant_generator("go")], env)
        seen = []
        controller.events.subscribe(lambda e: seen.append((e.kind, controller.tick)))
        controller.run()
        assert [kind for kind, _ in seen] == [
            EventKind.ITERATION_FINISHED,
            EventKind.RUN_TERMINATED,
        ]
        tick = seen[0][1]
        assert (tick.iteration, tick.time) == (0, 0.0)
        assert [role[:2] for role in tick.roles] == [("Generator", "info")]
        assert tick.action == ("go", "Generator")
        assert seen[1][1] is None  # no tick is open between ticks
        record = controller.state.history[0]
        assert (record.executed_action, record.action_source) == ("go", "Generator")

    def test_an_unheard_run_opens_no_tick(self):
        opened = []

        class Probe(ScriptedRole):
            def execute(self, context):
                opened.append(controller.tick)
                return super().execute(context)

        probe = Probe([RoleResult(data={"action": "go"})], kind=RoleKind.GENERATOR)
        controller = OrchestrationController([probe], StubEnvironment(steps=2))
        controller.run()
        assert opened == [None, None]

    def test_role_scores_become_metric_series(self):
        env = StubEnvironment(steps=2)
        scored = ScriptedRole(
            [RoleResult(verdict=Verdict.PASS, scores={"margin": 1.5})],
            name="Scored",
            kind=RoleKind.SAFETY_MONITOR,
        )
        controller = OrchestrationController([constant_generator("go"), scored], env)
        result = controller.run()
        assert result.metrics.series_values("score.Scored.margin") == [1.5, 1.5]

    def test_role_timings_collected(self):
        env = StubEnvironment(steps=3)
        controller = OrchestrationController([constant_generator("go")], env)
        result = controller.run()
        assert result.metrics.role_timings()["Generator"]["calls"] == 3


class ContextProbe(ScriptedRole):
    """Records the context object and the deadline it carried."""

    def __init__(self, seen, name, kind=RoleKind.CUSTOM, data=None):
        super().__init__([RoleResult(data=data or {})], name=name, kind=kind)
        self.seen = seen

    def execute(self, context):
        self.seen.append((context.iteration, self.name, context, context.deadline_ms))
        return super().execute(context)


class TestRoleContext:
    def test_one_context_per_tick_with_each_roles_deadline(self):
        seen = []
        roles = [
            ContextProbe(seen, "Generator", RoleKind.GENERATOR, {"action": "go"}),
            ContextProbe(seen, "Monitor", RoleKind.SAFETY_MONITOR),
            ContextProbe(seen, "Oracle", RoleKind.PERFORMANCE_ORACLE),
        ]
        config = OrchestratorConfig(
            resilience=ResilienceConfig(
                deadline_ms=500.0, role_deadlines_ms={"Monitor": 250.0}
            )
        )
        OrchestrationController(roles, StubEnvironment(steps=3), config).run()
        assert [(i, name, deadline) for i, name, _, deadline in seen] == [
            (i, name, deadline)
            for i in range(3)
            for name, deadline in (
                ("Generator", 500.0), ("Monitor", 250.0), ("Oracle", 500.0)
            )
        ]
        for tick in range(3):
            contexts = {id(context) for i, _, context, _ in seen if i == tick}
            assert len(contexts) == 1

    def test_no_deadline_without_resilience(self):
        seen = []
        roles = [
            ContextProbe(seen, "Generator", RoleKind.GENERATOR, {"action": "go"}),
            ContextProbe(seen, "Monitor", RoleKind.SAFETY_MONITOR),
        ]
        OrchestrationController(roles, StubEnvironment(steps=2)).run()
        assert [deadline for *_, deadline in seen] == [None] * 4
