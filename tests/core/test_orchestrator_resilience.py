"""Integration tests: the resilience layer inside the assurance loop."""

from __future__ import annotations

import time

import pytest

from repro.core import (
    EventKind,
    OrchestrationController,
    OrchestratorConfig,
    ResilienceConfig,
    ResilienceError,
    Role,
    RoleContext,
    RoleGraph,
    RoleKind,
    RoleResult,
    TerminationReason,
    Verdict,
    build_report,
)

from ..conftest import ScriptedRole, StubEnvironment, collect_events, constant_generator


def of_kind(events, kind):
    return [event for event in events if event.kind is kind]


class FlakyGenerator(Role):
    """Generator raising inside a half-open iteration window, else planning."""

    kind = RoleKind.GENERATOR

    def __init__(self, crash_window, action="go", name="Generator") -> None:
        super().__init__(name)
        self.crash_window = crash_window
        self.action = action
        self.calls = 0

    def reset(self) -> None:
        self.calls = 0

    def execute(self, context: RoleContext) -> RoleResult:
        self.calls += 1
        start, stop = self.crash_window
        if start <= context.iteration < stop:
            raise RuntimeError(f"outage at iteration {context.iteration}")
        return RoleResult(verdict=Verdict.INFO, data={"action": self.action})


class SleepyRole(Role):
    kind = RoleKind.CUSTOM

    def __init__(self, sleep_s: float, name: str = "Sleepy") -> None:
        super().__init__(name)
        self.sleep_s = sleep_s

    def execute(self, context: RoleContext) -> RoleResult:
        time.sleep(self.sleep_s)
        return RoleResult(verdict=Verdict.PASS)


def breaker_config(**overrides):
    defaults = dict(
        breaker_threshold=2,
        breaker_cooldown=3,
        fallback=constant_generator("fb", name="Fallback"),
        safe_action="SAFE",
        max_hold=3,
    )
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


class TestBreakerLifecycle:
    def build(self, steps=20, crash=(2, 9)):
        env = StubEnvironment(steps=steps)
        generator = FlakyGenerator(crash)
        controller = OrchestrationController(
            [generator],
            env,
            OrchestratorConfig(resilience=breaker_config()),
        )
        return controller, env, generator

    def test_full_degrade_and_recover_sequence(self):
        controller, env, _ = self.build()
        published = collect_events(controller)
        result = controller.run()

        # The environment never saw a missing decision.
        assert None not in env.applied
        # Failures at iters 2,3 open the breaker (threshold 2); fallback
        # plans through the cooldown; a failed probe at 6 re-opens it; the
        # probe at 9 (outage over) recovers.
        assert env.applied == (
            ["go", "go"]            # healthy
            + ["go", "go"]          # failing, action-hold re-issues "go"
            + ["fb", "fb"]          # breaker open: fallback plans
            + ["fb"]                # failed probe: hold re-issues the fallback's action
            + ["fb", "fb"]          # re-opened: fallback plans
            + ["go"] * 11           # recovered
        )

        entered = of_kind(published, EventKind.DEGRADED_MODE_ENTERED)
        exited = of_kind(published, EventKind.DEGRADED_MODE_EXITED)
        assert len(entered) == 1  # the failed probe is not a new entry
        assert len(exited) == 1
        assert entered[0].payload["fallback"] == "Fallback"

        metrics = result.metrics
        assert metrics.count("resilience.degraded.entered") == 1
        assert metrics.count("resilience.degraded.exited") == 1
        assert metrics.count("resilience.degraded.iterations") == 4
        assert metrics.breaker_states == {"Generator": "closed"}
        health = metrics.role_health["Generator"]
        assert health.failures == 3  # iters 2, 3 and the failed probe at 6
        assert health.consecutive_failures == 0

    def test_health_and_reports_carry_the_evidence(self):
        controller, _, _ = self.build()
        published = collect_events(controller)
        result = controller.run()
        summary = result.metrics.summary()
        assert "resilience" in summary
        res = summary["resilience"]
        assert res["degraded_entered"] == 1
        assert res["degraded_exited"] == 1
        assert res["breaker_states"] == {"Generator": "closed"}

        text = build_report(result, published)
        assert "Resilience" in text
        assert "degraded_entered" in text

    def test_rerun_resets_breaker_state(self):
        controller, env, _ = self.build()
        first = controller.run()
        second = controller.run()
        assert second.metrics.count("resilience.degraded.entered") == 1
        assert first.metrics.count("resilience.degraded.entered") == 1
        assert None not in env.applied

    def test_breaker_absorbs_errors_even_when_strict(self):
        # continue_on_role_error stays False: the breaker still contains
        # the guarded Generator's exceptions instead of tearing down the run.
        controller, env, _ = self.build()
        assert controller.config.continue_on_role_error is False
        result = controller.run()
        assert result.reason is TerminationReason.ENVIRONMENT_DONE
        assert result.metrics.count("violations.role_error") == 3

    def test_fallback_name_collision_rejected(self):
        env = StubEnvironment(steps=3)
        config = OrchestratorConfig(
            resilience=breaker_config(
                fallback=constant_generator("fb", name="Generator")
            )
        )
        with pytest.raises(ResilienceError):
            OrchestrationController([FlakyGenerator((0, 1))], env, config)


class TestRetries:
    def test_transient_failure_retried_within_iteration(self):
        class OnceFlaky(Role):
            kind = RoleKind.GENERATOR

            def __init__(self):
                super().__init__("Generator")
                self.attempts = 0

            def execute(self, context):
                self.attempts += 1
                if self.attempts == 1:
                    raise RuntimeError("transient")
                return RoleResult(verdict=Verdict.INFO, data={"action": "go"})

        env = StubEnvironment(steps=3)
        controller = OrchestrationController(
            [OnceFlaky()],
            env,
            OrchestratorConfig(resilience=breaker_config(max_retries=1)),
        )
        published = collect_events(controller)
        result = controller.run()
        retried = of_kind(published, EventKind.ROLE_RETRIED)
        assert len(retried) == 1
        assert retried[0].payload["attempt"] == 1
        assert result.metrics.count("resilience.retries") == 1
        assert result.metrics.count("violations.role_error") == 0
        assert env.applied == ["go", "go", "go"]


class TestActionHoldInLoop:
    def test_hold_then_safe_action_when_generator_abstains(self):
        # Proposes an action once, then abstains (no 'action' key) forever.
        generator = ScriptedRole(
            [
                RoleResult(verdict=Verdict.INFO, data={"action": "go"}),
                RoleResult(verdict=Verdict.INFO, data={}),
            ],
            name="Generator",
            kind=RoleKind.GENERATOR,
        )
        env = StubEnvironment(steps=6)
        controller = OrchestrationController(
            [generator],
            env,
            OrchestratorConfig(
                resilience=ResilienceConfig(max_hold=2, safe_action="SAFE")
            ),
        )
        published = collect_events(controller)
        result = controller.run()
        assert env.applied == ["go", "go", "go", "SAFE", "SAFE", "SAFE"]
        held = of_kind(published, EventKind.ACTION_HELD)
        assert [e.payload["policy"] for e in held] == [
            "hold", "hold", "safe_action", "safe_action", "safe_action",
        ]
        assert result.metrics.count("resilience.holds") == 2
        assert result.metrics.count("resilience.hold_exhausted") == 3

    def test_legacy_none_behaviour_without_resilience(self):
        generator = ScriptedRole(
            [RoleResult(verdict=Verdict.INFO, data={})],
            name="Generator",
            kind=RoleKind.GENERATOR,
        )
        env = StubEnvironment(steps=2)
        OrchestrationController([generator], env).run()
        assert env.applied == [None, None]


class TestDeadlines:
    def test_overrun_is_a_performance_violation(self):
        env = StubEnvironment(steps=2)
        controller = OrchestrationController(
            [constant_generator("go"), SleepyRole(sleep_s=0.02)],
            env,
            OrchestratorConfig(
                resilience=ResilienceConfig(
                    deadline_ms=100.0, role_deadlines_ms={"Sleepy": 1.0}
                )
            ),
        )
        published = collect_events(controller)
        result = controller.run()
        metrics = result.metrics
        assert metrics.count("resilience.deadline_overruns") == 2
        assert metrics.role_health["Sleepy"].overruns == 2
        violations = metrics.violations_of("performance")
        assert len(violations) == 2
        assert "deadline exceeded" in violations[0].detail
        events = of_kind(published, EventKind.DEADLINE_EXCEEDED)
        assert len(events) == 2
        assert events[0].payload["budget_ms"] == 1.0
        # The generous generator budget never fires.
        assert "Generator" not in metrics.role_health or (
            metrics.role_health["Generator"].overruns == 0
        )

    def test_deadline_overrun_halts_when_configured(self):
        env = StubEnvironment(steps=5)
        controller = OrchestrationController(
            [constant_generator("go"), SleepyRole(sleep_s=0.02)],
            env,
            OrchestratorConfig(
                halt_on_violation=True,
                resilience=ResilienceConfig(role_deadlines_ms={"Sleepy": 1.0}),
            ),
        )
        result = controller.run()
        assert result.reason is TerminationReason.VIOLATION_HALT
        assert result.iterations == 1


class TestRoleErrorVerdict:
    def test_role_error_counts_as_violation_for_halt(self):
        # Regression: a raising role used to be recorded as a violation but
        # returned WARNING, so halt_on_violation never fired on role errors.
        failing = ScriptedRole([RoleResult()], name="Broken")
        failing.execute = lambda context: (_ for _ in ()).throw(RuntimeError("boom"))
        env = StubEnvironment(steps=5)
        controller = OrchestrationController(
            [constant_generator("go"), failing],
            env,
            OrchestratorConfig(halt_on_violation=True, continue_on_role_error=True),
        )
        result = controller.run()
        assert result.reason is TerminationReason.VIOLATION_HALT
        assert result.iterations == 1
        assert result.metrics.count("violations.role_error") == 1


class TestDecideAction:
    def test_abstaining_generator_does_not_mask_second_generator(self):
        abstainer = ScriptedRole(
            [RoleResult(verdict=Verdict.INFO, data={})],
            name="Primary",
            kind=RoleKind.GENERATOR,
        )
        proposer = constant_generator("g2", name="Secondary")
        env = StubEnvironment(steps=2)
        controller = OrchestrationController(
            RoleGraph.sequential([abstainer, proposer]), env
        )
        controller.run()
        assert env.applied == ["g2", "g2"]
        assert controller.state.history[0].action_source == "Secondary"

    def test_first_proposing_generator_wins(self):
        first = constant_generator("g1", name="Primary")
        second = constant_generator("g2", name="Secondary")
        env = StubEnvironment(steps=1)
        controller = OrchestrationController(
            RoleGraph.sequential([first, second]), env
        )
        controller.run()
        assert env.applied == ["g1"]
