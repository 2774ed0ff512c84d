"""Tests for orchestrator configuration validation and report rendering."""

import pytest

from repro.core import (
    ConfigurationError,
    EventBus,
    OrchestrationController,
    OrchestratorConfig,
    RoleKind,
    RoleResult,
    Verdict,
    build_report,
)
from tests.conftest import ScriptedRole, StubEnvironment, collect_events, constant_generator


class TestConfig:
    def test_defaults_valid(self):
        config = OrchestratorConfig()
        assert config.max_iterations == 2000

    def test_invalid_max_iterations(self):
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(max_iterations=0)

    def test_invalid_history_limit(self):
        with pytest.raises(ConfigurationError):
            OrchestratorConfig(history_limit=-1)

    def test_invalid_event_log_limit(self):
        # The bus keeps no log, so its knobs are retired and refused.
        with pytest.raises(TypeError):
            OrchestratorConfig(event_log_limit=0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OrchestratorConfig(keep_event_log=True),
            lambda: OrchestratorConfig(event_log_limit=4),
            lambda: EventBus(max_log=3),
        ],
        ids=["keep_event_log", "event_log_limit", "max_log"],
    )
    def test_retired_event_log_keywords(self, build):
        with pytest.raises(TypeError):
            build()

    def test_none_values_allowed(self):
        config = OrchestratorConfig(max_iterations=None, history_limit=None)
        assert config.max_iterations is None

    def test_role_config_reaches_context(self):
        seen = {}

        class Probe(ScriptedRole):
            def execute(self, context):
                seen.update(context.config)
                return RoleResult(verdict=Verdict.INFO, data={"action": None})

        probe = Probe([RoleResult()], name="G", kind=RoleKind.GENERATOR)
        controller = OrchestrationController(
            [probe],
            StubEnvironment(steps=1),
            OrchestratorConfig(role_config={"threshold": 2.5}),
        )
        controller.run()
        assert seen == {"threshold": 2.5}


class TestReport:
    def _run(self):
        monitor = ScriptedRole(
            [
                RoleResult(verdict=Verdict.FAIL, narrative="too close"),
                RoleResult(verdict=Verdict.PASS, scores={"margin": 2.0}),
            ],
            name="Monitor",
            kind=RoleKind.SAFETY_MONITOR,
        )
        recovery = ScriptedRole(
            [RoleResult(verdict=Verdict.WARNING, data={"action": "brake"})],
            name="Recovery",
            kind=RoleKind.RECOVERY_PLANNER,
        )
        controller = OrchestrationController(
            [constant_generator("go"), monitor, recovery], StubEnvironment(steps=3)
        )
        events = collect_events(controller)
        return events, controller.run()

    def test_report_sections_present(self):
        events, result = self._run()
        report = build_report(result, events=events)
        for heading in (
            "Run outcome",
            "Violations",
            "Fault injections",
            "Recovery",
            "Performance series",
            "Role processing time",
            "Evidence trail",
        ):
            assert heading in report

    def test_report_mentions_violation_detail(self):
        events, result = self._run()
        report = build_report(result, events=events)
        assert "too close" in report
        assert "safety" in report

    def test_report_without_events(self):
        _, result = self._run()
        report = build_report(result)
        assert "Evidence trail" not in report

    def test_clean_run_report(self):
        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=1)
        )
        report = build_report(controller.run())
        assert "none detected" in report

    def test_report_without_telemetry_has_no_digest(self):
        _, result = self._run()
        assert "Telemetry digest" not in build_report(result)
        # A run's telemetry lives in its trace footer; the report takes none.
        with pytest.raises(TypeError):
            build_report(result, telemetry=None)
