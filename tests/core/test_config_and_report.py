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
    metrics_digest,
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

    def test_report_telemetry_digest(self):
        from repro.obs.telemetry import TelemetryRegistry

        _, result = self._run()
        registry = TelemetryRegistry()
        registry.counter("events.role_executed").inc(9)
        registry.histogram("role_latency_s.Monitor").record(0.004)
        report = build_report(result, telemetry=registry)
        assert "Telemetry digest" in report
        assert "events.role_executed" in report
        assert "role_latency_s.Monitor" in report

    def test_metrics_digest_one_line(self):
        _, result = self._run()
        digest = metrics_digest(result.metrics)
        assert "\n" not in digest
        assert "iterations=3" in digest
        assert "safety=1" in digest

    def test_digest_clean(self):
        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=1)
        )
        digest = metrics_digest(controller.run().metrics)
        assert "clean" in digest


class TestMarkdownReport:
    def _run(self):
        from repro.core import build_markdown_report

        monitor = ScriptedRole(
            [RoleResult(verdict=Verdict.FAIL, narrative="too | close")],
            name="Monitor",
            kind=RoleKind.SAFETY_MONITOR,
        )
        controller = OrchestrationController(
            [constant_generator("go"), monitor], StubEnvironment(steps=2)
        )
        return build_markdown_report(controller.run())

    def test_markdown_structure(self):
        report = self._run()
        assert report.startswith("# DURA-CPS assurance report")
        assert "## Violations" in report
        assert "| safety | 2 |" in report
        assert "## Interventions" in report

    def test_pipe_characters_escaped_in_table(self):
        report = self._run()
        # The narrative "too | close" must not break the Markdown table.
        assert "too / close" in report

    def test_markdown_telemetry_digest_fenced(self):
        from repro.core import build_markdown_report
        from repro.obs.telemetry import TelemetryRegistry

        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=1)
        )
        result = controller.run()
        registry = TelemetryRegistry()
        registry.counter("events.role_executed").inc(1)
        report = build_markdown_report(result, telemetry=registry)
        assert "## Telemetry digest" in report
        assert "```" in report
        assert "events.role_executed" in report

    def test_clean_run_markdown(self):
        from repro.core import build_markdown_report

        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=1)
        )
        report = build_markdown_report(controller.run())
        assert "None detected." in report
