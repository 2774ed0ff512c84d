"""Tests for the STL and counterexample sections of the report builder."""

from repro.analysis.trace_checks import PropertyVerdict
from repro.core import OrchestrationController, build_report
from tests.conftest import StubEnvironment, constant_generator


def _result():
    controller = OrchestrationController(
        [constant_generator("go")], StubEnvironment(steps=1)
    )
    return controller.run()


def _counterexample():
    return {
        "family": "pedestrian",
        "index": 0,
        "robustness": -0.081,
        "minimized_robustness": -0.081,
        "collision": True,
        "outside_default_jitter": True,
        "reverted_dims": ["veh_time", "veh_speed"],
    }


class TestPlainReport:
    def test_sections_absent_by_default(self):
        report = build_report(_result())
        assert "STL properties" not in report
        assert "Counterexamples" not in report

    def test_stl_section(self):
        verdicts = [
            PropertyVerdict("safety", "G (x >= 1)", 0.42),
            PropertyVerdict("violated", "G (y >= 1)", -0.2),
        ]
        report = build_report(_result(), stl=verdicts)
        assert "STL properties (offline, recorded trace)" in report
        assert "SAT" in report
        assert "VIOLATED" in report

    def test_counterexample_section(self):
        report = build_report(_result(), counterexamples=[_counterexample()])
        assert "Counterexamples (scenario search)" in report
        assert "[pedestrian#0]" in report
        assert "outside default jitter" in report
        assert "veh_time" in report

    def test_empty_counterexample_list_still_renders_section(self):
        report = build_report(_result(), counterexamples=[])
        assert "Counterexamples (scenario search)" in report
