"""Tests for the Role/RoleResult/Verdict primitives."""

import pytest

from repro.core import (
    DependabilityMetrics,
    Role,
    RoleContext,
    RoleKind,
    RoleResult,
    StateManager,
    Verdict,
)


class TestVerdict:
    def test_only_fail_is_violation(self):
        assert Verdict.FAIL.is_violation
        for verdict in (Verdict.PASS, Verdict.WARNING, Verdict.INFO):
            assert not verdict.is_violation

    def test_values_are_stable_strings(self):
        # Trigger configs and trace files serialize these; renaming breaks
        # stored experiments.
        assert Verdict.FAIL.value == "fail"
        assert Verdict.PASS.value == "pass"
        assert Verdict.WARNING.value == "warning"
        assert Verdict.INFO.value == "info"


class TestRoleResult:
    def test_ok_constructor(self):
        result = RoleResult.ok(action="go", margin=2.0)
        assert result.verdict is Verdict.PASS
        assert result.data == {"action": "go", "margin": 2.0}

    def test_violation_constructor(self):
        result = RoleResult.violation("too close", distance=0.5)
        assert result.verdict is Verdict.FAIL
        assert result.narrative == "too close"
        assert result.data == {"distance": 0.5}

    def test_defaults_are_fresh_per_instance(self):
        a, b = RoleResult(), RoleResult()
        a.data["k"] = 1
        assert b.data == {}


class TestRoleBase:
    class Minimal(Role):
        kind = RoleKind.CUSTOM

        def execute(self, context):
            return RoleResult()

    def test_default_name_is_class_name(self):
        assert self.Minimal().name == "Minimal"

    def test_explicit_name(self):
        assert self.Minimal("Custom").name == "Custom"

    def test_repr_mentions_name_and_kind(self):
        text = repr(self.Minimal("X"))
        assert "X" in text and "custom" in text

    def test_reset_is_optional_noop(self):
        self.Minimal().reset()  # must not raise

    def test_abstract_execute_required(self):
        class Incomplete(Role):
            pass

        with pytest.raises(TypeError):
            Incomplete()  # type: ignore[abstract]


class TestRoleContext:
    def test_carries_shared_services(self):
        state, metrics = StateManager(), DependabilityMetrics()
        context = RoleContext(state=state, metrics=metrics, iteration=3, time=0.3)
        assert context.state is state
        assert context.metrics is metrics
        assert context.iteration == 3
        assert context.deadline_ms is None
