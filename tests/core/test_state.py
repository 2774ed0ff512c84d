"""Tests for the StateManager blackboard."""

import pytest

from repro.core import RoleResult, StateManager, StateError, Verdict


class TestIterationLifecycle:
    def test_begin_requires_sequential_iterations(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        with pytest.raises(StateError):
            state.begin_iteration(2, 0.2)

    def test_begin_clears_outputs(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        state.record_output(RoleResult(role_name="A", verdict=Verdict.PASS))
        state.begin_iteration(1, 0.1)
        assert state.output_of("A") is None

    def test_finish_archives_snapshot(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        state.update_world_state({"x": 1})
        state.record_output(RoleResult(role_name="A", verdict=Verdict.FAIL))
        record = state.finish_iteration(executed_action="go", action_source="A")
        assert record.world_state == {"x": 1}
        assert record.outputs["A"].verdict is Verdict.FAIL
        assert record.executed_action == "go"
        assert state.history[-1] is record

    def test_reset_clears_everything(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        state.update_world_state({"x": 1})
        state.remember("note", 42)
        state.finish_iteration(None, "")
        state.reset()
        assert state.iteration == -1
        assert state.history == []
        assert state.world("x") is None
        assert state.recall("note") is None


class TestWorldState:
    def test_update_replaces(self):
        state = StateManager()
        state.update_world_state({"a": 1})
        state.update_world_state({"b": 2})
        assert state.world("a") is None
        assert state.world("b") == 2

    def test_require_world_raises_with_available_keys(self):
        state = StateManager()
        state.update_world_state({"present": 1})
        with pytest.raises(StateError, match="present"):
            state.require_world("absent")

    def test_set_world_overwrites_single_entry(self):
        state = StateManager()
        state.update_world_state({"perception": "clean", "other": 1})
        state.set_world("perception", "faulted")
        assert state.world("perception") == "faulted"
        assert state.world("other") == 1

    def test_world_state_copy_is_isolated(self):
        state = StateManager()
        state.update_world_state({"a": 1})
        snapshot = state.world_state
        snapshot["a"] = 99
        assert state.world("a") == 1


class TestOutputs:
    def test_record_requires_role_name(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        with pytest.raises(StateError):
            state.record_output(RoleResult())

    def test_output_of_unknown_role(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        assert state.output_of("missing") is None

    def test_outputs_returns_copy(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        state.record_output(RoleResult(role_name="A"))
        outputs = state.outputs
        outputs.clear()
        assert state.output_of("A") is not None


class TestHistory:
    def _run_iterations(self, state, values):
        for i, value in enumerate(values):
            state.begin_iteration(i, i * 0.1)
            state.update_world_state({"signal": value, "label": "text"})
            state.finish_iteration(None, "")

    def test_history_limit_enforced(self):
        state = StateManager(history_limit=3)
        self._run_iterations(state, [1, 2, 3, 4, 5])
        assert len(state.history) == 3
        assert state.history[0].world_state["signal"] == 3

    def test_recent_returns_tail(self):
        state = StateManager()
        self._run_iterations(state, [1, 2, 3])
        recent = list(state.recent(2))
        assert [r.world_state["signal"] for r in recent] == [2, 3]

    def test_recent_zero_is_empty(self):
        state = StateManager()
        self._run_iterations(state, [1, 2, 3])
        assert list(state.recent(0)) == []

    def test_recent_negative_count_rejected(self):
        state = StateManager()
        self._run_iterations(state, [1, 2, 3])
        with pytest.raises(ValueError, match="non-negative"):
            state.recent(-1)

    def test_recent_beyond_history_returns_all(self):
        state = StateManager()
        self._run_iterations(state, [1, 2, 3])
        assert [r.iteration for r in state.recent(10)] == [0, 1, 2]

    def test_run_history_is_the_whole_run(self):
        state = StateManager(history_limit=5)
        self._run_iterations(state, [1, 2, 3, 4, 5])
        assert [r.iteration for r in state.run_history()] == [0, 1, 2, 3, 4]
        assert StateManager().run_history() == []

    def test_run_history_refuses_a_truncated_history(self):
        state = StateManager(history_limit=3)
        self._run_iterations(state, [1, 2, 3, 4, 5])
        with pytest.raises(StateError, match="starts at iteration 2"):
            state.run_history()


class TestScratch:
    def test_remember_persists_across_iterations(self):
        state = StateManager()
        state.begin_iteration(0, 0.0)
        state.remember("cot", "because reasons")
        state.finish_iteration(None, "")
        state.begin_iteration(1, 0.1)
        assert state.recall("cot") == "because reasons"

    def test_recall_default(self):
        assert StateManager().recall("nope", default=5) == 5
