"""Tests for offline trace verification."""

import dataclasses

import pytest

from repro.analysis.trace_checks import (
    PropertyVerdict,
    check_trace,
    frames_to_trace,
    safety_robustness,
    summarize,
)
from repro.core import (
    EventKind,
    OrchestrationController,
    OrchestratorConfig,
    StateError,
)
from repro.env.recording import TraceFrame, TraceRecorder
from repro.experiments import campaign
from repro.experiments.campaign import CampaignOptions, build_controller, run_once
from repro.search import objective
from repro.search.space import get_space
from repro.sim import ScenarioType, build_scenario
from tests.conftest import StubEnvironment, constant_generator


def frames(values):
    return [
        TraceFrame(iteration=i, time=i * 0.1, world={"speed": v, "gap": 5.0, "label": "x"})
        for i, v in enumerate(values)
    ]


class TestFramesToTrace:
    def test_extracts_signals(self):
        trace = frames_to_trace(frames([1.0, 2.0, 3.0]), ["speed", "gap"])
        assert trace.value("speed", 1) == 2.0
        assert trace.value("gap", 2) == 5.0
        assert len(trace) == 3

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            frames_to_trace([], ["speed"])

    def test_missing_signal_rejected(self):
        with pytest.raises(KeyError, match="missing"):
            frames_to_trace(frames([1.0]), ["missing"])

    def test_non_numeric_signal_rejected(self):
        with pytest.raises(KeyError, match="label"):
            frames_to_trace(frames([1.0]), ["label"])


class TestCheckTrace:
    def test_satisfied_property(self):
        verdicts = check_trace(frames([1.0, 2.0, 3.0]), {"slow": "G (speed <= 5)"})
        assert len(verdicts) == 1
        assert verdicts[0].satisfied
        assert verdicts[0].robustness == pytest.approx(2.0)

    def test_violated_property(self):
        verdicts = check_trace(frames([1.0, 9.0]), {"slow": "G (speed <= 5)"})
        assert not verdicts[0].satisfied
        assert verdicts[0].robustness == pytest.approx(-4.0)

    def test_multiple_properties_in_order(self):
        verdicts = check_trace(
            frames([1.0, 2.0]),
            {"a": "G (speed <= 5)", "b": "F (speed >= 2)"},
        )
        assert [v.name for v in verdicts] == ["a", "b"]

    def test_end_to_end_with_real_run(self):
        from repro.env import TraceRecorder
        from repro.experiments import build_controller
        from repro.sim import ScenarioType, build_scenario

        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        recorder = TraceRecorder.attach(controller)
        controller.run()
        verdicts = check_trace(
            recorder.frames,
            {
                "never catastrophic": "G (min_separation >= 0.1)",
                "eventually crosses": "F (ego_s >= 70)",
            },
        )
        assert all(v.satisfied for v in verdicts)


class FrameSubscriber:
    """The per-tick recorder the history replaced, kept as the reference:
    on each ``iteration_finished`` event it copies a frame from the newest
    history record."""

    def __init__(self, controller):
        self.frames = []
        state = controller.state
        excluded = TraceRecorder.EXCLUDED_KEYS

        def on_event(event):
            if event.kind is not EventKind.ITERATION_FINISHED:
                return
            record = state.last_record
            self.frames.append(
                TraceFrame(
                    iteration=record.iteration,
                    time=record.time,
                    world={
                        k: v for k, v in record.world_state.items() if k not in excluded
                    },
                    action=record.executed_action,
                    action_source=record.action_source,
                    verdicts={
                        name: result.verdict.value
                        for name, result in record.outputs.items()
                    },
                )
            )

        controller.events.subscribe(on_event)


@pytest.fixture
def reference_frames(monkeypatch):
    """Per-tick frames of every controller the campaign and the search
    objective build, recorded by :class:`FrameSubscriber`."""
    recorded = []

    def wrap(build):
        def capture(*args, **kwargs):
            controller = build(*args, **kwargs)
            recorded.append(FrameSubscriber(controller))
            return controller

        return capture

    monkeypatch.setattr(campaign, "build_controller", wrap(campaign.build_controller))
    monkeypatch.setattr(objective, "build_controller", wrap(objective.build_controller))
    return recorded


class TestRobustnessFromHistory:
    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    def test_run_once_equals_the_per_tick_frames(self, scenario, reference_frames):
        outcome = run_once(scenario, 0)
        (reference,) = reference_frames
        assert len(reference.frames) == outcome.iterations
        assert outcome.stl_robustness == safety_robustness(reference.frames)

    @pytest.mark.parametrize(
        "options",
        [
            CampaignOptions(breaker=True, crash_window=(5, 15)),
            CampaignOptions(deadline_ms=0.01, breaker=True, crash_window=(5, 15)),
        ],
        ids=["breaker", "deadlines"],
    )
    def test_resilient_runs_equal_the_per_tick_frames(self, options, reference_frames):
        outcome = run_once(ScenarioType.GHOST_ATTACK, 0, options)
        (reference,) = reference_frames
        assert outcome.stl_robustness == safety_robustness(reference.frames)

    def test_search_objective_equals_the_per_tick_frames(self, reference_frames):
        space = get_space("crossing")
        params = space.nominal_params()
        evaluation = objective.evaluate_spec(
            "test:history", "crossing", params, space.to_spec(params, 0)
        )
        (reference,) = reference_frames
        assert evaluation.robustness == safety_robustness(reference.frames)

    def test_frames_from_history_equal_the_per_tick_frames(self):
        controller = build_controller(build_scenario(ScenarioType.SPOOF_ATTACK, 1))
        reference = FrameSubscriber(controller)
        recorder = TraceRecorder.attach(controller)
        controller.run()
        assert recorder.frames == reference.frames
        assert safety_robustness(controller.state) == safety_robustness(reference.frames)

    def test_a_long_run_keeps_every_tick(self):
        # A ghost that never clears holds the ego until a 250 s timeout:
        # 2,501 ticks, more than OrchestratorConfig's default history bound.
        spec = build_scenario(ScenarioType.GHOST_ATTACK, 0)
        spec = dataclasses.replace(
            spec, timeout_s=250.0, attack=dataclasses.replace(spec.attack, duration=1e3)
        )
        controller = build_controller(spec)
        assert controller.config.history_limit >= controller.config.max_iterations
        reference = FrameSubscriber(controller)
        result = controller.run()
        assert result.iterations > OrchestratorConfig().history_limit
        assert len(controller.state.history) == result.iterations
        assert safety_robustness(controller.state) == safety_robustness(reference.frames)

    def test_a_truncated_history_raises(self):
        states = [{"min_separation": 5.0, "ego_speed": 1.0}]
        controller = OrchestrationController(
            [constant_generator("go")],
            StubEnvironment(steps=6, states=states),
            OrchestratorConfig(history_limit=4),
        )
        controller.run()
        with pytest.raises(StateError, match="starts at iteration 2"):
            safety_robustness(controller.state)
        with pytest.raises(StateError, match="starts at iteration 2"):
            TraceRecorder.attach(controller).frames

    def test_history_signals_keep_the_frames_strictness(self):
        states = [{"min_separation": 5.0, "ego_speed": "fast"}]
        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=2, states=states)
        )
        controller.run()
        with pytest.raises(KeyError, match="ego_speed"):
            safety_robustness(controller.state)
        controller = OrchestrationController(
            [constant_generator("go")],
            StubEnvironment(steps=2, states=[{"ego_speed": 1.0}]),
        )
        controller.run()
        with pytest.raises(KeyError, match="min_separation"):
            safety_robustness(controller.state)


class TestSummarize:
    def test_summary_counts(self):
        verdicts = [
            PropertyVerdict("ok", "G (x >= 0)", 1.0),
            PropertyVerdict("bad", "G (x >= 9)", -2.0),
        ]
        text = summarize(verdicts)
        assert "1/2 properties satisfied" in text
        assert "VIOLATED" in text and "SAT" in text
