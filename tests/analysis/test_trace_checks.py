"""Tests for offline trace verification."""

import dataclasses

import pytest

from repro.analysis.trace_checks import (
    SAFETY_FORMULA,
    check_trace,
    safety_robustness,
)
from repro.core import (
    EventKind,
    OrchestrationController,
    OrchestratorConfig,
    StateError,
)
from repro.experiments import campaign
from repro.experiments.campaign import CampaignOptions, build_controller, run_once
from repro.search import objective
from repro.search.space import get_space
from repro.sim import ScenarioType, build_scenario
from repro.stl import Trace, evaluate, parse
from tests.conftest import StubEnvironment, constant_generator


def stub_run(states, steps=None):
    """The state manager of a finished stub run serving ``states``."""
    controller = OrchestrationController(
        [constant_generator("go")],
        StubEnvironment(steps=len(states) if steps is None else steps, states=states),
    )
    controller.run()
    return controller.state


def speeds(values):
    return stub_run([{"speed": v, "gap": 5.0, "label": "x"} for v in values])


#: Both readers of a finished run's history: ``check_trace`` and
#: ``safety_robustness``.
READERS = {
    "check": lambda state: check_trace(state, {"safety": SAFETY_FORMULA}),
    "robustness": safety_robustness,
}


@pytest.fixture(params=sorted(READERS))
def read(request):
    return READERS[request.param]


class TestHistoryStrictness:
    def test_reads_one_sample_per_iteration(self):
        (second, third) = check_trace(
            speeds([1.0, 2.0, 3.0]),
            {"second": "G[0.1,0.1] (speed <= 2)", "third": "G[0.2,0.2] (speed <= 5)"},
        )
        assert second.robustness == pytest.approx(0.0)
        assert third.robustness == pytest.approx(2.0)

    def test_empty_history_rejected(self, read):
        with pytest.raises(ValueError, match="empty history"):
            read(stub_run([{"min_separation": 5.0, "ego_speed": 1.0}], steps=0))

    def test_missing_signal_rejected(self, read):
        with pytest.raises(KeyError, match="min_separation"):
            read(stub_run([{"ego_speed": 1.0}]))

    @pytest.mark.parametrize("value", ["fast", True, None], ids=["str", "bool", "none"])
    def test_non_numeric_rejected(self, read, value):
        states = [
            {"min_separation": 5.0, "ego_speed": 1.0},
            {"min_separation": 5.0, "ego_speed": value},
        ]
        with pytest.raises(KeyError, match="ego_speed"):
            read(stub_run(states))


class TestCheckTrace:
    def test_satisfied_property(self):
        verdicts = check_trace(speeds([1.0, 2.0, 3.0]), {"slow": "G (speed <= 5)"})
        assert len(verdicts) == 1
        assert verdicts[0].satisfied
        assert verdicts[0].robustness == pytest.approx(2.0)

    def test_violated_property(self):
        verdicts = check_trace(speeds([1.0, 9.0]), {"slow": "G (speed <= 5)"})
        assert not verdicts[0].satisfied
        assert verdicts[0].robustness == pytest.approx(-4.0)

    def test_multiple_properties_in_order(self):
        verdicts = check_trace(
            speeds([1.0, 2.0]),
            {"a": "G (speed <= 5)", "b": "F (speed >= 2)"},
        )
        assert [v.name for v in verdicts] == ["a", "b"]

    def test_end_to_end_with_real_run(self):
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.run()
        verdicts = check_trace(
            controller.state,
            {
                "never catastrophic": "G (min_separation >= 0.1)",
                "eventually crosses": "F (ego_s >= 70)",
            },
        )
        assert all(v.satisfied for v in verdicts)


class FrameSubscriber:
    """The per-tick reference the history is checked against: on each
    ``iteration_finished`` event it copies the safety signals of the tick
    just finished, and it scores them through :mod:`repro.stl` alone."""

    FORMULA = parse(SAFETY_FORMULA)

    def __init__(self, controller):
        self.frames = []
        state = controller.state
        names = sorted(self.FORMULA.variables())

        def on_event(event):
            if event.kind is EventKind.ITERATION_FINISHED:
                world = state.last_record.world_state
                self.frames.append({name: world[name] for name in names})

        controller.events.subscribe(on_event)

    def robustness(self):
        return evaluate(self.FORMULA, Trace.from_records(self.frames, period=0.1))[0]


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
        assert outcome.stl_robustness == reference.robustness()

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
        assert outcome.stl_robustness == reference.robustness()

    def test_search_objective_equals_the_per_tick_frames(self, reference_frames):
        space = get_space("crossing")
        params = space.nominal_params()
        evaluation = objective.evaluate_spec(
            "test:history", "crossing", params, space.to_spec(params, 0)
        )
        (reference,) = reference_frames
        assert evaluation.robustness == reference.robustness()

    def test_frames_from_history_equal_the_per_tick_frames(self):
        controller = build_controller(build_scenario(ScenarioType.SPOOF_ATTACK, 1))
        reference = FrameSubscriber(controller)
        controller.run()
        names = sorted(FrameSubscriber.FORMULA.variables())
        assert [
            {name: record.world_state[name] for name in names}
            for record in controller.state.run_history()
        ] == reference.frames
        assert safety_robustness(controller.state) == reference.robustness()

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
        assert safety_robustness(controller.state) == reference.robustness()

    def test_a_truncated_history_raises(self):
        states = [{"min_separation": 5.0, "ego_speed": 1.0}]
        controller = OrchestrationController(
            [constant_generator("go")],
            StubEnvironment(steps=6, states=states),
            OrchestratorConfig(history_limit=4),
        )
        controller.run()
        for read in READERS.values():
            with pytest.raises(StateError, match="starts at iteration 2"):
                read(controller.state)
