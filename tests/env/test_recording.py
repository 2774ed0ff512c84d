"""Tests for trace recording and replay."""

import gc
import weakref

import pytest

from repro.core import OrchestrationController, OrchestratorConfig
from repro.env import TraceFrame, TraceRecorder
from repro.experiments.campaign import build_controller
from repro.sim import ScenarioType, build_scenario
from tests.conftest import StubEnvironment, constant_generator


@pytest.fixture
def recorded_controller():
    controller = OrchestrationController(
        [constant_generator("go")],
        StubEnvironment(steps=4),
        OrchestratorConfig(),
    )
    recorder = TraceRecorder.attach(controller)
    controller.run()
    return controller, recorder


class TestRecording:
    def test_one_frame_per_iteration(self, recorded_controller):
        _, recorder = recorded_controller
        assert len(recorder.frames) == 4
        assert [f.iteration for f in recorder.frames] == [0, 1, 2, 3]

    def test_frames_capture_action_and_verdicts(self, recorded_controller):
        _, recorder = recorded_controller
        frame = recorder.frames[0]
        assert frame.action == "go"
        assert frame.action_source == "Generator"
        assert frame.verdicts == {"Generator": "info"}

    def test_heavy_keys_excluded(self):
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.config.max_iterations = 5
        recorder = TraceRecorder.attach(controller)
        controller.run()
        assert recorder.frames
        for frame in recorder.frames:
            assert "perception" not in frame.world
            assert "ego_route" not in frame.world

    def test_signal_extraction(self, recorded_controller):
        _, recorder = recorded_controller
        assert recorder.signal("value") == [0.0, 1.0, 2.0, 3.0]
        assert recorder.signal("missing") == []

    def test_actions_helper(self, recorded_controller):
        _, recorder = recorded_controller
        assert recorder.actions() == ["go"] * 4

    def test_finished_run_is_freed_without_the_cycle_collector(self):
        # The recorder must not tie the controller into a reference cycle:
        # once its caller drops a finished controller, reference counting
        # alone frees it (and its history and metrics), while
        # the recorder keeps its frames.
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.config.max_iterations = 5
        recorder = TraceRecorder.attach(controller)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            controller.run()
            finished = weakref.ref(controller)
            del controller
            assert finished() is None
        finally:
            if was_enabled:
                gc.enable()
        assert len(recorder.frames) == 5


class TestPersistence:
    def test_save_load_round_trip(self, recorded_controller, tmp_path):
        _, recorder = recorded_controller
        path = tmp_path / "trace.jsonl"
        recorder.save(path)
        frames = TraceRecorder.load(path)
        assert len(frames) == len(recorder.frames)
        assert frames[0].iteration == 0
        assert frames[0].action == "go"
        assert frames[0].world["value"] == 0.0

    def test_real_run_serializes(self, tmp_path):
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.config.max_iterations = 10
        recorder = TraceRecorder.attach(controller)
        controller.run()
        path = tmp_path / "run.jsonl"
        recorder.save(path)
        frames = TraceRecorder.load(path)
        assert len(frames) == 10
        # Maneuver enums serialize as their value strings.
        assert isinstance(frames[0].action, str)

    def test_frame_json_round_trip(self):
        frame = TraceFrame(
            iteration=2,
            time=0.2,
            world={"speed": 5.0, "flag": True},
            action="proceed",
            action_source="Generator",
            verdicts={"Monitor": "pass"},
        )
        restored = TraceFrame.from_json(frame.to_json())
        assert restored == frame
