"""Tests for the surrogate LLM decision model, prompt templater and CoT."""

import weakref

import pytest

import repro.llm.planner as planner_module
from repro.llm import (
    FEW_SHOT_EXAMPLES,
    HistoryEntry,
    LLMPlanner,
    PlannerObservation,
    PlannerPrompt,
    SurrogateConfig,
    SurrogateLLM,
    build_prompt,
    explain,
    render_history,
)
from repro.llm.features import Threat
from repro.sim import (
    Approach,
    IntersectionMap,
    Maneuver,
    Movement,
    ObjectKind,
    PerceivedObject,
    ScenarioType,
    World,
    build_scenario,
    build_sensor_suite,
    perceive,
)
from repro.geom import Vec2

_MAP = IntersectionMap()
_ROUTE = _MAP.route(Approach.SOUTH, Movement.STRAIGHT)


def obs(
    time=0.0,
    ego_speed=7.0,
    distance_to_entry=20.0,
    in_intersection=False,
    past_intersection=False,
    threats=(),
    obstacle_ahead=float("inf"),
    object_count=0,
    approaching=0,
):
    return PlannerObservation(
        time=time,
        ego_speed=ego_speed,
        distance_to_entry=distance_to_entry,
        in_intersection=in_intersection,
        past_intersection=past_intersection,
        threats=list(threats),
        obstacle_ahead_distance=obstacle_ahead,
        object_count=object_count,
        approaching_near_count=approaching,
    )


def threat(severity=0.8, closing=5.0, on_path=False):
    dummy = PerceivedObject(
        object_id=1,
        kind=ObjectKind.PEDESTRIAN if on_path else ObjectKind.VEHICLE,
        position=Vec2(10, 0),
        velocity=Vec2(-5, 0),
        heading=3.14,
        length=4.5,
        width=2.0,
        source_id=1,
    )
    return Threat(
        obj=dummy,
        distance=10.0,
        time_to_conflict=2.0,
        conflict_distance=1.0,
        inside_box=False,
        closing_speed=closing,
        on_ego_path=on_path,
        severity=severity,
    )


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a, b = SurrogateLLM(seed=3), SurrogateLLM(seed=3)
        sequence = [obs(time=i * 0.1, object_count=3, threats=[threat()]) for i in range(30)]
        decisions_a = [a.decide(o).maneuver for o in sequence]
        decisions_b = [b.decide(o).maneuver for o in sequence]
        assert decisions_a == decisions_b

    def test_reset_reproduces_run(self):
        model = SurrogateLLM(seed=5)
        sequence = [obs(time=i * 0.1, threats=[threat()]) for i in range(20)]
        first = [model.decide(o).maneuver for o in sequence]
        model.reset()
        second = [model.decide(o).maneuver for o in sequence]
        assert first == second


class TestBehaviours:
    def test_clear_road_proceeds(self):
        model = SurrogateLLM(seed=0)
        decision = model.decide(obs())
        assert decision.maneuver is Maneuver.PROCEED
        assert decision.failure_mode is None

    def test_past_intersection_always_proceeds(self):
        model = SurrogateLLM(seed=0)
        decision = model.decide(obs(past_intersection=True, threats=[threat()]))
        assert decision.maneuver is Maneuver.PROCEED

    def test_blocking_obstacle_triggers_braking(self):
        model = SurrogateLLM(seed=0)
        decision = model.decide(obs(obstacle_ahead=10.0))
        assert decision.failure_mode == "ghost_reaction"
        assert decision.maneuver in (Maneuver.EMERGENCY_BRAKE, Maneuver.WAIT)

    def test_ghost_reaction_sticky_within_episode(self):
        model = SurrogateLLM(seed=0)
        first = model.decide(obs(time=0.0, obstacle_ahead=10.0))
        second = model.decide(obs(time=0.1, obstacle_ahead=9.0))
        assert first.maneuver == second.maneuver

    def test_severe_threat_waits(self):
        config = SurrogateConfig(base_misjudge_rate=0.0, per_threat_misjudge=0.0)
        model = SurrogateLLM(config=config, seed=0)
        decision = model.decide(obs(threats=[threat(severity=0.9)]))
        assert decision.maneuver is Maneuver.WAIT

    def test_moderate_threat_yields(self):
        config = SurrogateConfig(base_misjudge_rate=0.0, per_threat_misjudge=0.0)
        model = SurrogateLLM(config=config, seed=0)
        decision = model.decide(obs(threats=[threat(severity=0.5)], distance_to_entry=20.0))
        assert decision.maneuver is Maneuver.YIELD

    def test_aggressive_closing_scares(self):
        config = SurrogateConfig(aggressive_closing_mps=10.0, spooked_rate=1.0)
        model = SurrogateLLM(config=config, seed=0)
        decision = model.decide(obs(threats=[threat(severity=0.6, closing=15.0)]))
        assert decision.failure_mode == "spoof_caution"
        assert model.spooked
        assert model.spoof_scares == 1

    def test_spooked_refuses_to_cross_with_traffic_near(self):
        config = SurrogateConfig(aggressive_closing_mps=10.0, spooked_rate=1.0)
        model = SurrogateLLM(config=config, seed=0)
        model.decide(obs(time=0.0, threats=[threat(severity=0.6, closing=15.0)]))
        decision = model.decide(obs(time=1.0, approaching=1))
        assert decision.maneuver is Maneuver.WAIT
        assert decision.failure_mode == "spoof_caution"

    def test_misjudge_commit_accelerates(self):
        config = SurrogateConfig(base_misjudge_rate=1.0, commit_duration_s=2.0)
        model = SurrogateLLM(config=config, seed=0)
        decision = model.decide(obs(time=0.0, threats=[threat(severity=0.6)], ego_speed=2.0))
        assert decision.failure_mode == "gap_misjudged"
        assert decision.maneuver is Maneuver.ACCELERATE
        held = model.decide(obs(time=1.0, threats=[threat(severity=0.9)], ego_speed=4.0))
        assert held.failure_mode == "gap_misjudged"

    def test_frustration_requires_blocked_time(self):
        config = SurrogateConfig(
            base_misjudge_rate=0.0,
            per_threat_misjudge=0.0,
            frustration_time_s=2.0,
            frustrated_go_rate=1.0,
        )
        model = SurrogateLLM(config=config, seed=0)
        # Blocked at the line for 3 simulated seconds.
        decision = None
        for i in range(31):
            decision = model.decide(
                obs(time=i * 0.1, ego_speed=0.2, threats=[threat(severity=0.9)])
            )
        assert decision.failure_mode == "frustrated_go"

    def test_decision_inertia(self):
        model = SurrogateLLM(seed=0)
        first = model.decide(obs(time=0.0))
        assert first.fresh
        second = model.decide(obs(time=0.1))
        assert not second.fresh


class TestPromptTemplater:
    @pytest.fixture
    def suite(self):
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        for _ in range(30):
            world.ego.apply_acceleration(0.0)
            world.step()
        snapshot = perceive(world)
        return build_sensor_suite(snapshot, world.ego.route, world.ego.s, 0.0)

    def test_prompt_contains_all_channels(self, suite):
        prompt = build_prompt(suite, goal="Proceed straight.")
        assert prompt.channel_count == 8
        for name in suite.channels():
            assert f"[{name}]" in prompt.text

    def test_prompt_contains_few_shot(self, suite):
        prompt = build_prompt(suite, goal="g")
        for _, _, answer in FEW_SHOT_EXAMPLES:
            assert answer in prompt.text

    def test_few_shot_can_be_omitted(self, suite):
        prompt = build_prompt(suite, goal="g", include_few_shot=False)
        assert "### Examples" not in prompt.text

    def test_history_rendered(self, suite):
        history = [HistoryEntry(time=1.0, maneuver=Maneuver.YIELD, explanation="traffic")]
        prompt = build_prompt(suite, goal="g", history=history)
        assert "yield" in prompt.text
        assert prompt.history_entries == 1

    def test_history_limit_in_render(self):
        entries = [
            HistoryEntry(time=float(i), maneuver=Maneuver.PROCEED, explanation=f"e{i}")
            for i in range(10)
        ]
        text = render_history(entries, limit=3)
        assert "e9" in text and "e0" not in text

    def test_empty_history_placeholder(self):
        assert "No previous decisions" in render_history([])

    def test_token_estimate_positive(self, suite):
        assert build_prompt(suite, goal="g").approx_tokens > 0


class TestCoT:
    def test_explanations_mention_maneuver(self):
        for maneuver in Maneuver:
            text = explain(maneuver, obs())
            assert maneuver.value in text

    def test_failure_mode_narratives_differ(self):
        base = obs(threats=[threat()], obstacle_ahead=12.0)
        texts = {
            mode: explain(Maneuver.WAIT, base, failure_mode=mode)
            for mode in ("gap_misjudged", "hesitation", "ghost_reaction", "spoof_caution")
        }
        assert len(set(texts.values())) == 4


class TestPlannerFacade:
    def test_plan_full_pipeline(self):
        world = World(build_scenario(ScenarioType.NOMINAL, 0))
        planner = LLMPlanner(seed=0)
        snapshot = perceive(world)
        output = planner.plan(snapshot, world.ego.route, world.ego.s)
        assert isinstance(output.maneuver, Maneuver)
        assert output.prompt.channel_count == 8
        assert output.explanation
        assert planner.history  # fresh decision recorded

    def test_history_bounded(self):
        world = World(build_scenario(ScenarioType.NOMINAL, 0))
        planner = LLMPlanner(seed=0, history_limit=3)
        for _ in range(40):
            snapshot = perceive(world)
            output = planner.plan(snapshot, world.ego.route, world.ego.s)
            world.ego.apply_acceleration(0.5)
            world.step()
        assert len(planner.history) <= 3


def recent_decisions(prompt):
    """The body of a prompt's "Recent decisions" section."""
    section = prompt.text.split("### Recent decisions\n", 1)[1]
    return section.split("\n\n### Goal", 1)[0]


class TestConsultTimePrompt:
    """The prompt is rendered when the model is consulted, not every tick."""

    @pytest.fixture
    def counted_suites(self, monkeypatch):
        calls = []
        render = planner_module.build_sensor_suite

        def counting(*args, **kwargs):
            calls.append(args)
            return render(*args, **kwargs)

        monkeypatch.setattr(planner_module, "build_sensor_suite", counting)
        return calls

    @staticmethod
    def drive(planner, ticks=60):
        world = World(build_scenario(ScenarioType.CONGESTED, 0))
        for _ in range(ticks):
            snapshot = perceive(world)
            yield snapshot, planner.plan(snapshot, world.ego.route, world.ego.s)
            world.ego.apply_acceleration(0.5)
            world.step()

    def test_channels_rendered_once_per_fresh_decision(self, counted_suites):
        outputs = [output for _, output in self.drive(LLMPlanner(seed=0))]
        fresh = sum(output.fresh for output in outputs)
        assert 0 < fresh < len(outputs)
        assert len(counted_suites) == fresh

    def test_held_tick_returns_the_held_decisions_prompt(self):
        held_ticks = 0
        consulted = None
        for _, output in self.drive(LLMPlanner(seed=0)):
            if output.fresh:
                consulted = output
            else:
                held_ticks += 1
                assert output.prompt is consulted.prompt
                assert output.maneuver is consulted.maneuver
        assert held_ticks > 0

    def test_recent_decisions_exclude_the_decision_being_made(self):
        planner = LLMPlanner(seed=0, history_limit=100)
        fresh = 0
        for snapshot, output in self.drive(planner):
            if not output.fresh:
                continue
            fresh += 1
            newest = planner.history[-1]
            assert newest.time == snapshot.time
            assert output.prompt.history_entries == len(planner.history) - 1
            assert recent_decisions(output.prompt) == render_history(planner.history[:-1])
            assert f"t={snapshot.time:.1f}s: chose" not in output.prompt.text
        assert fresh > 1

    def test_reset_drops_the_held_prompt(self):
        planner = LLMPlanner(seed=0)
        _, output = next(self.drive(planner))
        held = weakref.ref(output.prompt)
        del output
        assert held() is not None
        planner.reset()
        assert held() is None

    def test_token_estimate_counted_once_per_prompt(self):
        splits = []

        class CountingText(str):
            def split(self, *args, **kwargs):
                splits.append(1)
                return super().split(*args, **kwargs)

        text = CountingText("You are the planner.\n### Decision\nReasoning: go  now")
        prompt = PlannerPrompt(text=text, channel_count=8, history_entries=0)
        assert [prompt.approx_tokens for _ in range(5)] == [int(len(str(text).split()) * 1.3)] * 5
        assert len(splits) == 1
