"""LLMPlanner: the planner-facing facade over the surrogate model.

Ties the pipeline of Fig. 3 together for one tick: perceived snapshot ->
feature extraction -> model decision -> CoT explanation, with the Table I
channels templated into a prompt (with running-state history) whenever the
model is consulted.  The Generator role
(:class:`~repro.roles.generator.LLMGeneratorRole`) owns an instance and
calls :meth:`plan` each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.actions import Maneuver
from ..sim.intersection import Route
from ..sim.perception import PerceptionSnapshot
from ..sim.sensors import SensorSuite, build_sensor_suite
from .features import PlannerObservation, observe
from .prompt import HistoryEntry, PlannerPrompt, build_prompt
from .surrogate import PlannerDecision, SurrogateConfig, SurrogateLLM


@dataclass
class PlanOutput:
    """The full planner output for one tick."""

    maneuver: Maneuver
    explanation: str
    prompt: PlannerPrompt
    observation: PlannerObservation
    failure_mode: Optional[str] = None
    fresh: bool = True


class LLMPlanner:
    """Tactical planner: prompt-templated surrogate LLM with history.

    Args:
        goal: the mission string embedded in every prompt.
        config: surrogate behaviour parameters.
        seed: RNG seed for the surrogate's stochastic failure modes.
        history_limit: past decisions kept in the running state; 0 keeps
            no history at all (the prompt carries only the current tick).
    """

    def __init__(
        self,
        goal: str = "Proceed straight through the intersection.",
        config: Optional[SurrogateConfig] = None,
        seed: int = 0,
        history_limit: int = 8,
    ) -> None:
        self.goal = goal
        self.model = SurrogateLLM(config=config, seed=seed)
        self.history: List[HistoryEntry] = []
        self.history_limit = history_limit
        #: The prompt behind the held decision.
        self._prompt: Optional[PlannerPrompt] = None

    def reset(self) -> None:
        """Fresh run: clear the model state, the decision history and the
        held decision's prompt."""
        self.model.reset()
        self.history.clear()
        self._prompt = None

    def plan(
        self,
        snapshot: PerceptionSnapshot,
        route: Route,
        ego_s: float,
        ego_acceleration: float = 0.0,
    ) -> PlanOutput:
        """Run the full per-tick planning pipeline.

        The prompt is rendered only when the model is consulted (a fresh
        decision), from the history as it stood before that decision.  A
        held tick returns the prompt behind the held decision.
        """
        observation = observe(snapshot, route, ego_s)
        decision: PlannerDecision = self.model.decide(observation)

        if decision.fresh:
            suite: SensorSuite = build_sensor_suite(snapshot, route, ego_s, ego_acceleration)
            self._prompt = build_prompt(suite, self.goal, history=self.history)
            self.history.append(
                HistoryEntry(
                    time=snapshot.time,
                    maneuver=decision.maneuver,
                    explanation=decision.explanation,
                )
            )
            # Trim to the newest `history_limit` entries.  A negative-index
            # slice (`[: -limit]`) would be a no-op at limit 0 and grow the
            # history without bound, so compute the overflow explicitly.
            overflow = len(self.history) - self.history_limit
            if overflow > 0:
                del self.history[:overflow]

        return PlanOutput(
            maneuver=decision.maneuver,
            explanation=decision.explanation,
            prompt=self._prompt,
            observation=observation,
            failure_mode=decision.failure_mode,
            fresh=decision.fresh,
        )
