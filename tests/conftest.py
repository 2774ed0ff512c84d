"""Shared fixtures and helper doubles for the test suite."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import pytest

from repro.core import Event, Role, RoleContext, RoleKind, RoleResult, Verdict
from repro.env.interface import EnvironmentInterface
from repro.sim import Approach, IntersectionMap, Movement


class StubEnvironment(EnvironmentInterface):
    """Deterministic scripted environment for orchestrator tests.

    Serves a fixed sequence of world states, records applied actions, and
    reports done after ``steps`` ticks.
    """

    def __init__(self, steps: int = 5, states: Optional[List[Dict[str, Any]]] = None) -> None:
        self.steps = steps
        self.states = states
        self.applied: List[Any] = []
        self.reset_count = 0
        self._tick = 0

    def reset(self) -> None:
        self.reset_count += 1
        self._tick = 0
        self.applied.clear()

    def observe(self) -> Dict[str, Any]:
        if self.states is not None:
            index = min(self._tick, len(self.states) - 1)
            return dict(self.states[index])
        return {"tick": self._tick, "value": float(self._tick)}

    def apply_action(self, action: Any) -> None:
        self.applied.append(action)

    def advance(self) -> None:
        self._tick += 1

    @property
    def time(self) -> float:
        return self._tick * 0.1

    @property
    def done(self) -> bool:
        return self._tick >= self.steps

    def result_info(self) -> Dict[str, Any]:
        return {"ticks": self._tick}


class ScriptedRole(Role):
    """Role returning pre-baked results (cycled), for orchestrator tests."""

    def __init__(
        self,
        results: List[RoleResult],
        name: str = "Scripted",
        kind: RoleKind = RoleKind.CUSTOM,
    ) -> None:
        super().__init__(name)
        self.kind = kind
        self._results = results
        self.calls = 0
        self.reset_count = 0

    def reset(self) -> None:
        self.reset_count += 1
        self.calls = 0

    def execute(self, context: RoleContext) -> RoleResult:
        result = self._results[min(self.calls, len(self._results) - 1)]
        self.calls += 1
        # Return a fresh copy so the orchestrator's mutation of role_name
        # does not leak across iterations.
        return RoleResult(
            verdict=result.verdict,
            data=dict(result.data),
            scores=dict(result.scores),
            narrative=result.narrative,
        )


def constant_generator(action: Any, name: str = "Generator") -> ScriptedRole:
    """A generator role that always proposes ``action``."""
    return ScriptedRole(
        [RoleResult(verdict=Verdict.INFO, data={"action": action})],
        name=name,
        kind=RoleKind.GENERATOR,
    )


def collect_events(controller: Any) -> List[Event]:
    """Every event ``controller`` publishes from now on, in order.

    The bus keeps no log: the returned list is subscribed to it, so call
    this before ``run()``.
    """
    events: List[Event] = []
    controller.events.subscribe(events.append)
    return events


@pytest.fixture(scope="session")
def intersection_map() -> IntersectionMap:
    """A shared immutable intersection map (construction is not free)."""
    return IntersectionMap()


@pytest.fixture
def ego_route(intersection_map: IntersectionMap):
    return intersection_map.route(Approach.SOUTH, Movement.STRAIGHT)
