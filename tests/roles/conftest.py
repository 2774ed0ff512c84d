"""Fixtures for role tests: world-state contexts built from the simulator."""

from __future__ import annotations

import pytest

from repro.core import DependabilityMetrics, RoleContext, StateManager
from repro.env.sim_interface import IntersectionSimInterface
from repro.sim import ScenarioType, build_scenario


def make_context(
    interface: IntersectionSimInterface,
    iteration: int = 0,
    generator_output=None,
) -> RoleContext:
    """Build a RoleContext over the interface's current observation."""
    state = StateManager()
    # Fast-forward the fresh StateManager to the requested iteration.
    for i in range(iteration + 1):
        state.begin_iteration(i, interface.time)
    state.update_world_state(interface.observe())
    if generator_output is not None:
        state.record_output(generator_output)
    return RoleContext(
        state=state,
        metrics=DependabilityMetrics(),
        iteration=iteration,
        time=interface.time,
    )


@pytest.fixture
def quiet_interface():
    """A noise-free nominal world: deterministic role inputs."""
    spec = build_scenario(ScenarioType.NOMINAL, 0)
    interface = IntersectionSimInterface(spec, position_sigma=0.0, velocity_sigma=0.0)
    interface.reset()
    return interface


def advance(interface: IntersectionSimInterface, ticks: int, action=None) -> None:
    """Step the world with a fixed (or no) ego action."""
    for _ in range(ticks):
        interface.apply_action(action)
        interface.advance()
