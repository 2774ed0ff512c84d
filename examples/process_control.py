#!/usr/bin/env python3
"""A second CPS domain: the framework wrapped around process control.

The paper's future work (§VI.3) is "applying [the framework] to other
domains".  This example does so end to end *without touching the
framework*: a buffered water-tank process (continuous inflow, controllable
drain valve) with

* a custom :class:`~repro.env.interface.EnvironmentInterface` over the tank
  dynamics,
* an AI-flavoured Generator (a noisy, occasionally-overconfident level
  controller standing in for a learned policy),
* an STL SafetyMonitor on the level bounds,
* a FaultInjector-style sensor bias that the SecurityAssessor schedules,
* a RecoveryPlanner that forces the valve open on overflow risk.

Every framework feature — role graph, triggers, metrics, recovery
override, assurance report — is reused verbatim.

Run::

    python examples/process_control.py [seed]
"""

import random
import sys
from typing import Any, Dict

from repro.core import (
    OrchestrationController,
    OrchestratorConfig,
    Role,
    RoleContext,
    RoleGraph,
    RoleKind,
    RoleResult,
    Verdict,
    build_report,
)
from repro.core.triggers import After
from repro.env.interface import EnvironmentInterface
from repro.roles import STLSafetyMonitor

# ----------------------------------------------------------------------
# The plant: a water tank with inflow disturbance and a drain valve.
# ----------------------------------------------------------------------
class WaterTankEnvironment(EnvironmentInterface):
    """A 100-litre buffer tank; actions are valve openings in [0, 1]."""

    CAPACITY = 100.0
    SAFE_LOW, SAFE_HIGH = 15.0, 85.0

    def __init__(self, seed: int = 0, steps: int = 600) -> None:
        self.seed = seed
        self.steps = steps
        self.reset()

    def reset(self) -> None:
        self._rng = random.Random(self.seed)
        self.level = 50.0
        self.valve = 0.5
        self.sensor_bias = 0.0
        self._tick = 0
        self.overflowed = False
        self.ran_dry = False

    def observe(self) -> Dict[str, Any]:
        return {
            "level": self.level + self.sensor_bias,  # what the controller sees
            "valve": self.valve,
            "time": self.time,
            "sensor_bias": None,  # the true bias is NOT observable
        }

    def apply_action(self, action: Any) -> None:
        if action is None:
            return
        self.valve = max(0.0, min(1.0, float(action)))

    def advance(self) -> None:
        inflow = 2.0 + self._rng.gauss(0.0, 0.6)  # litres / tick
        outflow = 3.5 * self.valve
        self.level = max(0.0, min(self.CAPACITY, self.level + inflow - outflow))
        if self.level >= self.CAPACITY - 1e-9:
            self.overflowed = True
        if self.level <= 1e-9:
            self.ran_dry = True
        self._tick += 1

    @property
    def time(self) -> float:
        return self._tick * 0.1

    @property
    def done(self) -> bool:
        return self._tick >= self.steps or self.overflowed or self.ran_dry

    def result_info(self) -> Dict[str, Any]:
        return {
            "final_level": round(self.level, 1),
            "overflowed": self.overflowed,
            "ran_dry": self.ran_dry,
        }


# ----------------------------------------------------------------------
# Roles for this domain.
# ----------------------------------------------------------------------
class LevelController(Role):
    """The AUT: a proportional controller with occasional overconfidence.

    Stands in for a learned policy: mostly sensible, but every so often it
    'trusts its model' and holds the valve shut to save water, which is
    exactly the failure the monitor/recovery pair must catch.
    """

    kind = RoleKind.GENERATOR

    def __init__(self, seed: int, name: str = "LevelController") -> None:
        super().__init__(name)
        self._rng = random.Random(seed ^ 0xC0FFEE)
        self._stubborn_until = -1.0

    def execute(self, context: RoleContext) -> RoleResult:
        level = context.state.require_world("level")
        if context.time < self._stubborn_until:
            return RoleResult(
                verdict=Verdict.INFO,
                data={"action": 0.0},
                narrative="holding the valve shut to conserve water",
            )
        if self._rng.random() < 0.01:
            self._stubborn_until = context.time + 4.0
            return RoleResult(
                verdict=Verdict.INFO,
                data={"action": 0.0},
                narrative="model says inflow will drop; closing the valve",
            )
        # Proportional control toward the 50 l setpoint.
        valve = max(0.0, min(1.0, 0.5 + (level - 50.0) * 0.04))
        return RoleResult(verdict=Verdict.INFO, data={"action": valve})


class SensorBiasInjector(Role):
    """Fault injection for this domain: bias the level sensor downward.

    A negative bias makes the tank *look* emptier than it is — the same
    blind-the-defender pattern as the paper's trajectory spoofing.
    """

    kind = RoleKind.FAULT_INJECTOR

    def __init__(self, environment: WaterTankEnvironment, bias: float = -12.0,
                 name: str = "SensorBiasInjector") -> None:
        super().__init__(name)
        self.environment = environment
        self.bias = bias

    def execute(self, context: RoleContext) -> RoleResult:
        if self.environment.sensor_bias != self.bias:
            self.environment.sensor_bias = self.bias
            context.metrics.record_fault(
                "sensor_bias", context.iteration, context.time,
                f"level sensor biased by {self.bias:+.1f} l",
            )
        return RoleResult(verdict=Verdict.INFO, data={"active_bias": self.bias})


class OverflowGuard(Role):
    """Recovery: force the valve open when the (perceived) level runs high."""

    kind = RoleKind.RECOVERY_PLANNER

    def __init__(self, threshold: float = 80.0, name: str = "OverflowGuard") -> None:
        super().__init__(name)
        self.threshold = threshold

    def execute(self, context: RoleContext) -> RoleResult:
        level = context.state.require_world("level")
        if level >= self.threshold:
            return RoleResult(
                verdict=Verdict.WARNING,
                data={"action": 1.0},
                narrative=f"level {level:.1f} l above {self.threshold:.0f} l — valve forced open",
            )
        return RoleResult(verdict=Verdict.PASS, data={"action": None})


def run(seed: int) -> None:
    environment = WaterTankEnvironment(seed=seed)
    graph = RoleGraph()
    graph.add(LevelController(seed))
    graph.add(
        STLSafetyMonitor(
            formula=f"G[0,1] (level >= {WaterTankEnvironment.SAFE_LOW} "
            f"& level <= {WaterTankEnvironment.SAFE_HIGH})",
            name="LevelMonitor",
        ),
        after=["LevelController"],
    )
    # The attack starts mid-run, scheduled by a plain trigger.
    graph.add(
        SensorBiasInjector(environment),
        after=["LevelMonitor"],
        trigger=After(20.0),
    )
    graph.add(OverflowGuard(), after=["SensorBiasInjector"])

    controller = OrchestrationController(
        graph, environment, OrchestratorConfig(max_iterations=environment.steps)
    )
    trail = []  # the evidence trail, collected by subscribing before the run
    controller.events.subscribe(trail.append)
    result = controller.run()
    print(build_report(result, events=trail,
                       title=f"Water-tank assurance report (seed {seed})"))


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
