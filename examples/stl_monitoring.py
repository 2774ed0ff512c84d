#!/usr/bin/env python3
"""STL monitoring demo: formal specs over live runs and their history.

Shows both faces of the :mod:`repro.stl` substrate (the paper's RTAMT
integration point, §III.B.2):

1. **In the loop** — an :class:`~repro.roles.safety_monitor.STLSafetyMonitor`
   replaces the geometric monitor inside the orchestrator.
2. **Post hoc** — the finished run's history is re-checked offline against
   several STL properties, robustness values and all.

Run::

    python examples/stl_monitoring.py
"""

from repro import (
    OrchestrationController,
    OrchestratorConfig,
    RoleGraph,
    ScenarioType,
    build_scenario,
)
from repro.env import IntersectionSimInterface
from repro.roles import EmergencyBrakeRecovery, LLMGeneratorRole, STLSafetyMonitor
from repro.stl import Trace, evaluate, parse


def run_with_stl_monitor(seed: int = 0):
    spec = build_scenario(ScenarioType.GHOST_ATTACK, seed)
    environment = IntersectionSimInterface(spec)
    roles = [
        LLMGeneratorRole(name="Generator"),
        STLSafetyMonitor(
            formula="G[0,0.5] (min_separation >= 1.0 | ego_speed <= 0.5)",
            name="SafetyMonitor",
        ),
        EmergencyBrakeRecovery(name="RecoveryPlanner"),
    ]
    controller = OrchestrationController(
        RoleGraph.sequential(roles),
        environment,
        OrchestratorConfig(max_iterations=int(spec.timeout_s / 0.1) + 10),
    )
    result = controller.run()
    return result, controller.state


def main() -> None:
    print("1) Online STL monitoring inside the assurance loop")
    result, state = run_with_stl_monitor()
    stl_flags = result.metrics.violations_of("safety")
    print(f"   iterations            : {result.iterations}")
    print(f"   STL property failures : {len(stl_flags)}")
    if stl_flags:
        print(f"   first failure         : {stl_flags[0].detail}")

    print("\n2) Offline robustness over the recorded trace")
    records = [
        {
            "min_separation": record.world_state["min_separation"],
            "ego_speed": record.world_state["ego_speed"],
        }
        for record in state.run_history()
    ]
    trace = Trace.from_records(records, period=0.1)

    properties = {
        "always separated or stopped": "G (min_separation >= 1.0 | ego_speed <= 0.5)",
        "eventually moving again": "F[0,30] (ego_speed >= 3.0)",
        "no permanent standstill": "G[0,20] F[0,10] (ego_speed >= 0.5)",
        "separation never catastrophic": "G (min_separation >= 0.2)",
    }
    for label, text in properties.items():
        formula = parse(text)
        robustness = evaluate(formula, trace)[0]
        verdict = "SAT" if robustness >= 0 else "VIOLATED"
        print(f"   {label:32s} rho={robustness:+7.2f}  {verdict}   [{text}]")


if __name__ == "__main__":
    main()
