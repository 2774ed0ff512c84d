"""DURA-CPS / CPS-Guard: multi-role orchestration for dependability
assurance of AI-enabled cyber-physical systems.

A from-scratch reproduction of the DSN'25 paper (see DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results).

Quickstart::

    from repro import run_once, ScenarioType

    outcome = run_once(ScenarioType.GHOST_ATTACK, seed=0)
    print(outcome.monitor_flagged, outcome.clearance_time)

Package map:

* :mod:`repro.core` — the orchestration framework (the paper's contribution).
* :mod:`repro.roles` — the predefined V&V role library.
* :mod:`repro.sim` — the intersection micro-simulator (CARLA substitute).
* :mod:`repro.llm` — the surrogate LLM tactical planner (Llama substitute).
* :mod:`repro.stl` — signal temporal logic monitoring (RTAMT substitute).
* :mod:`repro.env` — environment interfaces (the simulator binding).
* :mod:`repro.exec` — parallel campaign execution (pool, journal, resume).
* :mod:`repro.obs` — observability: traces, telemetry, metrics, the trace index.
* :mod:`repro.search` — coverage-guided scenario search & STL falsification.
* :mod:`repro.experiments` — the paper's evaluation harness.
* :mod:`repro.analysis` — aggregation and rendering utilities.
"""

from .core import (
    DependabilityMetrics,
    EventBus,
    OrchestrationController,
    OrchestrationResult,
    OrchestratorConfig,
    Role,
    RoleContext,
    RoleGraph,
    RoleKind,
    RoleResult,
    StateManager,
    TerminationReason,
    Verdict,
    build_report,
)
from .env import EnvironmentInterface, IntersectionSimInterface
from .experiments import CampaignOptions, RunOutcome, build_controller, run_once, run_suite
from .sim import Maneuver, ScenarioType, World, build_scenario

__version__ = "1.0.0"

__all__ = [
    "OrchestrationController",
    "OrchestrationResult",
    "OrchestratorConfig",
    "TerminationReason",
    "Role",
    "RoleContext",
    "RoleResult",
    "RoleKind",
    "RoleGraph",
    "Verdict",
    "StateManager",
    "DependabilityMetrics",
    "EventBus",
    "build_report",
    "EnvironmentInterface",
    "IntersectionSimInterface",
    "ScenarioType",
    "Maneuver",
    "World",
    "build_scenario",
    "CampaignOptions",
    "RunOutcome",
    "build_controller",
    "run_once",
    "run_suite",
    "__version__",
]
