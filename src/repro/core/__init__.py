"""Core orchestration framework: the paper's primary contribution.

Exports the multi-role assurance loop — controller, role abstraction,
state manager, scheduling, triggers, metrics, events and reporting.
"""

from .config import OrchestratorConfig
from .errors import (
    ConfigurationError,
    DuraCPSError,
    EnvironmentInterfaceError,
    ResilienceError,
    RoleExecutionError,
    SchedulingError,
    StateError,
)
from .events import Event, EventBus, EventKind
from .metrics import (
    DependabilityMetrics,
    FaultRecord,
    RecoveryRecord,
    RoleHealthRecord,
    ViolationRecord,
)
from .orchestrator import (
    ACTION_KEY,
    OrchestrationController,
    OrchestrationResult,
    TerminationReason,
)
from .report import build_report
from .resilience import (
    ActionHold,
    BreakerState,
    CircuitBreaker,
    ResilienceConfig,
    ResilienceCoordinator,
)
from .role import Role, RoleContext, RoleKind, RoleResult, Verdict
from .scheduling import RoleGraph, ScheduledRole
from .state import IterationRecord, StateManager
from .triggers import (
    After,
    Always,
    Never,
    OnVerdict,
    OnWorldState,
    Periodic,
    Trigger,
)

__all__ = [
    "OrchestrationController",
    "OrchestrationResult",
    "TerminationReason",
    "ACTION_KEY",
    "OrchestratorConfig",
    "Role",
    "RoleContext",
    "RoleKind",
    "RoleResult",
    "Verdict",
    "RoleGraph",
    "ScheduledRole",
    "StateManager",
    "IterationRecord",
    "DependabilityMetrics",
    "ViolationRecord",
    "FaultRecord",
    "RecoveryRecord",
    "RoleHealthRecord",
    "ResilienceConfig",
    "ResilienceCoordinator",
    "CircuitBreaker",
    "BreakerState",
    "ActionHold",
    "Event",
    "EventBus",
    "EventKind",
    "Trigger",
    "Always",
    "Never",
    "Periodic",
    "After",
    "OnVerdict",
    "OnWorldState",
    "build_report",
    "DuraCPSError",
    "ConfigurationError",
    "ResilienceError",
    "SchedulingError",
    "RoleExecutionError",
    "EnvironmentInterfaceError",
    "StateError",
]
