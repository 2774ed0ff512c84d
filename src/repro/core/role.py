"""The Role abstraction: specialized agents of the assurance loop.

A :class:`Role` is "a specialized function within the V&V process ... an
abstract base class defining a standard interface" (§III.B.2).  Concrete
roles — generators, monitors, assessors, injectors, oracles, recovery
planners — subclass it and communicate exclusively through the
:class:`~repro.core.state.StateManager` via their :class:`RoleContext`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .metrics import DependabilityMetrics
    from .state import StateManager


class RoleKind(enum.Enum):
    """The predefined role families of the framework (§III.B.2)."""

    GENERATOR = "generator"
    SAFETY_MONITOR = "safety_monitor"
    SECURITY_ASSESSOR = "security_assessor"
    PERFORMANCE_ORACLE = "performance_oracle"
    FAULT_INJECTOR = "fault_injector"
    RECOVERY_PLANNER = "recovery_planner"
    CUSTOM = "custom"


class Verdict(enum.Enum):
    """Assessment outcome attached to a role result.

    ``PASS``/``WARNING``/``FAIL`` map onto the paper's safe/warning/unsafe
    vocabulary for monitors and ok/performance_fail for oracles; ``INFO``
    is for roles that produce data rather than judgements (generators,
    injectors).
    """

    INFO = "info"
    PASS = "pass"
    WARNING = "warning"
    FAIL = "fail"

    @property
    def is_violation(self) -> bool:
        return self is Verdict.FAIL


@dataclass
class RoleResult:
    """What a role hands back to the orchestrator for one iteration.

    Attributes:
        role_name: producing role (filled by the orchestrator if empty).
        verdict: the role's judgement for this iteration.
        data: structured outputs (e.g. the proposed action, active faults).
        scores: quantitative measures (robustness margins, timings, ...).
        narrative: human-readable explanation — for LLM generators this is
            where the chain-of-thought explanation travels (§IV.B).
    """

    role_name: str = ""
    verdict: Verdict = Verdict.INFO
    data: Dict[str, Any] = field(default_factory=dict)
    scores: Dict[str, float] = field(default_factory=dict)
    narrative: str = ""

    @staticmethod
    def ok(**data: Any) -> "RoleResult":
        """Convenience constructor for a passing result."""
        return RoleResult(verdict=Verdict.PASS, data=data)

    @staticmethod
    def violation(narrative: str = "", **data: Any) -> "RoleResult":
        """Convenience constructor for a failing result."""
        return RoleResult(verdict=Verdict.FAIL, data=data, narrative=narrative)


@dataclass
class RoleContext:
    """Everything a role may touch while executing.

    Roles interact indirectly: they read the world state and other roles'
    outputs from ``state`` and write through their returned
    :class:`RoleResult` (recorded by the orchestrator), keeping a
    "consistent view of the system state for all roles within an iteration"
    (§III.B.4).

    The orchestrator builds one context per iteration and hands it to
    every role of that iteration, setting ``deadline_ms`` to each role's
    own budget just before the role runs.  A role reads the context during
    :meth:`Role.execute` and does not keep it.

    Attributes:
        state: the shared state manager.
        metrics: the dependability metrics collector.
        iteration: current assurance-loop iteration (0-based).
        time: current simulated time in seconds.
        deadline_ms: wall-clock budget (milliseconds) the orchestrator's
            resilience layer grants the role now executing, or ``None``
            when deadlines are not enforced.  Roles with tunable depth
            (sample counts, search horizons) may consult it to stay in
            budget.
    """

    state: "StateManager"
    metrics: "DependabilityMetrics"
    iteration: int
    time: float
    deadline_ms: Optional[float] = None


class Role(abc.ABC):
    """Abstract base class all roles implement.

    Subclasses provide :meth:`execute`; the orchestrator guarantees it is
    called at most once per iteration, in dependency order, with the
    iteration's shared :class:`RoleContext` carrying this role's own
    ``deadline_ms``.
    """

    #: Role family; used by the orchestrator's decision logic (e.g. which
    #: results count as safety violations, which role provides recovery).
    kind: RoleKind = RoleKind.CUSTOM

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__

    @abc.abstractmethod
    def execute(self, context: RoleContext) -> RoleResult:
        """Run the role for one iteration and return its result.

        ``context`` is shared by every role of the iteration; read it
        here, and do not keep it past the call (its ``deadline_ms`` is
        reset for the next role).
        """

    def reset(self) -> None:
        """Clear per-run internal state; called at orchestration start."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind.value})"
