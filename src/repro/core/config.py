"""Orchestrator configuration.

Everything that tunes the assurance loop without changing code lives here;
a role's own settings are its constructor arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError
from .resilience import ResilienceConfig


@dataclass
class OrchestratorConfig:
    """Settings for one orchestration run.

    Attributes:
        max_iterations: hard cap on assurance-loop iterations (termination
            criterion per §III.B.1); ``None`` means run until the
            environment reports done.
        halt_on_violation: stop the loop the first time any role reports a
            FAIL verdict (the paper's "violation detected" termination
            option).  Default off: the use case keeps running and lets the
            RecoveryPlanner act.
        continue_on_role_error: when True, a raising role is logged as a
            ``role_error`` violation and the loop continues; when False the
            error propagates as :class:`~repro.core.errors.RoleExecutionError`.
        history_limit: StateManager history bound (iterations).  The
            history is the run's one per-tick store (the event bus keeps
            nothing; subscribe to ``controller.events`` to collect
            events).  Evidence read from it after a run (STL robustness,
            ``check_trace`` verdicts) needs the whole run, so keep it at least
            ``max_iterations``; reading a history that lost its first
            iterations raises.
        resilience: containment policy wrapped around role execution —
            per-role deadline budgets, Generator retry/circuit-breaker
            with a fallback role, and the action-hold that replaces
            ``apply_action(None)``.  ``None`` (the default) disables the
            whole layer and preserves the legacy loop behaviour.  See
            :class:`~repro.core.resilience.ResilienceConfig`.
    """

    max_iterations: Optional[int] = 2000
    halt_on_violation: bool = False
    continue_on_role_error: bool = False
    history_limit: Optional[int] = 2000
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be positive or None, got {self.max_iterations}"
            )
        if self.history_limit is not None and self.history_limit <= 0:
            raise ConfigurationError(
                f"history_limit must be positive or None, got {self.history_limit}"
            )
