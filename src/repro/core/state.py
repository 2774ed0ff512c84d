"""The StateManager: the shared blackboard of the assurance loop.

Maintains (a) the current world state received from the environment
interface, (b) the outputs produced by roles in the current iteration and
(c) bounded historical state for temporal analysis (§III.B.4).  Roles never
talk to each other directly — everything flows through here, which is what
makes role implementations swappable.

The history is also the run's one per-tick store: post-hoc evidence (the
STL safety robustness, ``check_trace`` verdicts) is read from it through
:meth:`StateManager.run_history` once the run is over.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional

from .errors import StateError
from .role import RoleResult


@dataclass
class IterationRecord:
    """Frozen snapshot of one completed iteration, kept in history."""

    iteration: int
    time: float
    world_state: Dict[str, Any]
    outputs: Dict[str, RoleResult]
    executed_action: Any = None
    action_source: str = ""


class StateManager:
    """Shared state with per-iteration output scoping and bounded history.

    Args:
        history_limit: maximum completed iterations retained; older records
            are discarded (``None`` keeps everything — fine for the paper's
            run lengths, but bounded by default for long campaigns).
    """

    def __init__(self, history_limit: Optional[int] = 1000) -> None:
        self._world_state: Dict[str, Any] = {}
        self._outputs: Dict[str, RoleResult] = {}
        self._scratch: Dict[str, Any] = {}
        self._history: Deque[IterationRecord] = deque(maxlen=history_limit)
        self._iteration = -1
        self._time = 0.0

    # ------------------------------------------------------------------
    # iteration lifecycle (driven by the orchestrator)
    # ------------------------------------------------------------------
    @property
    def iteration(self) -> int:
        """Current iteration index (-1 before the loop starts)."""
        return self._iteration

    @property
    def time(self) -> float:
        """Simulated time of the current iteration (seconds)."""
        return self._time

    def begin_iteration(self, iteration: int, time: float) -> None:
        """Open a new iteration: clears per-iteration role outputs."""
        if iteration != self._iteration + 1:
            raise StateError(
                f"iterations must advance by one: at {self._iteration}, got {iteration}"
            )
        self._iteration = iteration
        self._time = time
        self._outputs = {}

    def finish_iteration(self, executed_action: Any, action_source: str) -> IterationRecord:
        """Close the iteration and archive it into history."""
        record = IterationRecord(
            iteration=self._iteration,
            time=self._time,
            world_state=dict(self._world_state),
            outputs=dict(self._outputs),
            executed_action=executed_action,
            action_source=action_source,
        )
        self._history.append(record)
        return record

    def reset(self) -> None:
        """Fresh run: drop world state, outputs, scratch and history."""
        self._world_state.clear()
        self._outputs.clear()
        self._scratch.clear()
        self._history.clear()
        self._iteration = -1
        self._time = 0.0

    # ------------------------------------------------------------------
    # world state (written by the environment interface)
    # ------------------------------------------------------------------
    def update_world_state(self, state: Dict[str, Any]) -> None:
        """Replace the current world snapshot (called once per iteration)."""
        self._world_state = dict(state)

    def world(self, key: str, default: Any = None) -> Any:
        """Read one world-state entry."""
        return self._world_state.get(key, default)

    def require_world(self, key: str) -> Any:
        """Read a world-state entry that must exist.

        Raises:
            StateError: when the environment interface did not provide it.
        """
        if key not in self._world_state:
            raise StateError(
                f"world state has no entry {key!r}; available: {sorted(self._world_state)}"
            )
        return self._world_state[key]

    def set_world(self, key: str, value: Any) -> None:
        """Overwrite one world-state entry.

        This is the hook fault injectors use to corrupt the *perceived*
        state all downstream roles consume (§IV.B): the injector rewrites
        e.g. the ``perception`` entry before the Generator reads it.
        """
        self._world_state[key] = value

    @property
    def world_state(self) -> Dict[str, Any]:
        """Copy of the full current world snapshot."""
        return dict(self._world_state)

    # ------------------------------------------------------------------
    # role outputs (current iteration)
    # ------------------------------------------------------------------
    def record_output(self, result: RoleResult) -> None:
        """Store a role's result for the current iteration."""
        if not result.role_name:
            raise StateError("RoleResult.role_name must be set before recording")
        self._outputs[result.role_name] = result

    def output_of(self, role_name: str) -> Optional[RoleResult]:
        """Result of ``role_name`` in the current iteration, if it ran."""
        return self._outputs.get(role_name)

    @property
    def outputs(self) -> Dict[str, RoleResult]:
        """All role outputs recorded so far in this iteration."""
        return dict(self._outputs)

    # ------------------------------------------------------------------
    # scratch space (cross-iteration role-private notes)
    # ------------------------------------------------------------------
    def remember(self, key: str, value: Any) -> None:
        """Persist a value across iterations (e.g. past actions and their
        chain-of-thought explanations, as the use case's running state does,
        §IV Fig. 3)."""
        self._scratch[key] = value

    def recall(self, key: str, default: Any = None) -> Any:
        """Read a remembered value."""
        return self._scratch.get(key, default)

    # ------------------------------------------------------------------
    # history
    # ------------------------------------------------------------------
    @property
    def history(self) -> List[IterationRecord]:
        """Archived iterations, oldest first."""
        return list(self._history)

    @property
    def last_record(self) -> Optional[IterationRecord]:
        """The newest archived iteration (``None`` before the first)."""
        return self._history[-1] if self._history else None

    def run_history(self) -> List[IterationRecord]:
        """Every archived iteration of the run, oldest first.

        Raises:
            StateError: when the history bound dropped the run's first
                iterations (the oldest record is not iteration 0), so the
                history no longer holds the whole run.
        """
        history = self._history
        if history and history[0].iteration != 0:
            raise StateError(
                f"history starts at iteration {history[0].iteration}, not 0: "
                f"history_limit={history.maxlen} dropped the run's first "
                "iterations; raise it to at least the run's max_iterations"
            )
        return list(history)

    def recent(self, count: int) -> Iterator[IterationRecord]:
        """The last ``count`` archived iterations, oldest first.

        ``recent(0)`` yields nothing and only the requested tail is copied.

        Raises:
            ValueError: for a negative ``count``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        tail = list(itertools.islice(reversed(self._history), count))
        tail.reverse()
        return iter(tail)
