"""Trace recording and replay for orchestration runs.

Builds a compact per-iteration trace — numeric world state, executed
action, role verdicts — from an orchestrator's state-manager history,
which can be serialized to JSON Lines and replayed for post-hoc analysis
(e.g. feeding offline STL evaluation).

The history is the run's one per-tick store (§III.B.4): a recorder
subscribes to nothing and copies nothing while the run executes; it
builds its frames from the history when they are read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Union

from ..jsonutil import dumps as strict_dumps

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> env import cycle
    from ..core.orchestrator import OrchestrationController
    from ..core.state import StateManager


def _json_safe(value: Any) -> Any:
    """Coerce a world-state value into something JSON-serializable."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    enum_value = getattr(value, "value", None)
    if isinstance(enum_value, (str, int)):
        return enum_value
    return repr(value)


@dataclass
class TraceFrame:
    """One recorded iteration."""

    iteration: int
    time: float
    world: Dict[str, Any] = field(default_factory=dict)
    action: Any = None
    action_source: str = ""
    verdicts: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return strict_dumps(
            {
                "iteration": self.iteration,
                "time": self.time,
                "world": {k: _json_safe(v) for k, v in self.world.items()},
                "action": _json_safe(self.action),
                "action_source": self.action_source,
                "verdicts": self.verdicts,
            }
        )

    @staticmethod
    def from_json(line: str) -> "TraceFrame":
        raw = json.loads(line)
        return TraceFrame(
            iteration=raw["iteration"],
            time=raw["time"],
            world=raw["world"],
            action=raw["action"],
            action_source=raw["action_source"],
            verdicts=raw["verdicts"],
        )


class TraceRecorder:
    """Per-iteration frames of a run, built from its state manager's history.

    Usage::

        controller = OrchestrationController(...)
        recorder = TraceRecorder.attach(controller)
        controller.run()
        recorder.save("run.jsonl")

    The recorder holds the state manager, not the controller, so a finished
    controller is freed by reference counting once its caller drops it, and
    :attr:`frames` always describes the state manager's latest run.
    """

    #: World-state keys excluded from frames (non-numeric heavyweights).
    EXCLUDED_KEYS = frozenset({"perception", "ego_route"})

    def __init__(self, state: "StateManager") -> None:
        self._state = state

    @classmethod
    def attach(cls, controller: "OrchestrationController") -> "TraceRecorder":
        """Create a recorder over ``controller``'s state-manager history."""
        return cls(controller.state)

    @property
    def frames(self) -> List[TraceFrame]:
        """One frame per archived iteration, oldest first.

        Raises:
            StateError: when the history bound dropped the run's first
                iterations (see :meth:`~repro.core.state.StateManager.run_history`).
        """
        excluded = self.EXCLUDED_KEYS
        return [
            TraceFrame(
                iteration=record.iteration,
                time=record.time,
                world={
                    k: v for k, v in record.world_state.items() if k not in excluded
                },
                action=record.executed_action,
                action_source=record.action_source,
                verdicts={
                    name: result.verdict.value for name, result in record.outputs.items()
                },
            )
            for record in self._state.run_history()
        ]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON Lines."""
        path = Path(path)
        with path.open("w") as handle:
            for frame in self.frames:
                handle.write(frame.to_json() + "\n")

    @staticmethod
    def load(path: Union[str, Path]) -> List[TraceFrame]:
        """Read a JSON Lines trace back into frames."""
        frames: List[TraceFrame] = []
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    frames.append(TraceFrame.from_json(line))
        return frames

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def signal(self, key: str) -> List[float]:
        """Numeric world-state series across frames (missing -> skipped)."""
        series: List[float] = []
        for frame in self.frames:
            value = frame.world.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.append(float(value))
        return series

    def actions(self) -> List[Any]:
        return [frame.action for frame in self.frames]
