"""Offline trace verification: STL properties over recorded runs.

Bridges recorded runs and the STL engine: given a run and a dictionary of
named STL properties over its numeric world-state signals, compute the
robustness of each property — the post-hoc, assurance-case half of runtime
verification (the in-loop half is
:class:`~repro.roles.safety_monitor.STLSafetyMonitor`).

A run is either a list of :class:`~repro.env.recording.TraceFrame` (a
saved or replayed recording) or, for a run that just finished in this
process, its :class:`~repro.core.state.StateManager`: the history is the
run's one per-tick store, and :func:`safety_robustness` reads its signals
straight from it without building frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Union

from ..core.state import StateManager
from ..env.recording import TraceFrame
from ..stl import Formula, Trace, evaluate, parse

#: The canonical whole-run safety envelope: at every instant the ego is
#: either clear of every perceived object by >= 1 m or essentially
#: stationary.  The unbounded ``G`` makes the step-0 robustness the
#: *minimum* margin over the run — the quantity the campaign surfaces per
#: run and :mod:`repro.search` minimizes to falsify the stack.  (The
#: in-loop :class:`~repro.roles.safety_monitor.STLSafetyMonitor` checks the
#: same predicate over a bounded look-ahead window.)
SAFETY_FORMULA = "G (min_separation >= 1.0 | ego_speed <= 0.5)"

#: A recorded run: frames, or a finished run's state manager.
RecordedRun = Union[Sequence[TraceFrame], StateManager]


def safety_robustness(run: RecordedRun, period: float = 0.1) -> float:
    """Minimum robustness of :data:`SAFETY_FORMULA` over a recorded run.

    From a :class:`~repro.core.state.StateManager` the two signals are
    read straight from its history, with the strictness of
    :func:`frames_to_trace`; a history that lost the run's first
    iterations raises :class:`~repro.core.errors.StateError`.

    Negative means the safety envelope was violated at some instant —
    the run is a counterexample.
    """
    formula = parse(SAFETY_FORMULA)
    return evaluate(formula, _run_trace(run, sorted(formula.variables()), period))[0]


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of checking one property against a recorded trace."""

    name: str
    formula: str
    robustness: float

    @property
    def satisfied(self) -> bool:
        return self.robustness >= 0.0

    def __str__(self) -> str:
        verdict = "SAT" if self.satisfied else "VIOLATED"
        return f"{self.name}: rho={self.robustness:+.3f} {verdict} [{self.formula}]"


def frames_to_trace(
    frames: Sequence[TraceFrame],
    variables: Sequence[str],
    period: float = 0.1,
) -> Trace:
    """Extract the named numeric signals from recorded frames.

    Raises:
        KeyError: when a frame lacks one of the requested variables.
        ValueError: empty input.
    """
    if not frames:
        raise ValueError("cannot build a trace from zero frames")
    return _trace((frame.world for frame in frames), "frame", variables, period)


def _run_trace(run: RecordedRun, variables: Sequence[str], period: float) -> Trace:
    """:func:`frames_to_trace`, or for a state manager the same signals
    with the same strictness read straight from its history.

    Raises:
        StateError: the history lost the run's first iterations
            (:meth:`~repro.core.state.StateManager.run_history`).
    """
    if not isinstance(run, StateManager):
        return frames_to_trace(run, variables, period)
    records = run.run_history()
    if not records:
        raise ValueError("cannot build a trace from an empty history")
    return _trace((record.world_state for record in records), "iteration", variables, period)


def _trace(
    worlds: Iterable[Mapping[str, Any]],
    unit: str,
    variables: Sequence[str],
    period: float,
) -> Trace:
    signals: Dict[str, List[float]] = {name: [] for name in variables}
    for index, world in enumerate(worlds):
        for name in variables:
            if name not in world:
                raise KeyError(f"{unit} {index} has no signal {name!r}")
            value = world[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise KeyError(f"signal {name!r} is not numeric in {unit} {index}")
            signals[name].append(float(value))
    return Trace(period=period, signals=signals)


def check_trace(
    frames: Sequence[TraceFrame],
    properties: Mapping[str, Union[str, Formula]],
    period: float = 0.1,
) -> List[PropertyVerdict]:
    """Evaluate named STL properties against a recorded run.

    Args:
        frames: a recorded run (from :class:`~repro.env.recording.TraceRecorder`).
        properties: property name -> STL text (or parsed formula) over the
            frames' numeric world-state keys.
        period: sampling period of the recording (the 100 ms tick).

    Returns:
        One :class:`PropertyVerdict` per property, evaluated at the start
        of the trace, in input order.
    """
    verdicts: List[PropertyVerdict] = []
    for name, spec in properties.items():
        formula = parse(spec) if isinstance(spec, str) else spec
        trace = frames_to_trace(frames, sorted(formula.variables()), period=period)
        robustness = evaluate(formula, trace)[0]
        verdicts.append(
            PropertyVerdict(name=name, formula=str(spec), robustness=robustness)
        )
    return verdicts


def summarize(verdicts: Sequence[PropertyVerdict]) -> str:
    """Plain-text summary block for assurance reports."""
    lines = ["Offline property check", "----------------------"]
    lines += [str(v) for v in verdicts]
    violated = sum(1 for v in verdicts if not v.satisfied)
    lines.append(f"{len(verdicts) - violated}/{len(verdicts)} properties satisfied")
    return "\n".join(lines)
