"""Offline trace verification: STL properties over finished runs.

Bridges finished runs and the STL engine: given a run's
:class:`~repro.core.state.StateManager` and a dictionary of named STL
properties over its numeric world-state signals, compute the robustness
of each property — the post-hoc, assurance-case half of runtime
verification (the in-loop half is
:class:`~repro.roles.safety_monitor.STLSafetyMonitor`).  The history is
the run's one per-tick store (§III.B.4); the signals are read straight
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Union

from ..core.state import StateManager
from ..stl import Formula, Trace, evaluate, parse

#: The canonical whole-run safety envelope: at every instant the ego is
#: either clear of every perceived object by >= 1 m or essentially
#: stationary.  The unbounded ``G`` makes the step-0 robustness the
#: *minimum* margin over the run — the quantity the campaign surfaces per
#: run and :mod:`repro.search` minimizes to falsify the stack.  (The
#: in-loop :class:`~repro.roles.safety_monitor.STLSafetyMonitor` checks the
#: same predicate over a bounded look-ahead window.)
SAFETY_FORMULA = "G (min_separation >= 1.0 | ego_speed <= 0.5)"


def safety_robustness(state: StateManager, period: float = 0.1) -> float:
    """Minimum robustness of :data:`SAFETY_FORMULA` over a finished run.

    The two signals are read from ``state``'s history with the
    strictness of :func:`check_trace`.

    Negative means the safety envelope was violated at some instant —
    the run is a counterexample.
    """
    formula = parse(SAFETY_FORMULA)
    return evaluate(formula, _history_trace(state, sorted(formula.variables()), period))[0]


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of checking one property against a finished run."""

    name: str
    formula: str
    robustness: float

    @property
    def satisfied(self) -> bool:
        return self.robustness >= 0.0

    def __str__(self) -> str:
        verdict = "SAT" if self.satisfied else "VIOLATED"
        return f"{self.name}: rho={self.robustness:+.3f} {verdict} [{self.formula}]"


def _history_trace(
    state: StateManager, variables: Sequence[str], period: float
) -> Trace:
    """The named numeric signals of a finished run, one sample per
    archived iteration.

    Raises:
        StateError: the history lost the run's first iterations
            (:meth:`~repro.core.state.StateManager.run_history`).
        ValueError: the history is empty.
        KeyError: an iteration lacks a variable, or holds a non-numeric
            value for it.
    """
    records = state.run_history()
    if not records:
        raise ValueError("cannot build a trace from an empty history")
    signals: Dict[str, List[float]] = {name: [] for name in variables}
    for record in records:
        world = record.world_state
        for name in variables:
            if name not in world:
                raise KeyError(f"iteration {record.iteration} has no signal {name!r}")
            value = world[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise KeyError(
                    f"signal {name!r} is not numeric in iteration {record.iteration}"
                )
            signals[name].append(float(value))
    return Trace(period=period, signals=signals)


def check_trace(
    state: StateManager,
    properties: Mapping[str, Union[str, Formula]],
    period: float = 0.1,
) -> List[PropertyVerdict]:
    """Evaluate named STL properties against a finished run.

    Args:
        state: the run's state manager; its history holds the run.
        properties: property name -> STL text (or parsed formula) over the
            history's numeric world-state keys.
        period: sampling period of the run (the 100 ms tick).

    Returns:
        One :class:`PropertyVerdict` per property, evaluated at the start
        of the trace, in input order.
    """
    verdicts: List[PropertyVerdict] = []
    for name, spec in properties.items():
        formula = parse(spec) if isinstance(spec, str) else spec
        trace = _history_trace(state, sorted(formula.variables()), period)
        robustness = evaluate(formula, trace)[0]
        verdicts.append(
            PropertyVerdict(name=name, formula=str(spec), robustness=robustness)
        )
    return verdicts
