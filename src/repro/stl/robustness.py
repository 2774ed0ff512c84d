"""Discrete-time quantitative (robustness) semantics for STL.

Given a uniformly sampled :class:`~repro.stl.signals.Trace`, ``evaluate``
computes the robustness degree of a formula at every sample step.  The sign
of the robustness is sound with respect to Boolean satisfaction: positive
means satisfied, negative means violated, zero is the boundary.

Truncated-trace conventions (matching common offline monitors):

* ``G`` over an empty window is vacuously true (``+inf``),
* ``F`` over an empty window is false (``-inf``),
* windows extending past the end of the trace are clipped to the trace.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, List

from .ast import (
    And,
    Atom,
    Eventually,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    Until,
)
from .signals import Trace


def evaluate(formula: Formula, trace: Trace) -> List[float]:
    """Robustness of ``formula`` at every step of ``trace``.

    Raises:
        KeyError: when the formula references a variable absent from the trace.
        ValueError: for an empty trace.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("cannot evaluate a formula on an empty trace")
    missing = formula.variables() - set(trace.variables)
    if missing:
        raise KeyError(
            f"formula references variables missing from trace: {sorted(missing)}"
        )
    return _eval(formula, trace)


def robustness(formula: Formula, trace: Trace, step: int = 0) -> float:
    """Robustness of ``formula`` at a single ``step`` (default: trace start)."""
    values = evaluate(formula, trace)
    if step < 0 or step >= len(values):
        raise IndexError(f"step {step} out of range for trace of length {len(values)}")
    return values[step]


def satisfied(formula: Formula, trace: Trace, step: int = 0) -> bool:
    """Boolean verdict at ``step``; the zero-robustness boundary counts as satisfied."""
    return robustness(formula, trace, step) >= 0.0


#: Magnitude that vacuous (±inf) robustness values clamp to at
#: serialization boundaries.  Matches the finite sentinel already used for
#: missing traces (`repro.search.objective.NO_TRACE_ROBUSTNESS`), so every
#: persisted robustness is a valid JSON number on the same scale.
ROBUSTNESS_CLAMP = 1.0e3


def finite_robustness(value: float, limit: float = ROBUSTNESS_CLAMP) -> float:
    """Clamp a robustness degree to ``[-limit, +limit]`` for serialization.

    Vacuous ``G`` yields ``+inf`` and unreachable ``F`` yields ``-inf``
    (see module docstring); JSON cannot carry either.  The sign — the part
    that is sound for satisfaction — survives the clamp.
    """
    if value > limit:
        return limit
    if value < -limit:
        return -limit
    return value


# ----------------------------------------------------------------------
# evaluation core
# ----------------------------------------------------------------------
def _eval(formula: Formula, trace: Trace) -> List[float]:
    n = len(trace)
    if isinstance(formula, Atom):
        return [
            formula.expr.evaluate({name: trace.value(name, i) for name in formula.expr.names()})
            for i in range(n)
        ]
    if isinstance(formula, Not):
        return [-v for v in _eval(formula.operand, trace)]
    if isinstance(formula, And):
        left = _eval(formula.left, trace)
        right = _eval(formula.right, trace)
        return [min(l, r) for l, r in zip(left, right)]
    if isinstance(formula, Or):
        left = _eval(formula.left, trace)
        right = _eval(formula.right, trace)
        return [max(l, r) for l, r in zip(left, right)]
    if isinstance(formula, Implies):
        left = _eval(formula.left, trace)
        right = _eval(formula.right, trace)
        return [max(-l, r) for l, r in zip(left, right)]
    if isinstance(formula, Globally):
        inner = _eval(formula.operand, trace)
        return _sliding_extreme(inner, formula.interval, trace.period, is_min=True)
    if isinstance(formula, Eventually):
        inner = _eval(formula.operand, trace)
        return _sliding_extreme(inner, formula.interval, trace.period, is_min=False)
    if isinstance(formula, Until):
        left = _eval(formula.left, trace)
        right = _eval(formula.right, trace)
        return _until(left, right, formula.interval, trace.period)
    raise TypeError(f"unknown formula node: {type(formula).__name__}")


def _sliding_extreme(
    values: List[float],
    interval: Interval,
    period: float,
    is_min: bool,
) -> List[float]:
    """Sliding min/max of ``values`` over the window ``[i+lo, i+hi]``.

    Uses a monotonic deque so the whole pass is O(n) for bounded windows.
    Empty windows yield ``+inf`` for min (vacuous G) and ``-inf`` for max
    (unreachable F).
    """
    n = len(values)
    lo_steps, hi_steps = interval.to_steps(period)
    empty = math.inf if is_min else -math.inf
    if hi_steps is None:
        # Unbounded: suffix fold from the end.
        fold: Callable[[float, float], float] = min if is_min else max
        out = [empty] * n
        running = empty
        suffix = [empty] * n
        for i in range(n - 1, -1, -1):
            running = fold(running, values[i])
            suffix[i] = running
        for i in range(n):
            start = i + lo_steps
            out[i] = suffix[start] if start < n else empty
        return out

    out = [empty] * n
    window: "deque[int]" = deque()  # indices, values monotonic
    better = (lambda a, b: a <= b) if is_min else (lambda a, b: a >= b)
    # For position i the window is [i+lo, min(i+hi, n-1)].  Advance a single
    # pointer over candidate indices as i increases.
    next_candidate = lo_steps
    for i in range(n):
        hi = i + hi_steps
        while next_candidate <= hi and next_candidate < n:
            value = values[next_candidate]
            while window and better(value, values[window[-1]]):
                window.pop()
            window.append(next_candidate)
            next_candidate += 1
        lo = i + lo_steps
        while window and window[0] < lo:
            window.popleft()
        if window:
            out[i] = values[window[0]]
    return out


def _until(
    left: List[float],
    right: List[float],
    interval: Interval,
    period: float,
) -> List[float]:
    """Robustness of ``left U[interval] right``.

    ``rho(i) = max_{j in [i+lo, i+hi]} min(right[j], min_{k in [i, j)} left[k])``
    with the window clipped to the trace; an empty window yields ``-inf``.
    Unbounded until uses the standard backward fixpoint recursion.
    """
    n = len(left)
    lo_steps, hi_steps = interval.to_steps(period)

    if hi_steps is None and lo_steps == 0:
        out = [-math.inf] * n
        future = -math.inf
        for i in range(n - 1, -1, -1):
            future = max(right[i], min(left[i], future))
            out[i] = future
        return out

    out = [-math.inf] * n
    for i in range(n):
        hi = n - 1 if hi_steps is None else min(i + hi_steps, n - 1)
        best = -math.inf
        guard = math.inf  # min of left over [i, j)
        for j in range(i, hi + 1):
            if j >= i + lo_steps:
                best = max(best, min(right[j], guard))
            guard = min(guard, left[j])
        out[i] = best
    return out
