"""The falsification objective: STL robustness of one candidate run.

A candidate is a parameter vector in one family's
:class:`~repro.search.space.SearchSpace`; its score is the minimum
robustness of the whole-run safety envelope
(:data:`~repro.analysis.trace_checks.SAFETY_FORMULA`) over the run's
world-state history.  Negative robustness = the safety spec was
violated = the candidate is a counterexample.

:func:`execute_search_unit` is the module-level (picklable) engine worker
entry, so candidate evaluations fan out over :mod:`repro.exec` exactly
like campaign runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from ..analysis.trace_checks import safety_robustness
from ..core.orchestrator import OrchestrationResult
from ..core.state import StateManager
from ..exec import WorkUnit, fingerprint
from ..experiments.campaign import CampaignOptions, build_controller
from ..obs.trace import TraceRecorder, unit_trace_path
from ..sim.scenario import ScenarioSpec
from ..stl import finite_robustness
from .space import Params, get_space

#: Robustness reported for a run that archived no iteration (terminated
#: before the first one); large-positive = "vacuously safe", kept
#: finite so every artifact stays strict-JSON.
NO_TRACE_ROBUSTNESS = 1.0e3


@dataclass
class Evaluation:
    """One scored candidate — everything the driver and corpus need."""

    key: str
    family: str
    params: Dict[str, float]
    run_seed: int
    robustness: float
    collision: bool
    gridlocked: bool
    timed_out: bool
    monitor_flagged: bool
    recovery_activations: int
    iterations: int
    reason: str

    @property
    def falsified(self) -> bool:
        return self.robustness < 0.0


def run_spec(
    spec: ScenarioSpec,
    options: Optional[CampaignOptions] = None,
    *,
    trace: "str | Path | None" = None,
    trace_id: Optional[str] = None,
) -> "Tuple[OrchestrationResult, StateManager]":
    """Run an explicit spec through the full assurance loop.

    The campaign's :func:`~repro.experiments.campaign.run_once` builds its
    spec from ``(scenario_type, seed)``; search candidates and corpus
    replays arrive as already-built specs, and this is their one run
    path.  Returns the orchestration result and the run's state manager,
    whose history holds the STL evidence.
    """
    controller = build_controller(spec, options)
    recorder: Optional[TraceRecorder] = None
    if trace is not None:
        recorder = TraceRecorder(
            trace,
            trace_id=trace_id or spec.name,
            meta={"scenario": spec.scenario_type.value, "seed": spec.seed},
        ).attach(controller)
    try:
        result = controller.run()
    except BaseException:
        if recorder is not None:  # pragma: no cover - crash still yields a trace
            recorder.finalize()
        raise
    if recorder is not None:
        result.metrics.mark_recovery_outcomes(
            prevented_collision=not result.environment_info["collision"]
        )
        recorder.finalize(result.metrics)
    return result, controller.state


def evaluate_spec(
    key: str,
    family: str,
    params: Mapping[str, float],
    spec: ScenarioSpec,
    options: Optional[CampaignOptions] = None,
    *,
    trace: "str | Path | None" = None,
) -> Evaluation:
    """Run and score one candidate spec."""
    result, state = run_spec(spec, options, trace=trace, trace_id=key)
    return score_run(key, family, params, spec, result, state)


def score_run(
    key: str,
    family: str,
    params: Mapping[str, float],
    spec: ScenarioSpec,
    result: OrchestrationResult,
    state: StateManager,
) -> Evaluation:
    """Score one finished run of ``spec`` with the safety-robustness
    objective."""
    if state.last_record is not None:
        robustness = safety_robustness(state)
    else:  # pragma: no cover - the orchestrator always completes >= 1 tick
        robustness = NO_TRACE_ROBUSTNESS
    info = result.environment_info
    metrics = result.metrics
    return Evaluation(
        key=key,
        family=family,
        params={name: float(value) for name, value in params.items()},
        run_seed=spec.seed,
        # Vacuous formulas evaluate to +/-inf; clamp so every corpus entry
        # and journal record stays a strict JSON number.
        robustness=finite_robustness(float(robustness)),
        collision=bool(info["collision"]),
        gridlocked=bool(info["gridlocked"]),
        timed_out=bool(info["timed_out"]),
        monitor_flagged=bool(metrics.violations_of("safety")),
        recovery_activations=metrics.recovery_activation_count,
        iterations=result.iterations,
        reason=result.reason.value,
    )


# ----------------------------------------------------------------------
# engine plumbing
# ----------------------------------------------------------------------
def candidate_key(family: str, search_seed: int, ordinal: int, params: Params) -> str:
    """Journal/resume identity of one evaluation.

    The ordinal makes repeated identical vectors distinct units; the
    params fingerprint makes a *changed* candidate at the same ordinal
    (different search config) miss the journal cache instead of silently
    replaying a stale result.
    """
    digest = fingerprint(tuple(sorted(params.items())))
    return f"search:{family}:{search_seed}:{ordinal:05d}:{digest}"


def search_unit(
    key: str,
    family: str,
    params: Params,
    run_seed: int,
    options: Optional[CampaignOptions],
    trace_dir: "str | Path | None" = None,
) -> WorkUnit:
    """One schedulable candidate evaluation as an engine work unit."""
    return WorkUnit(
        key=key,
        payload=(
            key,
            family,
            dict(params),
            run_seed,
            options,
            str(trace_dir) if trace_dir is not None else None,
        ),
    )


def execute_search_unit(payload: "Tuple") -> Evaluation:
    """Engine worker entry: evaluate one candidate (module-level, picklable)."""
    key, family, params, run_seed, options, trace_dir = payload
    space = get_space(family)
    spec = space.to_spec(params, run_seed)
    trace = unit_trace_path(trace_dir, key) if trace_dir is not None else None
    return evaluate_spec(key, family, params, spec, options, trace=trace)


def encode_evaluation(evaluation: Evaluation) -> Dict[str, Any]:
    return dataclasses.asdict(evaluation)


def decode_evaluation(data: Dict[str, Any]) -> Evaluation:
    return Evaluation(**data)
