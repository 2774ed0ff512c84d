"""Campaign wiring: build and run the paper's use-case configuration.

:func:`build_controller` assembles the exact role stack of §IV.B.2 —
Generator, SafetyMonitor, SecurityAssessor, FaultInjector (conditional),
PerformanceOracle, RecoveryPlanner — over the intersection simulator, and
:func:`run_once` / :func:`run_suite` execute seeded scenario runs and
distil each into a :class:`RunOutcome` (the per-run facts Tables/Figures
aggregate).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import (
    OrchestrationController,
    OrchestratorConfig,
    ResilienceConfig,
    RoleGraph,
)
from ..env.sim_interface import IntersectionSimInterface
from ..exec import (
    ExecutionOptions,
    ExecutionReport,
    ProgressHook,
    WorkUnit,
    add_execution_args,
    fingerprint,
)
from ..jsonutil import dumps as strict_dumps
from ..llm.planner import LLMPlanner
from ..llm.surrogate import SurrogateConfig
from ..obs.trace import TraceRecorder, unit_trace_path
from ..roles.fault_injector import FaultInjectorRole, FaultPipeline
from ..roles.generator import LLMGeneratorRole, RuleBasedPlannerRole
from ..roles.performance_oracle import IntersectionPerformanceOracle
from ..roles.recovery_planner import EmergencyBrakeRecovery, ReplanRecovery
from ..roles.registry import create_fallback
from ..roles.safety_monitor import GeometricSafetyMonitor
from ..roles.security_assessor import ScriptedSecurityAssessor
from ..sim.actions import Maneuver
from ..sim.scenario import AttackKind, ScenarioSpec, ScenarioType, build_scenario

#: The paper's per-scenario seed set (15 runs per scenario, §V).  Every
#: experiment module shares this one definition.
DEFAULT_SEEDS: Tuple[int, ...] = tuple(range(15))


def normalized_field_values(cls: type, data: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce a plain dict's values to a dataclass's declared field types.

    JSON has one number type, so ``100`` arriving for a ``float`` field
    must become ``100.0`` — otherwise ``repr``-based digests (journal
    keys, spec fingerprints) differ between a CLI-built and a
    JSON-decoded instance of the *same* configuration.  Unknown keys
    raise ``ValueError``.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {unknown} (known: {sorted(fields)})"
        )
    normalized: Dict[str, Any] = {}
    for name, value in data.items():
        declared = str(fields[name].type)
        if (
            value is not None
            and "float" in declared
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            value = float(value)
        normalized[name] = value
    return normalized


@dataclass(frozen=True)
class CampaignOptions:
    """Knobs the experiments vary.

    Attributes:
        use_recovery: include a RecoveryPlanner (the §V.D ablation).
        recovery_strategy: ``"brake"`` (the paper's emergency brake) or
            ``"replan"`` (the graded strategy §V.D motivates as future work).
        planner: ``"llm"`` (surrogate) or ``"rule"`` (baseline).
        surrogate_config: overrides for the surrogate's behaviour model.
        monitor_horizon_s: SafetyMonitor look-ahead (ablation 2).
        halt_on_violation: stop the loop at the first FAIL verdict.
        deadline_ms: optional per-role wall-clock budget derived from the
            100 ms control step; overruns become ``performance``
            violations.  ``None`` disables deadline enforcement (keeps
            runs deterministic regardless of host load).
        breaker: guard the Generator with retry + circuit breaker that
            degrades to the rule-based fallback planner after repeated
            failures.
        crash_window: ``(start, stop)`` iteration interval in which the
            LLM Generator raises (injected outage) — the resilience
            experiments' fault source.  Ignored for the rule planner.
        continue_on_role_error: tolerate raising roles as ``role_error``
            violations instead of aborting the run (required to observe
            the no-breaker arm of the degradation ablation).
    """

    use_recovery: bool = True
    recovery_strategy: str = "brake"
    planner: str = "llm"
    surrogate_config: Optional[SurrogateConfig] = None
    monitor_horizon_s: float = 1.0
    halt_on_violation: bool = False
    deadline_ms: Optional[float] = None
    breaker: bool = False
    crash_window: Optional[Tuple[int, int]] = None
    continue_on_role_error: bool = False

    # ------------------------------------------------------------------
    # plain-dict constructors (shared by the CLIs and the service's JSON
    # payloads — argparse handlers and HTTP submissions build the *same*
    # options object, so journal keys and reports agree between them)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; :meth:`from_dict` round-trips it exactly."""
        data = dataclasses.asdict(self)
        if self.crash_window is not None:
            data["crash_window"] = list(self.crash_window)
        return data

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "CampaignOptions":
        """Build options from a plain (e.g. JSON-decoded) dict.

        Values are normalized to the exact field types the CLI path
        produces — ``100`` becomes ``100.0`` for float fields, lists
        become tuples — so the options digest (and therefore every
        journal key) is identical however the options were constructed.
        Unknown keys raise ``ValueError`` (a typo must not silently run
        a different campaign).
        """
        data = dict(data or {})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown campaign option(s) {unknown} (known: {sorted(known)})"
            )
        surrogate = data.get("surrogate_config")
        if surrogate is not None and not isinstance(surrogate, SurrogateConfig):
            data["surrogate_config"] = SurrogateConfig(
                **normalized_field_values(SurrogateConfig, surrogate)
            )
        window = data.get("crash_window")
        if window is not None:
            if len(window) != 2:
                raise ValueError(
                    f"crash_window must be a (start, stop) pair, got {window!r}"
                )
            data["crash_window"] = (int(window[0]), int(window[1]))
        for field_name in ("monitor_horizon_s", "deadline_ms"):
            if data.get(field_name) is not None:
                data[field_name] = float(data[field_name])
        for field_name in (
            "use_recovery", "halt_on_violation", "breaker", "continue_on_role_error"
        ):
            if field_name in data:
                data[field_name] = bool(data[field_name])
        return cls(**data)


@dataclass
class RunOutcome:
    """Everything one seeded run contributes to the paper's artifacts."""

    scenario: str
    seed: int
    monitor_flagged: bool
    safety_flag_count: int
    collision: bool
    clearance_time: Optional[float]
    gridlocked: bool
    timed_out: bool
    recovery_activations: int
    faults_injected: int
    comfort_violations: int
    performance_flags: int
    iterations: int
    wall_time_s: float
    #: Path of the run's trace file, when the run was traced (defaulted so
    #: journals written before tracing existed still decode).
    trace_file: Optional[str] = None
    #: Resilience evidence (defaulted so pre-resilience journals decode).
    degraded_entered: int = 0
    degraded_exited: int = 0
    action_holds: int = 0
    deadline_overruns: int = 0
    generator_retries: int = 0
    #: Minimum STL robustness of the safety spec
    #: (:data:`repro.analysis.trace_checks.SAFETY_FORMULA`) over the run's
    #: recorded trace; negative means the envelope was violated.
    #: Defaulted so journals written before STL wiring still decode.
    stl_robustness: Optional[float] = None

    @property
    def cleared(self) -> bool:
        return self.clearance_time is not None


#: Role names used across the campaign (tests rely on these).
GENERATOR = "Generator"
FALLBACK_PLANNER = "FallbackPlanner"
SAFETY_MONITOR = "SafetyMonitor"
SECURITY_ASSESSOR = "SecurityAssessor"
FAULT_INJECTOR = "FaultInjector"
PERFORMANCE_ORACLE = "PerformanceOracle"
RECOVERY_PLANNER = "RecoveryPlanner"


def build_controller(
    spec: ScenarioSpec,
    options: Optional[CampaignOptions] = None,
) -> OrchestrationController:
    """Assemble the full use-case orchestrator for one scenario run."""
    options = options or CampaignOptions()
    pipeline = FaultPipeline(seed=spec.seed)
    environment = IntersectionSimInterface(spec, pipeline=pipeline)

    if options.planner == "llm":
        planner = LLMPlanner(config=options.surrogate_config, seed=spec.seed)
        generator = LLMGeneratorRole(
            planner=planner, name=GENERATOR, crash_window=options.crash_window
        )
    elif options.planner == "rule":
        generator = RuleBasedPlannerRole(name=GENERATOR)
    else:
        raise ValueError(f"unknown planner {options.planner!r} (use 'llm' or 'rule')")

    # Trajectory spoofing is re-armed periodically ("periodically introduce
    # specific attacks", §IV.B); the ghost obstacle is a single window.
    repeat = (
        spec.attack.duration + 2.0
        if spec.attack.kind is AttackKind.TRAJECTORY_SPOOF
        else None
    )
    assessor = ScriptedSecurityAssessor(
        plan=spec.attack, repeat_period=repeat, name=SECURITY_ASSESSOR
    )

    roles = [
        generator,
        GeometricSafetyMonitor(
            generator_name=GENERATOR,
            horizon_s=options.monitor_horizon_s,
            name=SAFETY_MONITOR,
        ),
        assessor,
        FaultInjectorRole(pipeline, assessor_name=SECURITY_ASSESSOR, name=FAULT_INJECTOR),
        IntersectionPerformanceOracle(name=PERFORMANCE_ORACLE),
    ]
    if options.use_recovery:
        if options.recovery_strategy == "brake":
            roles.append(EmergencyBrakeRecovery(name=RECOVERY_PLANNER))
        elif options.recovery_strategy == "replan":
            roles.append(ReplanRecovery(name=RECOVERY_PLANNER))
        else:
            raise ValueError(
                f"unknown recovery strategy {options.recovery_strategy!r} "
                "(use 'brake' or 'replan')"
            )

    # The campaign always arms the action-hold containment (a nominal run
    # never produces a missing decision, so this is free); deadlines and
    # the Generator circuit breaker stay opt-in.
    resilience_kwargs: Dict[str, object] = {
        "deadline_ms": options.deadline_ms,
        "safe_action": Maneuver.WAIT,
        "max_hold": 3,
    }
    if options.breaker:
        resilience_kwargs.update(
            breaker_threshold=3,
            breaker_cooldown=25,
            max_retries=1,
            fallback=create_fallback(name=FALLBACK_PLANNER),
        )
    # The history is the run's evidence store (the STL robustness is read
    # from it), so it must hold every iteration the run can reach.  No
    # caller reads the bus log: a trace recorder subscribes instead, and
    # an unheard bus builds no events.
    max_iterations = int(spec.timeout_s / 0.1) + 10
    config = OrchestratorConfig(
        max_iterations=max_iterations,
        history_limit=max_iterations,
        keep_event_log=False,
        halt_on_violation=options.halt_on_violation,
        continue_on_role_error=options.continue_on_role_error,
        resilience=ResilienceConfig(**resilience_kwargs),
    )
    return OrchestrationController(RoleGraph.sequential(roles), environment, config)


def run_once(
    scenario_type: ScenarioType,
    seed: int,
    options: Optional[CampaignOptions] = None,
    *,
    trace: "str | Path | None" = None,
    trace_id: Optional[str] = None,
) -> RunOutcome:
    """Run one seeded scenario through the full assurance loop.

    ``trace`` names a file to record the run into (JSONL, see
    :mod:`repro.obs.trace`); ``trace_id`` labels it (defaults to
    ``"<scenario>:<seed>"``).  Without ``trace`` nothing is recorded.
    """
    spec = build_scenario(scenario_type, seed)
    controller = build_controller(spec, options)
    recorder: Optional[TraceRecorder] = None
    if trace is not None:
        recorder = TraceRecorder(
            trace,
            trace_id=trace_id or f"{scenario_type.value}:{seed}",
            meta={"scenario": scenario_type.value, "seed": seed},
        ).attach(controller)
    try:
        result = controller.run()
    except BaseException:
        if recorder is not None:  # pragma: no cover - crash still yields a trace
            recorder.finalize()
        raise

    # Imported here: repro.analysis.aggregate imports this module, so a
    # top-level import would be circular.
    from ..analysis.trace_checks import safety_robustness

    # The offline STL check reads the run's history, its one per-tick store.
    stl_rho: Optional[float] = None
    if controller.state.last_record is not None:
        stl_rho = safety_robustness(controller.state)

    metrics = result.metrics
    safety_flags = [
        v for v in metrics.violations_of("safety") if v.role == SAFETY_MONITOR
    ]
    info = result.environment_info
    metrics.mark_recovery_outcomes(prevented_collision=not info["collision"])
    trace_file: Optional[str] = None
    if recorder is not None:
        trace_file = str(
            recorder.finalize(metrics, extras={"stl_robustness": stl_rho})
        )

    return RunOutcome(
        scenario=scenario_type.value,
        seed=seed,
        monitor_flagged=bool(safety_flags),
        safety_flag_count=len(safety_flags),
        collision=bool(info["collision"]),
        clearance_time=info["clearance_time"],
        gridlocked=bool(info["gridlocked"]),
        timed_out=bool(info["timed_out"]),
        recovery_activations=metrics.recovery_activation_count,
        faults_injected=len(metrics.faults),
        comfort_violations=metrics.count("performance.comfort_violations"),
        performance_flags=len(metrics.violations_of("performance")),
        iterations=result.iterations,
        wall_time_s=result.wall_time_s,
        trace_file=trace_file,
        degraded_entered=metrics.count("resilience.degraded.entered"),
        degraded_exited=metrics.count("resilience.degraded.exited"),
        action_holds=metrics.count("resilience.holds")
        + metrics.count("resilience.hold_exhausted"),
        deadline_overruns=metrics.count("resilience.deadline_overruns"),
        generator_retries=metrics.count("resilience.retries"),
        stl_robustness=stl_rho,
    )


def options_digest(options: Optional[CampaignOptions]) -> str:
    """Stable digest of the run options, part of every journal key."""
    return fingerprint(options or CampaignOptions())


def campaign_spec_fingerprint(options: Optional[CampaignOptions]) -> str:
    """Journal-header identity of a campaign spec (normalized options).

    Written into the journal header so ``--resume`` against a journal
    produced under *different* options fails loudly
    (:class:`~repro.exec.JournalSpecMismatch`) instead of silently
    re-running everything under new keys while keeping the old records.
    Deliberately excludes the scenario/seed set: growing a campaign
    (more seeds, a scenario subset) is a legitimate resume.
    """
    return fingerprint({"kind": "campaign", "options": options or CampaignOptions()})


def unit_key(
    scenario_type: ScenarioType, seed: int, options: Optional[CampaignOptions] = None
) -> str:
    """The journal/resume identity of one (scenario, seed, options) run."""
    return f"{scenario_type.value}:{seed}:{options_digest(options)}"


def campaign_unit(
    scenario_type: ScenarioType,
    seed: int,
    options: Optional[CampaignOptions] = None,
    trace_dir: "str | Path | None" = None,
) -> WorkUnit:
    """One schedulable campaign run as an engine work unit.

    The payload is ``(scenario, seed, options, trace_dir)``; with a
    ``trace_dir`` the worker derives its own per-unit file path from the
    unit key, so the file layout is identical for any job count.
    """
    key = unit_key(scenario_type, seed, options)
    payload = (
        scenario_type.value,
        seed,
        options,
        str(trace_dir) if trace_dir is not None else None,
    )
    return WorkUnit(key=key, payload=payload)


def execute_campaign_unit(payload: "Tuple") -> RunOutcome:
    """Engine worker entry: run one seeded scenario (module-level, picklable)."""
    scenario_value, seed, options, trace_dir = payload
    scenario_type = ScenarioType(scenario_value)
    key = unit_key(scenario_type, seed, options)
    trace: Optional[Path] = None
    if trace_dir is not None:
        trace = unit_trace_path(trace_dir, key)
    return run_once(scenario_type, seed, options, trace=trace, trace_id=key)


def _encode_outcome(outcome: RunOutcome) -> Dict[str, object]:
    return dataclasses.asdict(outcome)


def _decode_outcome(data: Dict[str, object]) -> RunOutcome:
    return RunOutcome(**data)


# ----------------------------------------------------------------------
# canonical campaign report (deterministic; CLI and service write the
# same bytes for the same spec, interrupted-and-resumed or not)
# ----------------------------------------------------------------------
REPORT_SCHEMA_VERSION = 1

#: Per-run fields excluded from the canonical report: they vary with the
#: host/run (wall clock) or the output location (trace path), and the
#: report's contract is byte-identity across ``--jobs`` values, CLI vs
#: service, and interrupted-then-resumed vs uninterrupted executions.
_NONDETERMINISTIC_OUTCOME_FIELDS = ("wall_time_s", "trace_file")


def canonical_outcome(outcome: RunOutcome) -> Dict[str, Any]:
    """One run's report row: every deterministic :class:`RunOutcome` field."""
    row = dataclasses.asdict(outcome)
    for field_name in _NONDETERMINISTIC_OUTCOME_FIELDS:
        row.pop(field_name, None)
    return row


def build_campaign_report(
    results: "Dict[ScenarioType, List[RunOutcome]]",
    options: Optional[CampaignOptions] = None,
) -> Dict[str, Any]:
    """The canonical campaign report: per-scenario rows plus aggregates."""
    scenarios: Dict[str, Any] = {}
    for scenario_type, outcomes in results.items():
        rhos = [o.stl_robustness for o in outcomes if o.stl_robustness is not None]
        scenarios[scenario_type.value] = {
            "runs": [canonical_outcome(o) for o in outcomes],
            "collisions": sum(o.collision for o in outcomes),
            "flagged": sum(o.monitor_flagged for o in outcomes),
            "recoveries": sum(o.recovery_activations for o in outcomes),
            "faults_injected": sum(o.faults_injected for o in outcomes),
            "stl_rho_min": min(rhos) if rhos else None,
        }
    return {
        "kind": "campaign_report",
        "schema": REPORT_SCHEMA_VERSION,
        "spec_fingerprint": campaign_spec_fingerprint(options),
        "options": (options or CampaignOptions()).to_dict(),
        "total_runs": sum(len(v) for v in results.values()),
        "scenarios": scenarios,
    }


def write_campaign_report(
    results: "Dict[ScenarioType, List[RunOutcome]]",
    path: "str | Path",
    options: Optional[CampaignOptions] = None,
) -> Path:
    """Serialize the canonical report (sorted keys, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    report = build_campaign_report(results, options)
    path.write_text(strict_dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def execute_suite(
    scenario_types: Sequence[ScenarioType] = tuple(ScenarioType),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    *,
    progress: "ProgressHook | str | None" = "auto",
    cancel: Optional[Callable[[], bool]] = None,
    **execution: Any,
) -> "Tuple[Dict[ScenarioType, List[RunOutcome]], ExecutionReport]":
    """Run the campaign on the execution engine; return results + telemetry.

    Every (scenario, seed) pair becomes one :class:`WorkUnit`; results come
    back grouped per scenario in seed order, identical for any ``jobs``
    value.  A failed task (after retries) raises
    :class:`~repro.exec.CampaignExecutionError` once the campaign settles —
    the engine never aborts mid-flight, so all other runs still complete
    and journal.

    ``execution`` takes the :class:`~repro.exec.ExecutionOptions` fields
    (``jobs``, ``journal``, ``resume``, ``trace``); any other keyword is
    a ``TypeError``.  With ``trace`` each run writes a run trace under
    ``<trace>/units/``, the engine records dispatch telemetry to
    ``<trace>/engine.trace.jsonl``, and a deterministic
    ``<trace>/manifest.json`` merges them (``python -m repro.obs
    summarize <trace>`` reads the lot).
    """
    executor = ExecutionOptions(**execution)
    units = [
        campaign_unit(scenario_type, seed, options, trace_dir=executor.trace)
        for scenario_type in scenario_types
        for seed in seeds
    ]
    report = executor.run(
        execute_campaign_unit,
        units,
        encode=_encode_outcome,
        decode=_decode_outcome,
        spec_fingerprint=campaign_spec_fingerprint(options),
        progress=progress,
        cancel=cancel,
    ).raise_on_error()
    outcomes = report.results()
    results: Dict[ScenarioType, List[RunOutcome]] = {}
    cursor = 0
    for scenario_type in scenario_types:
        results[scenario_type] = outcomes[cursor : cursor + len(seeds)]
        cursor += len(seeds)
    return results, report


def run_suite(
    scenario_types: Sequence[ScenarioType] = tuple(ScenarioType),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    **kwargs: Any,
) -> Dict[ScenarioType, List[RunOutcome]]:
    """Run the full campaign: every scenario across every seed.

    The paper's evaluation is 6 scenarios x 15 runs = 90 runs (§V); the
    defaults reproduce that.  Keywords are :func:`execute_suite`'s
    (``jobs``, ``journal``, ``resume``, ``trace``, ``progress``, ...);
    only the results are returned.
    """
    return execute_suite(scenario_types, seeds, options, **kwargs)[0]


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI: run the use-case campaign and print per-scenario digests.

    ``python -m repro.experiments.campaign [--seeds N] [--jobs N]
    [--journal PATH] [--resume] [--trace DIR] [--report FILE]``
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=15)
    add_execution_args(parser)
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-role wall-clock deadline budget; overruns are recorded "
        "as performance violations",
    )
    parser.add_argument(
        "--breaker", action="store_true",
        help="guard the Generator with retry + circuit breaker degrading "
        "to the rule-based fallback planner",
    )
    parser.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="write the canonical campaign report (deterministic JSON; "
        "byte-identical for any --jobs and to the same spec submitted "
        "through `python -m repro.service`)",
    )
    args = parser.parse_args(argv)
    execution = ExecutionOptions.from_args(parser, args)

    # Built through the same plain-dict constructor the service's JSON
    # payloads use, so both paths produce identical options (and digests).
    options = CampaignOptions.from_dict(
        {"deadline_ms": args.deadline_ms, "breaker": args.breaker}
    )
    results, report = execute_suite(
        seeds=tuple(range(args.seeds)),
        options=options,
        **dataclasses.asdict(execution),
    )
    for scenario_type, outcomes in results.items():
        collisions = sum(o.collision for o in outcomes)
        flagged = sum(o.monitor_flagged for o in outcomes)
        recoveries = sum(o.recovery_activations for o in outcomes)
        line = (
            f"{scenario_type.value:<20} runs={len(outcomes)} "
            f"flagged={flagged} collisions={collisions} recoveries={recoveries}"
        )
        rhos = [o.stl_robustness for o in outcomes if o.stl_robustness is not None]
        if rhos:
            line += f" rho_min={min(rhos):+.2f}"
        degraded = sum(o.degraded_entered for o in outcomes)
        overruns = sum(o.deadline_overruns for o in outcomes)
        if degraded or overruns:
            line += f" degraded={degraded} overruns={overruns}"
        print(line)
    print(report.summary.render(), file=sys.stderr)
    if args.report is not None:
        write_campaign_report(results, args.report, options)
        print(f"report written to {args.report}", file=sys.stderr)
    if args.trace is not None:
        print(f"traces written to {args.trace}", file=sys.stderr)


if __name__ == "__main__":
    main()
