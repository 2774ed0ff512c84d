"""Assurance report generation from collected metrics.

Turns a run's :class:`~repro.core.metrics.DependabilityMetrics` (and
optionally the events a subscriber collected) into a structured
plain-text report — the
"traceable evidence suitable for building assurance cases" the framework
promises (§I).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Mapping, Optional, Sequence

from .events import Event, EventKind
from .orchestrator import OrchestrationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.trace_checks import PropertyVerdict


def _heading(title: str) -> List[str]:
    return [title, "-" * len(title)]


def _counterexample_row(entry: "Mapping[str, Any]") -> str:
    """One corpus entry (see :mod:`repro.search.corpus`) as a report line."""
    family = entry.get("family", "?")
    index = entry.get("index", "?")
    rho = entry.get("robustness")
    minimized = entry.get("minimized_robustness")
    parts = [f"[{family}#{index}]"]
    if rho is not None:
        parts.append(f"rho={float(rho):+.3f}")
    if minimized is not None:
        parts.append(f"minimized rho={float(minimized):+.3f}")
    if entry.get("collision"):
        parts.append("collision")
    if entry.get("outside_default_jitter"):
        parts.append("outside default jitter")
    reverted = entry.get("reverted_dims") or []
    if reverted:
        parts.append(f"reverted: {', '.join(reverted)}")
    return " ".join(parts)


def build_report(
    result: OrchestrationResult,
    events: Optional[Iterable[Event]] = None,
    title: str = "DURA-CPS assurance report",
    stl: "Optional[Sequence[PropertyVerdict]]" = None,
    counterexamples: "Optional[Sequence[Mapping[str, Any]]]" = None,
) -> str:
    """Render a human-readable assurance report for one run.

    ``events`` (the events a subscriber collected during the run, e.g. a
    list whose ``append`` was subscribed to ``controller.events`` before
    ``run()``) appends the evidence trail: violations, faults and
    recoveries, in publication order.

    ``stl`` (a sequence of
    :class:`~repro.analysis.trace_checks.PropertyVerdict`, typically from
    :func:`~repro.analysis.trace_checks.check_trace` over the run's
    recorded trace) appends the offline STL robustness section;
    ``counterexamples`` (corpus entries from :mod:`repro.search`) appends
    the falsification evidence section.
    """
    metrics = result.metrics
    lines: List[str] = [title, "=" * len(title), ""]

    lines += _heading("Run outcome")
    lines.append(f"termination reason : {result.reason.value}")
    lines.append(f"iterations         : {result.iterations}")
    lines.append(f"wall time          : {result.wall_time_s:.3f} s")
    for key, value in sorted(result.environment_info.items()):
        lines.append(f"{key:<19}: {value}")
    lines.append("")

    lines += _heading("Violations")
    counts = metrics.violation_counts
    if not counts:
        lines.append("none detected")
    else:
        for category, count in sorted(counts.items()):
            lines.append(f"{category:<12}: {count}")
        lines.append("")
        lines.append("first occurrences:")
        seen = set()
        for violation in metrics.violations:
            if violation.category in seen:
                continue
            seen.add(violation.category)
            lines.append(
                f"  [{violation.category}] it {violation.iteration} t={violation.time:.1f}s "
                f"by {violation.role}: {violation.detail or '(no detail)'}"
            )
    lines.append("")

    lines += _heading("Fault injections")
    if not metrics.faults:
        lines.append("none")
    else:
        for fault in metrics.faults:
            lines.append(f"  [{fault.kind}] it {fault.iteration} t={fault.time:.1f}s {fault.detail}")
    lines.append("")

    lines += _heading("Recovery")
    lines.append(f"activations: {metrics.recovery_activation_count}")
    outcomes = [r.prevented_collision for r in metrics.recoveries if r.prevented_collision is not None]
    if outcomes:
        prevented = sum(1 for o in outcomes if o)
        lines.append(f"collision-free after activation: {prevented}/{len(outcomes)}")
    lines.append("")

    if stl is not None:
        lines += _heading("STL properties (offline, recorded trace)")
        if not stl:
            lines.append("none checked")
        else:
            for verdict in stl:
                lines.append(f"  {verdict}")
            violated = sum(1 for v in stl if not v.satisfied)
            lines.append(
                f"{len(stl) - violated}/{len(stl)} properties satisfied"
            )
        lines.append("")

    if counterexamples is not None:
        lines += _heading("Counterexamples (scenario search)")
        if not counterexamples:
            lines.append("none found")
        else:
            for entry in counterexamples:
                lines.append(f"  {_counterexample_row(entry)}")
        lines.append("")

    lines += _heading("Performance series")
    if not metrics.series_names:
        lines.append("none recorded")
    else:
        for name in metrics.series_names:
            summary = metrics.series_summary(name)
            lines.append(
                f"{name:<36} mean={summary['mean']:.3f} min={summary['min']:.3f} "
                f"max={summary['max']:.3f} last={summary['last']:.3f}"
            )
    lines.append("")

    resilience = metrics.resilience_summary()
    if resilience:
        lines += _heading("Resilience")
        for key in (
            "deadline_overruns",
            "retries",
            "holds",
            "hold_exhausted",
            "degraded_entered",
            "degraded_exited",
            "degraded_iterations",
        ):
            if key in resilience:
                lines.append(f"{key:<19}: {resilience[key]}")
        for role, state in resilience.get("breaker_states", {}).items():
            lines.append(f"breaker[{role}]: {state}")
        for role, health in resilience.get("role_health", {}).items():
            lines.append(
                f"health[{role}]: ok={health['successes']} fail={health['failures']} "
                f"streak={health['consecutive_failures']} overruns={health['overruns']} "
                f"retries={health['retries']}"
            )
        lines.append("")

    lines += _heading("Role processing time")
    timings = metrics.role_timings()
    if not timings:
        lines.append("none recorded")
    else:
        for role, stats in sorted(timings.items()):
            lines.append(
                f"{role:<28} calls={int(stats['calls']):>5} total={stats['total_s']*1e3:8.2f} ms "
                f"mean={stats['mean_s']*1e6:8.1f} us"
            )
    lines.append("")

    if events is not None:
        lines += _heading("Evidence trail (violations & recoveries)")
        notable = [
            e
            for e in events
            if e.kind in (EventKind.VIOLATION_DETECTED, EventKind.RECOVERY_ACTIVATED, EventKind.FAULT_INJECTED)
        ]
        if not notable:
            lines.append("no notable events")
        else:
            for event in notable[:100]:
                lines.append(f"  {event}")
            if len(notable) > 100:
                lines.append(f"  ... and {len(notable) - 100} more")
        lines.append("")

    return "\n".join(lines)
