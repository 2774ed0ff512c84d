"""Ablation benches for the design choices DESIGN.md calls out.

1. **Recovery loop on/off** — how much of the safety margin the
   monitor→recovery loop buys (quantifies §V.D at table granularity).
2. **Monitor horizon sweep** — flag precision/recall against ground-truth
   collisions as the geometric look-ahead varies.
3. **Planner type** — surrogate LLM vs the rule-based baseline (quantifies
   the §IV.A.1 rationale: the LLM is deliberately the weaker planner).
4. **Recovery strategy** — the paper's emergency brake vs the graded
   replanning §V.D motivates as future work.
5. **Degradation policy** — an injected Generator outage with vs without
   the circuit breaker + rule-based fallback: does graceful degradation
   keep the run controlled?

Run as a script::

    python -m repro.experiments.ablations [--seeds N] [--jobs N] \
        [--which all|recovery|horizon|planner|strategy|degradation]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from ..analysis.aggregate import aggregate_suite
from ..analysis.tables import render_table
from ..exec import ExecutionOptions, seed_count
from ..sim.scenario import ScenarioType
from .campaign import DEFAULT_SEEDS, CampaignOptions, RunOutcome, run_suite
from .table2 import SCENARIO_ORDER, _SCENARIO_LABELS


def recovery_ablation(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int = 1,
) -> str:
    """Table II's collision column with vs without the RecoveryPlanner."""
    with_rec = run_suite(
        SCENARIO_ORDER, seeds, CampaignOptions(use_recovery=True), jobs=jobs
    )
    without_rec = run_suite(
        SCENARIO_ORDER, seeds, CampaignOptions(use_recovery=False), jobs=jobs
    )
    agg_with = aggregate_suite(with_rec)
    agg_without = aggregate_suite(without_rec)

    rows = []
    for scenario in SCENARIO_ORDER:
        rows.append(
            [
                _SCENARIO_LABELS[scenario],
                str(agg_with[scenario].collision_rate),
                str(agg_without[scenario].collision_rate),
                str(agg_with[scenario].monitor_flag_rate),
            ]
        )
    return render_table(
        headers=[
            "Scenario",
            "Collisions (with recovery)",
            "Collisions (no recovery)",
            "Monitor flags",
        ],
        rows=rows,
        title="Ablation 1: recovery loop on/off",
    )


def horizon_ablation(
    horizons: Sequence[float] = (0.5, 1.0, 1.5, 2.5, 3.5),
    seeds: Sequence[int] = tuple(range(10)),
    scenarios: Sequence[ScenarioType] = (
        ScenarioType.CONFLICTING,
        ScenarioType.SPOOF_ATTACK,
    ),
    jobs: int = 1,
) -> str:
    """Monitor look-ahead sweep: flag rate vs collisions caught.

    Short horizons miss developing conflicts (collisions without any prior
    flag); long horizons flag early and often.  Recovery stays enabled, so
    collision rates also reflect how much earlier warning helps.
    """
    rows = []
    for horizon in horizons:
        options = CampaignOptions(monitor_horizon_s=horizon)
        results = run_suite(scenarios, seeds, options, jobs=jobs)
        outcomes: List[RunOutcome] = [o for group in results.values() for o in group]
        n = len(outcomes)
        flagged = sum(1 for o in outcomes if o.monitor_flagged)
        collisions = sum(1 for o in outcomes if o.collision)
        unflagged_collisions = sum(
            1 for o in outcomes if o.collision and not o.monitor_flagged
        )
        rows.append(
            [
                f"{horizon:.1f} s",
                f"{100.0 * flagged / n:.1f}%",
                f"{100.0 * collisions / n:.1f}%",
                str(unflagged_collisions),
            ]
        )
    return render_table(
        headers=[
            "Monitor horizon",
            "Runs flagged",
            "Collision rate",
            "Collisions never flagged",
        ],
        rows=rows,
        title="Ablation 2: geometric monitor horizon sweep",
    )


def planner_ablation(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    jobs: int = 1,
) -> str:
    """Surrogate LLM vs rule-based baseline across all scenarios."""
    llm = aggregate_suite(
        run_suite(SCENARIO_ORDER, seeds, CampaignOptions(planner="llm"), jobs=jobs)
    )
    rule = aggregate_suite(
        run_suite(SCENARIO_ORDER, seeds, CampaignOptions(planner="rule"), jobs=jobs)
    )

    rows = []
    for scenario in SCENARIO_ORDER:
        l, r = llm[scenario], rule[scenario]
        rows.append(
            [
                _SCENARIO_LABELS[scenario],
                str(l.monitor_flag_rate),
                str(r.monitor_flag_rate),
                str(l.collision_rate),
                str(r.collision_rate),
                f"{l.clearance.mean:.1f}" if l.clearance else "n/a",
                f"{r.clearance.mean:.1f}" if r.clearance else "n/a",
            ]
        )
    return render_table(
        headers=[
            "Scenario",
            "Flags (LLM)",
            "Flags (rule)",
            "Collisions (LLM)",
            "Collisions (rule)",
            "Clearance (LLM)",
            "Clearance (rule)",
        ],
        rows=rows,
        title="Ablation 3: LLM surrogate vs rule-based baseline planner",
    )


def recovery_strategy_ablation(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scenarios: Sequence[ScenarioType] = (
        ScenarioType.CONFLICTING,
        ScenarioType.GHOST_ATTACK,
        ScenarioType.PEDESTRIAN,
    ),
    jobs: int = 1,
) -> str:
    """Emergency brake vs graded replanning (SS V.D's future-work direction).

    The graded strategy picks the softest maneuver that restores the
    predicted separation instead of always slamming the brakes; the table
    contrasts safety (collisions) against comfort (violations per run).
    """
    rows = []
    for strategy in ("brake", "replan"):
        results = run_suite(
            scenarios, seeds, CampaignOptions(recovery_strategy=strategy), jobs=jobs
        )
        outcomes: List[RunOutcome] = [o for group in results.values() for o in group]
        n = len(outcomes)
        rows.append(
            [
                strategy,
                f"{100.0 * sum(o.collision for o in outcomes) / n:.1f}%",
                f"{sum(o.recovery_activations for o in outcomes) / n:.1f}",
                f"{sum(o.comfort_violations for o in outcomes) / n:.1f}",
                f"{sum(o.clearance_time or 0.0 for o in outcomes) / max(sum(o.cleared for o in outcomes), 1):.1f}",
            ]
        )
    return render_table(
        headers=[
            "Recovery strategy",
            "Collision rate",
            "Activations / run",
            "Comfort violations / run",
            "Mean clearance (s)",
        ],
        rows=rows,
        title="Ablation 4: emergency brake vs graded replanning",
    )


def degradation_ablation(
    seeds: Sequence[int] = tuple(range(8)),
    scenarios: Sequence[ScenarioType] = (ScenarioType.NOMINAL,),
    jobs: int = 1,
    crash_window: "tuple[int, int]" = (20, 45),
) -> str:
    """Generator outage with vs without the circuit breaker (resilience).

    Both arms inject the same deterministic outage (the Generator raises
    for every iteration in ``crash_window``).  The *tolerate* arm only
    logs the errors as ``role_error`` violations — each affected tick
    falls back to the action-hold.  The *breaker* arm retries once, trips
    the breaker after 3 consecutive failures, runs the rule-based
    fallback planner during cooldown, and recovers when the outage ends.
    """
    rows = []
    arms = (
        ("tolerate", CampaignOptions(crash_window=crash_window, continue_on_role_error=True)),
        ("breaker", CampaignOptions(crash_window=crash_window, breaker=True)),
    )
    for label, options in arms:
        results = run_suite(scenarios, seeds, options, jobs=jobs)
        outcomes: List[RunOutcome] = [o for group in results.values() for o in group]
        n = len(outcomes)
        rows.append(
            [
                label,
                f"{100.0 * sum(o.collision for o in outcomes) / n:.1f}%",
                f"{100.0 * sum(o.cleared for o in outcomes) / n:.1f}%",
                f"{sum(o.action_holds for o in outcomes) / n:.1f}",
                f"{sum(o.degraded_entered for o in outcomes) / n:.2f}",
                f"{sum(o.generator_retries for o in outcomes) / n:.1f}",
            ]
        )
    return render_table(
        headers=[
            "Outage policy",
            "Collision rate",
            "Cleared",
            "Action holds / run",
            "Breaker entries / run",
            "Retries / run",
        ],
        rows=rows,
        title="Ablation 5: Generator outage — tolerate vs circuit breaker",
    )


_ABLATIONS: Dict[str, "object"] = {
    "recovery": recovery_ablation,
    "horizon": horizon_ablation,
    "planner": planner_ablation,
    "strategy": recovery_strategy_ablation,
    "degradation": degradation_ablation,
}


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_count, default=15)
    parser.add_argument(
        "--which", choices=["all", *sorted(_ABLATIONS)], default="all"
    )
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        ExecutionOptions(jobs=args.jobs)  # the campaign CLIs' --jobs check
    except ValueError as exc:
        parser.error(str(exc))
    seeds = tuple(range(args.seeds))
    names = sorted(_ABLATIONS) if args.which == "all" else [args.which]
    for name in names:
        fn = _ABLATIONS[name]
        if name in ("horizon", "strategy", "degradation"):
            print(fn(seeds=seeds[: max(5, len(seeds) * 2 // 3)], jobs=args.jobs))
        else:
            print(fn(seeds=seeds, jobs=args.jobs))
        print()


if __name__ == "__main__":
    main()
