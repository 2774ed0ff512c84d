"""Benchmarks for the design-choice ablations DESIGN.md calls out.

1. Monitor horizon sweep — longer look-ahead flags more runs.
2. Planner ablation — the rule-based baseline is safer but slower-or-equal
   than the deliberately weak LLM surrogate (SS IV.A.1's rationale).
"""

from __future__ import annotations

from repro.analysis import aggregate_suite
from repro.experiments import CampaignOptions, run_suite
from repro.experiments.ablations import horizon_ablation, planner_ablation
from repro.sim import ScenarioType

from conftest import BENCH_SEEDS

_SCENARIOS = (ScenarioType.CONFLICTING, ScenarioType.GHOST_ATTACK)


def test_monitor_horizon_sweep(benchmark):
    seeds = BENCH_SEEDS[: max(4, len(BENCH_SEEDS) // 2)]
    table = benchmark.pedantic(
        lambda: horizon_ablation(horizons=(0.5, 1.0, 2.5), seeds=seeds, scenarios=_SCENARIOS),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)

    flagged = {}
    for horizon in (0.5, 2.5):
        results = run_suite(
            _SCENARIOS, seeds, CampaignOptions(monitor_horizon_s=horizon)
        )
        outcomes = [o for group in results.values() for o in group]
        flagged[horizon] = sum(o.safety_flag_count for o in outcomes)
    # Shape: a longer horizon can only see more conflicts.
    assert flagged[2.5] >= flagged[0.5]


def test_planner_ablation(benchmark):
    seeds = BENCH_SEEDS[: max(4, len(BENCH_SEEDS) // 2)]
    table = benchmark.pedantic(lambda: planner_ablation(seeds=seeds), rounds=1, iterations=1)
    print("\n" + table)

    llm = aggregate_suite(run_suite(_SCENARIOS, seeds, CampaignOptions(planner="llm")))
    rule = aggregate_suite(run_suite(_SCENARIOS, seeds, CampaignOptions(planner="rule")))
    # Shape: the deliberately weak LLM surrogate is never safer than the
    # deterministic baseline (collision-wise).
    llm_collisions = sum(llm[s].collision_rate.count for s in _SCENARIOS)
    rule_collisions = sum(rule[s].collision_rate.count for s in _SCENARIOS)
    assert rule_collisions <= llm_collisions
