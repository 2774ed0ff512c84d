"""Figure 4: average intersection clearance time across scenarios.

Regenerates the paper's clearance-time figure (mean ± standard deviation
over the per-scenario runs) as data rows and an ASCII bar chart.  The
paper does not print its absolute values; the shape to reproduce is the
ordering — nominal fastest; congestion, conflict and attacks slower, with
trajectory spoofing worst (§V.C).

Run as a script::

    python -m repro.experiments.fig4 [--seeds N]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from ..analysis.aggregate import ScenarioAggregate, aggregate_suite
from ..analysis.tables import render_bar_chart, render_table
from ..exec import seed_count
from ..sim.scenario import ScenarioType
from .campaign import DEFAULT_SEEDS, CampaignOptions, RunOutcome, run_suite
from .table2 import SCENARIO_ORDER, _SCENARIO_LABELS

#: The qualitative ordering the paper reports (earlier <= later).
EXPECTED_ORDERING: Sequence[Sequence[ScenarioType]] = (
    (ScenarioType.NOMINAL,),
    (ScenarioType.PEDESTRIAN, ScenarioType.CONGESTED, ScenarioType.GHOST_ATTACK,
     ScenarioType.CONFLICTING),
    (ScenarioType.SPOOF_ATTACK,),
)


def clearance_rows(
    aggregates: Dict[ScenarioType, ScenarioAggregate]
) -> "List[tuple[str, float, float, int]]":
    """(label, mean, std, cleared-run count) per scenario, in paper order.

    Gridlocked/timed-out runs never cleared, so they carry no clearance
    sample — mirroring how a clearance-time plot treats them.
    """
    rows = []
    for scenario_type in SCENARIO_ORDER:
        agg = aggregates[scenario_type]
        if agg.clearance is None:
            # No run cleared (e.g. every seed gridlocked): an empty sample,
            # rendered as a zero-length bar rather than a hole in the chart.
            rows.append((_SCENARIO_LABELS[scenario_type], 0.0, 0.0, 0))
        else:
            rows.append(
                (
                    _SCENARIO_LABELS[scenario_type],
                    agg.clearance.mean,
                    agg.clearance.std,
                    agg.clearance.n,
                )
            )
    return rows


def generate(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    results: Optional[Dict[ScenarioType, List[RunOutcome]]] = None,
) -> str:
    """Run the campaign (unless given) and render the Fig. 4 reproduction."""
    if results is None:
        results = run_suite(SCENARIO_ORDER, seeds, options)
    aggregates = aggregate_suite(results)
    rows = clearance_rows(aggregates)

    table = render_table(
        headers=["Scenario", "Mean clearance (s)", "Std (s)", "Cleared runs"],
        rows=[
            [label, f"{mean:.1f}" if n else "n/a", f"{std:.1f}" if n else "n/a", str(n)]
            for label, mean, std, n in rows
        ],
        title="Fig. 4 data: intersection clearance time",
    )
    chart = render_bar_chart(
        labels=[label for label, *_ in rows],
        values=[mean for _, mean, *_ in rows],
        errors=[std for _, _, std, _ in rows],
        unit=" s",
        title="Fig. 4: average intersection clearance time",
    )
    return table + "\n\n" + chart


def ordering_holds(aggregates: Dict[ScenarioType, ScenarioAggregate]) -> bool:
    """Check the paper's qualitative ordering on measured means.

    Each tier of :data:`EXPECTED_ORDERING` must not exceed the next tier's
    minimum by more than a small tolerance.
    """
    tier_means = []
    for tier in EXPECTED_ORDERING:
        means = [
            aggregates[s].clearance.mean
            for s in tier
            if aggregates[s].clearance is not None
        ]
        if not means:
            return False
        tier_means.append(means)
    tolerance = 1.0  # seconds
    for earlier, later in zip(tier_means, tier_means[1:]):
        if max(earlier) > min(later) + tolerance:
            return False
    return True


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds", type=seed_count, default=15, help="runs per scenario (paper: 15)"
    )
    args = parser.parse_args(argv)
    print(generate(seeds=tuple(range(args.seeds))))


if __name__ == "__main__":
    main()
