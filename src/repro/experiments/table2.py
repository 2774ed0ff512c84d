"""Table II: SafetyMonitor activations and collision rates per scenario.

Regenerates the paper's headline table — the percentage of runs in which
the SafetyMonitor flagged at least one "unsafe" proposal, and the rate of
actual (ground-truth) collisions — side by side with the published
numbers.  Run as a script::

    python -m repro.experiments.table2 [--seeds N]
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from ..analysis.aggregate import aggregate_suite, overall_average
from ..analysis.tables import render_table
from ..exec import seed_count
from ..sim.scenario import ScenarioType
from .campaign import DEFAULT_SEEDS, CampaignOptions, RunOutcome, run_suite

#: Paper-reported Table II values: (monitor flag %, collision %).
PAPER_TABLE2: Dict[ScenarioType, "tuple[float, float]"] = {
    ScenarioType.NOMINAL: (6.7, 0.0),
    ScenarioType.CONGESTED: (20.0, 6.7),
    ScenarioType.CONFLICTING: (33.3, 13.3),
    ScenarioType.GHOST_ATTACK: (86.7, 6.7),
    ScenarioType.SPOOF_ATTACK: (60.0, 20.0),
    ScenarioType.PEDESTRIAN: (26.7, 6.7),
}

#: Paper's overall averages (flag %, collision %).
PAPER_OVERALL = (38.9, 8.9)

#: Display order, matching the paper.
SCENARIO_ORDER: Sequence[ScenarioType] = (
    ScenarioType.NOMINAL,
    ScenarioType.CONGESTED,
    ScenarioType.CONFLICTING,
    ScenarioType.GHOST_ATTACK,
    ScenarioType.SPOOF_ATTACK,
    ScenarioType.PEDESTRIAN,
)

_SCENARIO_LABELS: Dict[ScenarioType, str] = {
    ScenarioType.NOMINAL: "Nominal",
    ScenarioType.CONGESTED: "Congested",
    ScenarioType.CONFLICTING: "Conflicting Traffic",
    ScenarioType.GHOST_ATTACK: "Ghost Obstacle Attack",
    ScenarioType.SPOOF_ATTACK: "Trajectory Spoof Attack",
    ScenarioType.PEDESTRIAN: "Pedestrian Crossing",
}


def generate(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    results: Optional[Dict[ScenarioType, List[RunOutcome]]] = None,
) -> str:
    """Run the campaign (unless ``results`` is supplied) and render Table II."""
    if results is None:
        results = run_suite(SCENARIO_ORDER, seeds, options)
    aggregates = aggregate_suite(results)

    rows: List[List[str]] = []
    for scenario_type in SCENARIO_ORDER:
        agg = aggregates[scenario_type]
        paper_flag, paper_coll = PAPER_TABLE2[scenario_type]
        rows.append(
            [
                _SCENARIO_LABELS[scenario_type],
                str(agg.monitor_flag_rate),
                f"{paper_flag:.1f}%",
                str(agg.collision_rate),
                f"{paper_coll:.1f}%",
            ]
        )
    measured_flag, measured_coll = overall_average(
        [aggregates[s] for s in SCENARIO_ORDER]
    )
    rows.append(
        [
            "Overall Avg.",
            f"{measured_flag:.1f}%",
            f"{PAPER_OVERALL[0]:.1f}%",
            f"{measured_coll:.1f}%",
            f"{PAPER_OVERALL[1]:.1f}%",
        ]
    )
    return render_table(
        headers=[
            "Scenario Type",
            "Monitor Flags (measured)",
            "Monitor Flags (paper)",
            "Collision Rate (measured)",
            "Collision Rate (paper)",
        ],
        rows=rows,
        title="Table II: Safety monitor activations and collision rates",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds", type=seed_count, default=15, help="runs per scenario (paper: 15)"
    )
    args = parser.parse_args(argv)
    print(generate(seeds=tuple(range(args.seeds))))


if __name__ == "__main__":
    main()
