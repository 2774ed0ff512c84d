"""§V.B gridlock analysis: the 'stuck' outcome under trajectory spoofing.

The paper reports that in 3/15 (20%) of trajectory-spoofing runs the
planner's excessive caution left the AV "unable to find a perceived safe
gap, resulting in a gridlock scenario broken only by simulation timeout".
This module measures the gridlock rate and the caution pathway behind it
(spoof scares, spooked escalations).

Run as a script::

    python -m repro.experiments.gridlock [--seeds N]
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from ..analysis.stats import MeanStd, Rate
from ..analysis.tables import render_table
from ..exec import seed_count
from ..sim.scenario import ScenarioType
from .campaign import DEFAULT_SEEDS, CampaignOptions, RunOutcome, run_once

#: Paper-reported gridlock rate under trajectory spoofing.
PAPER_GRIDLOCK_RATE = 20.0


def measure(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
) -> List[RunOutcome]:
    """Run the spoof-attack scenario across seeds."""
    return [run_once(ScenarioType.SPOOF_ATTACK, seed, options) for seed in seeds]


def generate(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    outcomes: Optional[List[RunOutcome]] = None,
) -> str:
    """Render the gridlock analysis table."""
    if outcomes is None:
        outcomes = measure(seeds, options)
    n = len(outcomes)
    gridlock = Rate(sum(1 for o in outcomes if o.gridlocked), n)
    cleared = [o.clearance_time for o in outcomes if o.clearance_time is not None]
    clearance = MeanStd.of(cleared)

    rows = [
        ["Gridlocked runs (measured)", str(gridlock)],
        ["Gridlocked runs (paper)", f"{PAPER_GRIDLOCK_RATE:.1f}% (3/15)"],
        ["Timed out (any reason)", str(Rate(sum(1 for o in outcomes if o.timed_out), n))],
        ["Collisions", str(Rate(sum(1 for o in outcomes if o.collision), n))],
        [
            "Clearance of non-stuck runs",
            str(clearance) if clearance else "n/a",
        ],
        [
            "Mean faults injected / run",
            f"{sum(o.faults_injected for o in outcomes) / n:.1f}",
        ],
    ]
    return render_table(
        headers=["Metric", "Value"],
        rows=rows,
        title="Gridlock under trajectory spoofing (paper SS V.B)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_count, default=15)
    args = parser.parse_args(argv)
    print(generate(seeds=tuple(range(args.seeds))))


if __name__ == "__main__":
    main()
