"""One-shot evaluation runner: regenerate every table and figure.

``python -m repro.experiments.runner [--seeds N] [--out DIR] [--jobs N]
[--journal PATH] [--resume] [--trace DIR]`` executes the full campaign
once and renders Table II, Fig. 4, the gridlock analysis and a summary —
reusing the same 90 runs for everything, as the paper does.  ``--jobs``
fans the runs out over the :mod:`repro.exec` process pool (the report
is identical to a serial run), ``--journal`` checkpoints each finished
run to a JSONL file and ``--resume`` restarts an interrupted campaign
from it, executing only the missing runs.  The recovery counterfactual
(which needs a second, recovery-less pass) and the ablations have their
own modules.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.aggregate import aggregate_suite
from ..analysis.tables import render_table
from ..exec import ExecutionOptions, add_execution_args, seed_count
from ..sim.scenario import ScenarioType
from . import fig4, gridlock, table2
from .campaign import DEFAULT_SEEDS, CampaignOptions, RunOutcome, execute_suite


def run_evaluation(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    out_dir: Optional[Path] = None,
    **execution: Any,
) -> str:
    """Run the campaign once and render all per-campaign artifacts.

    The report is deterministic (identical for any ``jobs`` value and
    across reruns of the same seeds).  ``execution`` takes
    :func:`~repro.experiments.campaign.execute_suite`'s keywords
    (``jobs``, ``journal``, ``resume``, ``trace``, ...).
    """
    results, _ = execute_suite(table2.SCENARIO_ORDER, seeds, options, **execution)
    return render_evaluation(results, seeds, out_dir)


def render_evaluation(
    results: "Dict[ScenarioType, List[RunOutcome]]",
    seeds: Sequence[int],
    out_dir: Optional[Path] = None,
) -> str:
    """Table II, Fig. 4, the gridlock analysis and per-run averages for
    one campaign's results; also written to ``<out_dir>/evaluation.txt``."""
    aggregates = aggregate_suite(results)

    sections = [
        table2.generate(results=results),
        fig4.generate(results=results),
        gridlock.generate(outcomes=results[ScenarioType.SPOOF_ATTACK]),
    ]

    summary_rows = []
    for scenario_type in table2.SCENARIO_ORDER:
        agg = aggregates[scenario_type]
        summary_rows.append(
            [
                agg.scenario,
                f"{agg.mean_safety_flags:.1f}",
                f"{agg.mean_recovery_activations:.1f}",
                f"{agg.mean_comfort_violations:.1f}",
                f"{agg.mean_faults:.1f}",
            ]
        )
    sections.append(
        render_table(
            headers=[
                "Scenario",
                "Safety flags / run",
                "Recovery activations / run",
                "Comfort violations / run",
                "Faults injected / run",
            ],
            rows=summary_rows,
            title="Per-run averages",
        )
    )
    sections.append(
        f"campaign: {len(seeds)} seeds x {len(table2.SCENARIO_ORDER)} scenarios"
    )
    report = "\n\n".join(sections)

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "evaluation.txt").write_text(report)
    return report


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_count, default=15)
    parser.add_argument("--out", type=Path, default=None)
    add_execution_args(parser)
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-role wall-clock deadline budget (performance violations "
        "on overrun)",
    )
    parser.add_argument(
        "--breaker",
        action="store_true",
        help="guard the Generator with retry + circuit breaker degrading "
        "to the rule-based fallback planner",
    )
    args = parser.parse_args(argv)
    execution = ExecutionOptions.from_args(parser, args)

    seeds = tuple(range(args.seeds))
    results, exec_report = execute_suite(
        table2.SCENARIO_ORDER,
        seeds,
        CampaignOptions(deadline_ms=args.deadline_ms, breaker=args.breaker),
        **dataclasses.asdict(execution),
    )
    print(render_evaluation(results, seeds, args.out))
    print(exec_report.summary.render(), file=sys.stderr)


if __name__ == "__main__":
    main()
