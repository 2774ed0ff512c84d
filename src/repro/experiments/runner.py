"""One-shot evaluation runner: regenerate every table and figure.

``python -m repro.experiments.runner [--seeds N] [--out DIR] [--jobs N]
[--journal PATH] [--resume]`` executes the full campaign once and renders
Table II, Fig. 4, the gridlock analysis and a summary — reusing the same
90 runs for everything, as the paper does.  ``--jobs`` fans the runs out
over the :mod:`repro.exec` process pool (the report is identical to a
serial run), ``--journal`` checkpoints each finished run to a JSONL file
and ``--resume`` restarts an interrupted campaign from it, executing only
the missing runs.  The recovery counterfactual (which needs a second,
recovery-less pass) and the ablations have their own modules.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..analysis.aggregate import aggregate_suite
from ..analysis.tables import render_table
from ..exec import ExecutionReport
from ..obs import configure_logging
from ..sim.scenario import ScenarioType
from . import fig4, gridlock, table2
from .campaign import DEFAULT_SEEDS, CampaignOptions, execute_suite


def run_evaluation(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    options: Optional[CampaignOptions] = None,
    out_dir: Optional[Path] = None,
    *,
    jobs: int = 1,
    journal: "str | Path | None" = None,
    resume: bool = False,
    trace: "str | Path | None" = None,
    execution: "Optional[list] | None" = None,
) -> str:
    """Run the campaign once and render all per-campaign artifacts.

    The report is deterministic (identical for any ``jobs`` value and
    across reruns of the same seeds); wall-clock and worker telemetry
    live in the :class:`~repro.exec.ExecutionReport`, appended to the
    ``execution`` list when one is supplied.  ``trace`` records every run
    (plus engine dispatch telemetry) into a trace directory readable by
    ``python -m repro.obs summarize``.
    """
    results, exec_report = execute_suite(
        table2.SCENARIO_ORDER,
        seeds,
        options,
        jobs=jobs,
        journal=journal,
        resume=resume,
        trace=trace,
    )
    if execution is not None:
        execution.append(exec_report)
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
    parser.add_argument("--seeds", type=int, default=15)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    parser.add_argument(
        "--journal", type=Path, default=None, help="JSONL run journal path"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay finished runs from --journal; execute only missing ones",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="DIR",
        help="record JSONL run + engine traces into DIR "
        "(inspect with `python -m repro.obs summarize DIR`)",
    )
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
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="repro.* logger level (stderr)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")
    configure_logging(args.log_level)

    execution: "list[ExecutionReport]" = []
    report = run_evaluation(
        seeds=tuple(range(args.seeds)),
        options=CampaignOptions(deadline_ms=args.deadline_ms, breaker=args.breaker),
        out_dir=args.out,
        jobs=args.jobs,
        journal=args.journal,
        resume=args.resume,
        trace=args.trace,
        execution=execution,
    )
    print(report)
    if execution:
        print(execution[-1].summary.render(), file=sys.stderr)


if __name__ == "__main__":
    main()
