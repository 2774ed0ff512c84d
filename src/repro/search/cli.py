"""The scenario-search CLI:
``python -m repro.search {explore,falsify,replay,cover,spaces}``.

``explore``
    One sampling pass (uniform / Latin-hypercube / grid) over a scenario
    family; writes the coverage map, corpus (any violations found) and
    the self-certifying search trace into ``--out``.
``falsify``
    Guided falsification: LHS warmup, mutation-based robustness descent,
    then greedy counterexample minimization toward the nominal builder.
    Deterministic for a fixed ``--seed`` regardless of ``--jobs``;
    ``--resume`` replays the journal and only runs what is missing.
``replay``
    Re-run one corpus entry from its recorded spec and print its
    full assurance report (STL verdict + counterexample section).
``cover``
    Render a written coverage map: occupancy, falsifying cells,
    per-dimension histograms.
``spaces``
    List the searchable families and their dimensions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..experiments.campaign import CampaignOptions
from .corpus import load_corpus, replay_entry
from .coverage import COVERAGE_FILE_NAME, load_coverage
from .driver import CORPUS_FILE_NAME, SearchConfig, SearchDriver
from .space import SPACES, known_families


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", required=True, choices=known_families(),
        help="scenario family to search",
    )
    parser.add_argument("--seed", type=int, default=0, help="master search seed")
    parser.add_argument(
        "--budget", type=int, default=24,
        help="total candidate evaluations (grid sampling ignores it)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="evaluation fan-out")
    parser.add_argument(
        "--out", type=Path, default=Path("search-out"),
        help="output directory (journal, trace, corpus, coverage, summary)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the journal in --out; only run missing candidates",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="also record a JSONL run trace per evaluation into DIR",
    )
    parser.add_argument("--bins", type=int, default=4, help="coverage bins per dimension")
    parser.add_argument(
        "--batch", type=int, default=8, help="candidates per engine round"
    )
    parser.add_argument(
        "--timeout-s", type=float, default=None,
        help="per-evaluation engine deadline",
    )
    parser.add_argument(
        "--planner", default="llm", choices=("llm", "rule"),
        help="planner under test (default: the surrogate LLM)",
    )
    parser.add_argument(
        "--log-level", default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="repro.* logger level (stderr)",
    )


def _run_driver(args: argparse.Namespace, config: SearchConfig) -> int:
    from ..obs import configure_logging

    configure_logging(args.log_level)
    driver = SearchDriver(
        config,
        CampaignOptions(planner=args.planner),
        out_dir=args.out,
        trace=args.trace,
        resume=args.resume,
    )
    result = driver.run()
    best = result.best_robustness
    print(
        f"{config.mode} family={config.family} seed={config.seed} "
        f"evaluations={len(result.evaluations)} rounds={result.rounds} "
        f"best_rho={best:+.3f}" if best is not None else "no evaluations"
    )
    print(
        f"coverage: {result.coverage.occupied}/{result.coverage.total_cells} "
        "cells occupied"
    )
    if result.counterexamples:
        print(f"counterexamples ({len(result.counterexamples)}):")
        from ..core.report import _counterexample_row

        for entry in result.counterexamples:
            print(f"  {_counterexample_row(entry.to_dict())}")
    else:
        print("counterexamples: none found")
    print(f"artifacts written to {args.out}", file=sys.stderr)
    return 0


# Both run subcommands build their SearchConfig through the same
# plain-dict constructor the service's JSON payloads use, so a spec
# submitted over HTTP and one typed at the CLI are the same object.
def _search_config(args: argparse.Namespace, fields: Dict[str, Any]) -> SearchConfig:
    """The run's config; a value it refuses is a usage error (exit 2),
    raised before anything is written."""
    try:
        return SearchConfig.from_dict(fields)
    except ValueError as exc:
        args.parser.error(str(exc))


def cmd_explore(args: argparse.Namespace) -> int:
    config = _search_config(
        args,
        {
            "family": args.family,
            "mode": "explore",
            "seed": args.seed,
            "budget": args.budget,
            "batch": args.batch,
            "sampler": args.sampler,
            "grid_points": args.grid_points,
            "bins": args.bins,
            "jobs": args.jobs,
            "timeout_s": args.timeout_s,
        },
    )
    return _run_driver(args, config)


def cmd_falsify(args: argparse.Namespace) -> int:
    config = _search_config(
        args,
        {
            "family": args.family,
            "mode": "falsify",
            "seed": args.seed,
            "budget": args.budget,
            "warmup": args.warmup,
            "batch": args.batch,
            "elites": args.elites,
            "scale": args.scale,
            "cooling": args.cooling,
            "minimize": not args.no_minimize,
            "minimize_rounds": args.minimize_rounds,
            "max_counterexamples": args.max_counterexamples,
            "bins": args.bins,
            "jobs": args.jobs,
            "timeout_s": args.timeout_s,
        },
    )
    return _run_driver(args, config)


def cmd_replay(args: argparse.Namespace) -> int:
    entries = load_corpus(args.corpus)
    if not entries:
        print(f"corpus {args.corpus} is empty", file=sys.stderr)
        return 1
    by_index = {entry.index: entry for entry in entries}
    if args.index is None:
        entry = entries[0]
    elif args.index in by_index:
        entry = by_index[args.index]
    else:
        print(
            f"no corpus entry with index {args.index} "
            f"(have: {sorted(by_index)})",
            file=sys.stderr,
        )
        return 1
    evaluation = replay_entry(
        entry,
        CampaignOptions(planner=args.planner),
        minimized=not args.original,
        trace=args.trace,
    )
    form = "original" if args.original else "minimized"
    recorded = entry.robustness if args.original else entry.minimized_robustness
    print(
        f"replayed {entry.scenario_name} ({form}): rho={evaluation.robustness:+.3f} "
        f"(corpus recorded {recorded:+.3f}) collision={evaluation.collision} "
        f"reason={evaluation.reason}"
    )
    if args.report:
        from ..analysis.trace_checks import check_trace, SAFETY_FORMULA
        from ..core.report import build_report
        from .corpus import entry_spec
        from .objective import run_spec

        result, frames = run_spec(
            entry_spec(entry, minimized=not args.original),
            CampaignOptions(planner=args.planner),
        )
        verdicts = check_trace(frames, {"safety": SAFETY_FORMULA})
        print()
        print(
            build_report(
                result,
                title=f"DURA-CPS assurance report — {entry.scenario_name}",
                stl=verdicts,
                counterexamples=[entry.to_dict()],
            )
        )
    drift = abs(evaluation.robustness - recorded)
    if drift > 1e-9:
        print(
            f"WARNING: replay robustness drifted by {drift:g} from the corpus",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_cover(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        path = path / COVERAGE_FILE_NAME
    coverage = load_coverage(path)
    print("\n".join(coverage.render_lines(top_n=args.top)))
    return 0


def cmd_spaces(args: argparse.Namespace) -> int:
    for family in known_families():
        space = SPACES[family]
        print(f"{family}: {space.description}")
        print(f"  scenario_type={space.scenario_type.value}")
        for d in space.dimensions:
            seed_window = (
                f" seed-jitter=[{d.seed_lo:g}, {d.seed_hi:g}]"
                if d.seed_lo is not None and d.seed_hi is not None
                else ""
            )
            print(
                f"  {d.name:<18} [{d.lo:g}, {d.hi:g}] nominal={d.nominal:g} "
                f"({d.kind}){seed_window}"
            )
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="one sampling pass over a family")
    _add_run_arguments(p)
    p.add_argument(
        "--sampler", default="lhs", choices=("uniform", "lhs", "grid"),
        help="sampling strategy",
    )
    p.add_argument(
        "--grid-points", type=int, default=3,
        help="points per float dimension for --sampler grid",
    )
    p.set_defaults(fn=cmd_explore, parser=p)

    p = sub.add_parser(
        "falsify", help="guided robustness descent + counterexample minimization"
    )
    _add_run_arguments(p)
    p.add_argument(
        "--warmup", type=int, default=None,
        help="LHS evaluations before descent (default: ~budget/3)",
    )
    p.add_argument("--elites", type=int, default=3, help="mutation parent pool")
    p.add_argument(
        "--scale", type=float, default=0.3,
        help="initial mutation step (fraction of each dimension's range)",
    )
    p.add_argument(
        "--cooling", type=float, default=0.85,
        help="per-round mutation step decay",
    )
    p.add_argument(
        "--no-minimize", action="store_true",
        help="skip greedy counterexample minimization",
    )
    p.add_argument(
        "--minimize-rounds", type=int, default=2,
        help="dimension sweeps per minimization",
    )
    p.add_argument(
        "--max-counterexamples", type=int, default=3,
        help="corpus cap (worst first, one per coverage cell)",
    )
    p.set_defaults(fn=cmd_falsify, parser=p)

    p = sub.add_parser("replay", help="re-run one corpus counterexample")
    p.add_argument("corpus", type=Path, help=f"{CORPUS_FILE_NAME} path")
    p.add_argument(
        "--index", type=int, default=None,
        help="corpus entry index (default: first entry)",
    )
    p.add_argument(
        "--original", action="store_true",
        help="replay the raw (pre-minimization) parameters",
    )
    p.add_argument(
        "--report", action="store_true",
        help="print the full assurance report for the replayed run",
    )
    p.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="record the replay into a JSONL trace file",
    )
    p.add_argument(
        "--planner", default="llm", choices=("llm", "rule"),
        help="planner under test",
    )
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("cover", help="render a coverage map")
    p.add_argument(
        "path", type=Path,
        help=f"{COVERAGE_FILE_NAME} file or a search output directory",
    )
    p.add_argument("--top", type=int, default=5, help="worst cells to list")
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("spaces", help="list searchable families")
    p.set_defaults(fn=cmd_spaces)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; exit quietly
        # (replace stdout with devnull so interpreter teardown stays silent).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
