"""One validated set of execution knobs for every campaign entry point.

:class:`ExecutionOptions` says *how* a campaign executes — fan-out,
journal, resume and trace directory — independently of *what* it runs.
The campaign, runner, recovery and fault-matrix CLIs declare their
shared flags through :func:`add_execution_args` and turn them into
options with :meth:`ExecutionOptions.from_args`; the library entry
points (``execute_suite``, ``run_suite``, ``run_evaluation``,
``recovery.measure``, ``fault_matrix.generate``) take the same fields as
keywords, build the options once and hand their work units to
:meth:`ExecutionOptions.run`, which runs them on one
:class:`~repro.exec.engine.CampaignEngine`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from ..obs import configure_logging
from .engine import CampaignEngine, EnginePolicy, ExecutionReport
from .progress import ProgressHook
from .work import WorkUnit


@dataclass(frozen=True)
class ExecutionOptions:
    """How a campaign executes; nothing here changes what a run computes.

    Attributes:
        jobs: worker process count (``1`` runs in-process).
        journal: JSONL run journal path (checkpoint/resume).
        resume: replay the journal's settled units; requires ``journal``.
        trace: campaign trace directory (``None`` records nothing).

    Raises:
        ValueError: on a combination no run can honour.
    """

    jobs: int = 1
    journal: "str | Path | None" = None
    resume: bool = False
    trace: "str | Path | None" = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {self.jobs}")
        if self.resume and self.journal is None:
            raise ValueError("--resume requires --journal")

    @classmethod
    def from_args(
        cls, parser: argparse.ArgumentParser, args: argparse.Namespace
    ) -> "ExecutionOptions":
        """The options :func:`add_execution_args`'s flags name.

        An invalid combination is a usage error (exit 2).  Also applies
        ``--log-level`` to the ``repro.*`` loggers.
        """
        try:
            options = cls(
                jobs=args.jobs,
                journal=args.journal,
                resume=args.resume,
                trace=args.trace,
            )
        except ValueError as exc:
            parser.error(str(exc))
        configure_logging(args.log_level)
        return options

    def run(
        self,
        fn: Callable[[Any], Any],
        units: Sequence[WorkUnit],
        *,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
        spec_fingerprint: Optional[str] = None,
        progress: "ProgressHook | str | None" = "auto",
        cancel: Optional[Callable[[], bool]] = None,
    ) -> ExecutionReport:
        """Run ``fn`` over ``units`` on a :class:`CampaignEngine`; the
        keyword arguments pass through to the engine."""
        return CampaignEngine(
            fn,
            EnginePolicy(jobs=self.jobs),
            encode=encode,
            decode=decode,
            journal=self.journal,
            resume=self.resume,
            progress=progress,
            trace=self.trace,
            spec_fingerprint=spec_fingerprint,
            cancel=cancel,
        ).run(units)


def add_execution_args(parser: argparse.ArgumentParser) -> None:
    """Declare the flags every campaign CLI shares (read back with
    :meth:`ExecutionOptions.from_args`)."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process); reports are identical "
        "for any value",
    )
    parser.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help="JSONL run journal: one line per settled run",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay finished runs from --journal; execute only missing ones",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="record JSONL run + engine traces into DIR "
        "(inspect with `python -m repro.obs summarize DIR`)",
    )
    parser.add_argument(
        "--log-level", default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="repro.* logger level (stderr)",
    )
