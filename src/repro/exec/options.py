"""One validated set of execution knobs for every campaign entry point.

:class:`ExecutionOptions` says *how* a campaign executes — fan-out,
journal, resume, trace directory, backend and spool — independently of
*what* it runs.  The campaign, runner, recovery and fault-matrix CLIs
declare their shared flags through :func:`add_execution_args` and turn
them into options with :meth:`ExecutionOptions.from_args`; the library
entry points (``execute_suite``, ``run_suite``, ``run_evaluation``,
``recovery.measure``, ``fault_matrix.generate``) take the same fields as
keywords, build the options once and hand their work units to
:meth:`ExecutionOptions.run`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from ..obs import configure_logging
from ..obs.telemetry import TelemetryRegistry
from .engine import CampaignEngine, EnginePolicy, ExecutionReport
from .progress import ProgressHook
from .work import WorkUnit


@dataclass(frozen=True)
class ExecutionOptions:
    """How a campaign executes; nothing here changes what a run computes.

    Attributes:
        jobs: worker count — local pool processes (``1`` runs
            in-process) or, with the queue backend, spooled host workers.
        journal: JSONL run journal path (checkpoint/resume).
        resume: replay the journal's settled units; requires ``journal``.
        trace: campaign trace directory (``None`` records nothing).
        backend: ``"local"`` (pool or in-process loop) or ``"queue"``
            (host worker processes fed from an on-disk spool).
        spool: durable spool directory for the queue backend (an
            ephemeral temp spool when ``None``).

    Raises:
        ValueError: on a combination no run can honour.
    """

    jobs: int = 1
    journal: "str | Path | None" = None
    resume: bool = False
    trace: "str | Path | None" = None
    backend: str = "local"
    spool: "str | Path | None" = None

    def __post_init__(self) -> None:
        # Imported here: repro.dist imports the engine, so a module-level
        # import would cycle.
        from ..dist.backend import BACKEND_CHOICES

        if self.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {self.jobs}")
        if self.resume and self.journal is None:
            raise ValueError("--resume requires --journal")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown executor backend {self.backend!r} "
                f"(choose from {BACKEND_CHOICES})"
            )
        if self.spool is not None and self.backend != "queue":
            raise ValueError("--spool requires --backend queue")

    @classmethod
    def from_args(
        cls, parser: argparse.ArgumentParser, args: argparse.Namespace, **fields: Any
    ) -> "ExecutionOptions":
        """The options :func:`add_execution_args`'s flags name.

        ``fields`` adds flags a CLI declares itself (the campaign CLI's
        ``backend`` and ``spool``).  An invalid combination is a usage
        error (exit 2).  Also applies ``--log-level`` to the ``repro.*``
        loggers.
        """
        try:
            options = cls(
                jobs=args.jobs,
                journal=args.journal,
                resume=args.resume,
                trace=args.trace,
                **fields,
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
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> ExecutionReport:
        """Run ``fn`` over ``units`` on a :class:`CampaignEngine`.

        The queue backend gets ``jobs`` host workers and is closed before
        returning; ``telemetry`` (a registry) receives its ``dist.*``
        counters.  The other arguments pass through to the engine.
        """
        backend = None
        if self.backend == "queue":
            from ..dist.backend import create_backend

            backend = create_backend(
                "queue", hosts=self.jobs, spool=self.spool, telemetry=telemetry
            )
        try:
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
                backend=backend,
            ).run(units)
        finally:
            if backend is not None:
                backend.close()


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
