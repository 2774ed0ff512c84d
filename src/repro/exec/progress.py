"""Progress hooks and the campaign summary for campaign execution.

The engine reports through a plain callable — ``hook(ProgressEvent)`` —
so anything from a TUI to a job-event writer can subscribe.  The default
is :class:`StderrReporter`, a single-line live ticker (runs/s and ETA)
that only engages when stderr is a terminal, keeping test output and
piped logs clean.

:class:`CampaignSummary` is the campaign-level roll-up the engine returns:
totals, retry counts, error counts, cached (resumed) counts, and worker
utilization — busy seconds per worker against the campaign wall-clock.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

#: Event kinds emitted by the engine.
CAMPAIGN_STARTED = "campaign_started"
TASK_RETRY = "task_retry"
TASK_FINISHED = "task_finished"
CAMPAIGN_FINISHED = "campaign_finished"


@dataclass(frozen=True)
class ProgressEvent:
    """One engine lifecycle notification.

    ``done``/``total`` count settled vs all tasks; ``cached`` marks results
    replayed from a resume journal rather than executed now.
    """

    kind: str
    total: int
    done: int = 0
    key: Optional[str] = None
    status: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    cached: bool = False
    wall_s: float = 0.0


ProgressHook = Callable[[ProgressEvent], None]


class StderrReporter:
    """Live progress ticker: ``done/total, runs/s, ETA``.

    Rate and ETA are computed over *executed* tasks only — journal replays
    settle instantly and would otherwise wildly inflate the estimate.

    On a terminal this is a single carriage-return-rewritten line.  On a
    non-TTY stream (piped logs, CI) ``\\r`` would smear into one unreadable
    mega-line, so the reporter falls back to whole ``\\n``-terminated lines
    at a much coarser interval (``non_tty_interval_s``, default 5 s) plus a
    final summary line — line-buffered, rate-limited, grep-friendly.
    """

    def __init__(
        self,
        stream=None,
        min_interval_s: float = 0.2,
        non_tty_interval_s: float = 5.0,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        try:
            self.is_tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self.is_tty = False
        self.min_interval_s = min_interval_s if self.is_tty else non_tty_interval_s
        self._last_print = 0.0
        self._executed = 0

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == TASK_FINISHED and not event.cached:
            self._executed += 1
        if event.kind == CAMPAIGN_FINISHED:
            if self.is_tty:
                self.stream.write("\n")
            else:
                self.stream.write(
                    f"[exec] finished {event.done}/{event.total} runs"
                    f" in {event.wall_s:.1f} s\n"
                )
            self.stream.flush()
            return
        if event.kind != TASK_FINISHED:
            return
        now = time.monotonic()
        last_task = event.done >= event.total
        if now - self._last_print < self.min_interval_s and not last_task:
            return
        self._last_print = now
        rate = self._executed / event.wall_s if event.wall_s > 0 else 0.0
        remaining = event.total - event.done
        eta = f"{remaining / rate:5.0f} s" if rate > 0 else "    ? s"
        line = (
            f"[exec] {event.done}/{event.total} runs"
            f"  {rate:5.2f} runs/s  eta {eta}"
        )
        self.stream.write(f"\r{line}" if self.is_tty else f"{line}\n")
        self.stream.flush()


def default_progress_hook() -> Optional[ProgressHook]:
    """The engine's ``progress='auto'`` resolution: tty-gated ticker."""
    try:
        if sys.stderr.isatty():
            return StderrReporter()
    except (AttributeError, ValueError):
        pass
    return None


@dataclass
class CampaignSummary:
    """Campaign-level execution telemetry."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    errors: int = 0
    retries: int = 0
    wall_time_s: float = 0.0
    busy_time_s: float = 0.0
    jobs: int = 1
    mode: str = "serial"
    per_worker_tasks: Dict[str, int] = field(default_factory=dict)
    per_worker_busy_s: Dict[str, float] = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        return self.total - self.errors

    @property
    def runs_per_s(self) -> float:
        return self.executed / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Mean fraction of the worker pool kept busy (0..1)."""
        capacity = self.wall_time_s * max(self.jobs, 1)
        return min(self.busy_time_s / capacity, 1.0) if capacity > 0 else 0.0

    def render(self) -> str:
        lines = [
            f"campaign: {self.total} tasks "
            f"({self.executed} executed, {self.cached} resumed, {self.errors} failed)",
            f"  mode: {self.mode}, jobs={self.jobs}, retries={self.retries}",
            f"  wall: {self.wall_time_s:.1f} s, busy: {self.busy_time_s:.1f} s, "
            f"utilization: {100.0 * self.utilization:.0f}%, "
            f"{self.runs_per_s:.2f} runs/s",
        ]
        if self.per_worker_tasks:
            parts = ", ".join(
                f"{worker}: {count} tasks/{self.per_worker_busy_s.get(worker, 0.0):.1f} s"
                for worker, count in sorted(self.per_worker_tasks.items())
            )
            lines.append(f"  workers: {parts}")
        return "\n".join(lines)
