"""The campaign execution engine: every pending unit, one worker call apiece.

:class:`CampaignEngine` turns a list of :class:`~repro.exec.work.WorkUnit`
into settled :class:`TaskRecord` results.  It owns both campaign
*semantics* — unit identity, journaling/resume, tracing, progress, the
summary — and *execution*: a ``ProcessPoolExecutor`` of forked workers
for ``jobs > 1``, or a deterministic in-process loop for ``jobs=1`` and
for platforms without ``fork``.  Guarantees, in either mode:

* **order independence** — records come back in unit order, and each task
  derives everything from its own payload, so ``jobs=N`` equals ``jobs=1``
  field-for-field for deterministic task functions;
* **fault tolerance** — a task that raises, times out (per-task SIGALRM
  deadline) or loses its worker process is retried with exponential
  backoff up to ``max_retries`` times, then recorded as a
  :class:`TaskError` *outcome*; a broken pool is rebuilt and the units
  it stranded take the same retry path; the campaign always runs to
  completion;
* **checkpoint/resume** — every settled task is appended (and flushed) to
  a JSONL :mod:`~repro.exec.journal`; re-running with ``resume=True``
  replays journaled successes and executes only the missing tasks;
* **telemetry** — progress events (runs/s + ETA via the default stderr
  reporter) and a :class:`~repro.exec.progress.CampaignSummary` with
  retry counts and per-worker utilization.

The worker function must be a module-level (picklable) callable taking a
unit's payload; with a journal, its results must round-trip through the
``encode``/``decode`` hooks to JSON.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.telemetry import TelemetryRegistry
from ..obs.trace import EngineTracer
from .journal import RunJournal, check_spec_fingerprint, load_journal
from .progress import (
    CAMPAIGN_FINISHED,
    CAMPAIGN_STARTED,
    TASK_FINISHED,
    TASK_RETRY,
    CampaignSummary,
    ProgressEvent,
    ProgressHook,
    default_progress_hook,
)
from .work import WorkUnit, check_unique_keys, fingerprint


class TaskTimeout(Exception):
    """A task overran its per-task deadline."""


class CampaignCancelled(Exception):
    """The campaign was cancelled via the engine's ``cancel`` hook.

    Every task settled before the cancellation point is already journaled
    (the journal flushes per line), so a later ``resume=True`` run picks
    up exactly where the cancelled one stopped.
    """


class CampaignExecutionError(Exception):
    """Raised by strict callers when a campaign settled with failed tasks."""

    def __init__(self, errors: "List[TaskError]") -> None:
        self.errors = list(errors)
        preview = "; ".join(
            f"{e.key}: {e.error_type}: {e.message}" for e in self.errors[:3]
        )
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        super().__init__(f"{len(self.errors)} task(s) failed: {preview}{more}")


@dataclass(frozen=True)
class EnginePolicy:
    """Execution knobs: parallelism, deadlines and retry behaviour.

    Attributes:
        jobs: worker process count; ``1`` runs in-process.
        timeout_s: per-task deadline (``None`` disables it).  Enforced via
            ``SIGALRM`` in the executing process, so it needs a Unix main
            thread; elsewhere tasks run undeadlined.
        max_retries: extra attempts after the first failure.
        retry_backoff_s: base backoff, doubled per subsequent attempt.
    """

    jobs: int = 1
    timeout_s: Optional[float] = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")


@dataclass(frozen=True)
class TaskError:
    """Terminal failure of one unit — an outcome, not an exception."""

    key: str
    error_type: str
    message: str
    attempts: int


@dataclass
class TaskRecord:
    """One settled unit: success result or terminal error, plus telemetry."""

    key: str
    status: str  # "ok" | "error"
    attempts: int
    elapsed_s: float = 0.0
    worker: Optional[str] = None
    result: Any = None
    error: Optional[TaskError] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ExecutionReport:
    """Everything a campaign produced, in submission order."""

    records: List[TaskRecord]
    summary: CampaignSummary
    #: Engine telemetry registry — populated only for traced campaigns.
    telemetry: Optional[TelemetryRegistry] = None

    def record_map(self) -> Dict[str, TaskRecord]:
        return {r.key: r for r in self.records}

    def results(self) -> List[Any]:
        """Successful results only, in unit order."""
        return [r.result for r in self.records if r.ok]

    def errors(self) -> "List[TaskError]":
        return [r.error for r in self.records if r.error is not None]

    def raise_on_error(self) -> "ExecutionReport":
        errors = self.errors()
        if errors:
            raise CampaignExecutionError(errors)
        return self


# ----------------------------------------------------------------------
# task entry (runs in the worker process, or inline for jobs=1)
# ----------------------------------------------------------------------
def _alarm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _call_with_deadline(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> Any:
    """Run ``fn(payload)``, raising :class:`TaskTimeout` past the deadline."""
    if timeout_s is None or not _alarm_usable():
        return fn(payload)

    def _on_alarm(signum: int, frame: Any) -> None:
        raise TaskTimeout(f"task exceeded {timeout_s:g} s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _task_entry(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> "Tuple[Any, str, float]":
    """(result, worker id, elapsed seconds) for one attempt."""
    started = time.perf_counter()
    result = _call_with_deadline(fn, payload, timeout_s)
    return result, f"pid{os.getpid()}", time.perf_counter() - started


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _error_record(
    unit_key: str, attempts: int, exc: BaseException, elapsed_s: float = 0.0
) -> TaskRecord:
    """A terminal-failure record for one unit (an outcome, not a raise)."""
    return TaskRecord(
        key=unit_key,
        status="error",
        attempts=attempts,
        elapsed_s=elapsed_s,
        error=TaskError(
            key=unit_key,
            error_type=type(exc).__name__,
            message=str(exc) or repr(exc),
            attempts=attempts,
        ),
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class CampaignEngine:
    """Run a campaign's work units to completion under an execution policy.

    Args:
        fn: module-level worker callable, ``fn(payload) -> result``.
        policy: parallelism/deadline/retry knobs.
        encode: result -> JSON-serializable value (journaling only).
        decode: inverse of ``encode``, applied to journal replays.
        journal: JSONL journal path; without ``resume`` an existing file
            is overwritten, with it the file is extended.
        resume: replay journaled successes instead of re-running them.
        progress: a ``ProgressHook``, ``None`` to silence, or ``"auto"``
            (default) for a stderr ticker when stderr is a terminal.
        trace: campaign trace directory; when set, an
            :class:`~repro.obs.trace.EngineTracer` records dispatch/settle
            spans to ``<trace>/engine.trace.jsonl`` and writes a
            deterministic ``manifest.json`` merging per-unit run traces at
            campaign end.  ``None`` (default) writes nothing.
        spec_fingerprint: hash of the normalized campaign spec (options)
            that produced the units.  Recorded in the journal header;
            resuming against a journal whose header carries a *different*
            spec fingerprint raises
            :class:`~repro.exec.journal.JournalSpecMismatch` instead of
            silently mixing two configurations.  ``None`` skips the check.
        cancel: zero-arg callable polled between task settles; returning
            ``True`` aborts the campaign with :class:`CampaignCancelled`
            (journaled tasks survive, so a ``resume`` run continues from
            the cancellation point).  The long-lived service uses this as
            its job-cancellation hook.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        policy: Optional[EnginePolicy] = None,
        *,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
        journal: "str | Path | None" = None,
        resume: bool = False,
        progress: "ProgressHook | str | None" = "auto",
        trace: "str | Path | None" = None,
        spec_fingerprint: Optional[str] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.fn = fn
        self.policy = policy or EnginePolicy()
        self.encode = encode or (lambda value: value)
        self.decode = decode or (lambda value: value)
        self.journal_path = Path(journal) if journal is not None else None
        self.resume = resume
        self.spec_fingerprint = spec_fingerprint
        self.cancel = cancel
        self.trace_dir = Path(trace) if trace is not None else None
        self._tracer: Optional[EngineTracer] = None
        self.progress: Optional[ProgressHook]
        if progress == "auto":
            self.progress = default_progress_hook()
        else:
            self.progress = progress if callable(progress) else None

    # ------------------------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> ExecutionReport:
        units = list(units)
        check_unique_keys(units)
        started = time.perf_counter()

        records: Dict[str, TaskRecord] = {}
        # Decided once: the summary reports the mode the dispatch uses.
        use_pool = self.policy.jobs > 1 and _fork_available()
        summary = CampaignSummary(
            total=len(units),
            jobs=self.policy.jobs if use_pool else 1,
            mode="process-pool" if use_pool else "serial",
        )
        if self.trace_dir is not None:
            self._tracer = EngineTracer(self.trace_dir)
            self._tracer.campaign_started(len(units), summary.jobs, summary.mode)
        self._emit(ProgressEvent(kind=CAMPAIGN_STARTED, total=len(units)))

        try:
            journal = self._open_journal(units, records)
        except Exception:
            self._abandon_observers()
            raise
        summary.cached = len(records)
        for record in records.values():
            if self._tracer is not None:
                self._tracer.task_settled(
                    record.key,
                    record.status,
                    record.attempts,
                    record.elapsed_s,
                    record.worker,
                    record.cached,
                )
            self._emit_finished(record, len(records), len(units), started)
        pending = [u for u in units if u.key not in records]

        try:
            if pending:
                settle = self._make_settler(
                    records, journal, summary, len(units), started
                )
                record_retry = self._make_retry_recorder(summary)
                if use_pool:
                    self._run_pool(pending, settle, record_retry)
                else:
                    self._run_serial(pending, settle, record_retry)
        except BaseException:
            # Cancellation (or a crash) must not leak open trace handles
            # in a long-lived server; settled tasks are already journaled.
            self._abandon_observers()
            raise
        finally:
            if journal is not None:
                journal.close()

        summary.wall_time_s = time.perf_counter() - started
        self._emit(
            ProgressEvent(
                kind=CAMPAIGN_FINISHED,
                total=len(units),
                done=len(records),
                wall_s=summary.wall_time_s,
            )
        )
        telemetry: Optional[TelemetryRegistry] = None
        if self._tracer is not None:
            self._tracer.campaign_finished(
                dataclasses.asdict(summary), [u.key for u in units]
            )
            telemetry = self._tracer.telemetry
            self._tracer = None
        return ExecutionReport(
            records=[records[u.key] for u in units],
            summary=summary,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # serial (in-process) execution
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: Sequence[WorkUnit],
        settle: Callable[[TaskRecord], None],
        record_retry: Callable[[str, int], None],
    ) -> None:
        policy = self.policy
        for unit in pending:
            self._check_cancelled()
            attempts = 0
            while True:
                attempts += 1
                attempt_started = time.perf_counter()
                try:
                    result, worker, elapsed = _task_entry(
                        self.fn, unit.payload, policy.timeout_s
                    )
                except Exception as exc:  # noqa: BLE001 - tasks are user code
                    elapsed = time.perf_counter() - attempt_started
                    if attempts <= policy.max_retries:
                        record_retry(unit.key, attempts)
                        time.sleep(self._backoff_s(attempts))
                        continue
                    settle(_error_record(unit.key, attempts, exc, elapsed))
                    break
                settle(
                    TaskRecord(
                        key=unit.key,
                        status="ok",
                        attempts=attempts,
                        elapsed_s=elapsed,
                        worker="main",
                        result=result,
                    )
                )
                break

    # ------------------------------------------------------------------
    # process-pool execution
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        pending: Sequence[WorkUnit],
        settle: Callable[[TaskRecord], None],
        record_retry: Callable[[str, int], None],
    ) -> None:
        policy = self.policy
        context = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(
            max_workers=policy.jobs, mp_context=context
        )
        in_flight: Dict[Future, Tuple[WorkUnit, int]] = {}
        retry_queue: List[Tuple[float, WorkUnit, int]] = []  # (due, unit, attempts)

        def submit(unit: WorkUnit, attempts: int) -> None:
            try:
                future = executor.submit(
                    _task_entry, self.fn, unit.payload, policy.timeout_s
                )
            except BrokenProcessPool as exc:
                # A worker died while units were still being handed out:
                # this attempt fails over like every unit the dead pool
                # stranded (retry on a rebuilt pool), not the campaign.
                future = Future()
                future.set_exception(exc)
            in_flight[future] = (unit, attempts)

        def retry_or_fail(unit: WorkUnit, attempts: int, exc: BaseException) -> None:
            if attempts <= policy.max_retries:
                record_retry(unit.key, attempts)
                retry_queue.append(
                    (time.monotonic() + self._backoff_s(attempts), unit, attempts)
                )
            else:
                settle(_error_record(unit.key, attempts, exc))

        try:
            for unit in pending:
                submit(unit, 0)
            while in_flight or retry_queue:
                self._check_cancelled()
                now = time.monotonic()
                due = [entry for entry in retry_queue if entry[0] <= now]
                retry_queue = [entry for entry in retry_queue if entry[0] > now]
                for _, unit, attempts in due:
                    submit(unit, attempts)
                if not in_flight:
                    if retry_queue:
                        time.sleep(
                            max(0.0, min(e[0] for e in retry_queue) - time.monotonic())
                        )
                    continue
                timeout = None
                if retry_queue:
                    timeout = max(0.0, min(e[0] for e in retry_queue) - now)
                if self.cancel is not None:
                    # Wake periodically so a cancellation is observed even
                    # while every in-flight task is still running.
                    timeout = 0.25 if timeout is None else min(timeout, 0.25)
                done, _ = wait(
                    list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for future in done:
                    unit, attempts = in_flight.pop(future)
                    attempts += 1
                    try:
                        result, worker, elapsed = future.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        retry_or_fail(unit, attempts, exc)
                    except Exception as exc:  # noqa: BLE001 - tasks are user code
                        retry_or_fail(unit, attempts, exc)
                    else:
                        settle(
                            TaskRecord(
                                key=unit.key,
                                status="ok",
                                attempts=attempts,
                                elapsed_s=elapsed,
                                worker=worker,
                                result=result,
                            )
                        )
                if pool_broken:
                    # Every other in-flight future is doomed too: fail them
                    # over to the retry path and rebuild the pool.
                    executor.shutdown(wait=True, cancel_futures=True)
                    stranded = list(in_flight.items())
                    in_flight.clear()
                    executor = ProcessPoolExecutor(
                        max_workers=policy.jobs, mp_context=context
                    )
                    for _, (unit, attempts) in stranded:
                        retry_or_fail(
                            unit,
                            attempts + 1,
                            BrokenProcessPool("worker process died"),
                        )
        finally:
            # wait=True releases the executor's wakeup pipe cleanly; with
            # wait=False the interpreter's atexit hook can hit the
            # already-closed fd ("Exception ignored ... Bad file
            # descriptor").  All futures are settled on the normal path,
            # so joining the workers is immediate.
            executor.shutdown(wait=True, cancel_futures=True)

    def _backoff_s(self, attempts: int) -> float:
        return self.policy.retry_backoff_s * (2 ** (attempts - 1))

    def _abandon_observers(self) -> None:
        """Close the tracer's file without writing footers/manifests —
        the next (resumed) run rewrites them whole."""
        if self._tracer is not None:
            self._tracer.writer.close()
            self._tracer = None

    def _check_cancelled(self) -> None:
        if self.cancel is not None and self.cancel():
            raise CampaignCancelled("campaign cancelled")

    # ------------------------------------------------------------------
    # journal wiring
    # ------------------------------------------------------------------
    def _open_journal(
        self, units: Sequence[WorkUnit], records: Dict[str, TaskRecord]
    ) -> Optional[RunJournal]:
        if self.journal_path is None:
            return None
        campaign_fp = fingerprint(sorted(u.key for u in units))
        fresh = True
        if self.resume:
            state = load_journal(self.journal_path)
            check_spec_fingerprint(state, self.journal_path, self.spec_fingerprint)
            fresh = state.header is None and not state.tasks
            for unit in units:
                entry = state.tasks.get(unit.key)
                if entry is None or entry.get("status") != "ok":
                    continue
                records[unit.key] = TaskRecord(
                    key=unit.key,
                    status="ok",
                    attempts=int(entry.get("attempts", 1)),
                    elapsed_s=float(entry.get("elapsed_s", 0.0)),
                    worker=entry.get("worker"),
                    result=self.decode(entry.get("result")),
                    cached=True,
                )
        elif self.journal_path.exists():
            self.journal_path.unlink()
        journal = RunJournal(self.journal_path)
        if fresh:
            journal.write_header(
                campaign_fp, total=len(units), spec_fingerprint=self.spec_fingerprint
            )
        return journal

    # ------------------------------------------------------------------
    # settling
    # ------------------------------------------------------------------
    def _make_settler(
        self,
        records: Dict[str, TaskRecord],
        journal: Optional[RunJournal],
        summary: CampaignSummary,
        total: int,
        started: float,
    ) -> Callable[[TaskRecord], None]:
        def settle(record: TaskRecord) -> None:
            records[record.key] = record
            summary.executed += 1
            if record.error is not None:
                summary.errors += 1
            if record.worker is not None:
                summary.per_worker_tasks[record.worker] = (
                    summary.per_worker_tasks.get(record.worker, 0) + 1
                )
                summary.per_worker_busy_s[record.worker] = (
                    summary.per_worker_busy_s.get(record.worker, 0.0)
                    + record.elapsed_s
                )
            summary.busy_time_s += record.elapsed_s
            if self._tracer is not None:
                self._tracer.task_settled(
                    record.key,
                    record.status,
                    record.attempts,
                    record.elapsed_s,
                    record.worker,
                    record.cached,
                )
            if journal is not None:
                if record.ok:
                    journal.append_task(
                        record.key,
                        "ok",
                        record.attempts,
                        record.elapsed_s,
                        worker=record.worker,
                        result=self.encode(record.result),
                    )
                else:
                    journal.append_task(
                        record.key,
                        "error",
                        record.attempts,
                        record.elapsed_s,
                        worker=record.worker,
                        error=record.error.message,
                        error_type=record.error.error_type,
                    )
            self._emit_finished(record, len(records), total, started)

        return settle

    def _emit(self, event: ProgressEvent) -> None:
        if self._tracer is not None and event.kind == TASK_RETRY:
            self._tracer.task_retry(event.key or "?", event.attempts)
        if self.progress is not None:
            self.progress(event)

    def _emit_finished(
        self, record: TaskRecord, done: int, total: int, started: float
    ) -> None:
        self._emit(
            ProgressEvent(
                kind=TASK_FINISHED,
                total=total,
                done=done,
                key=record.key,
                status=record.status,
                attempts=record.attempts,
                elapsed_s=record.elapsed_s,
                cached=record.cached,
                wall_s=time.perf_counter() - started,
            )
        )

    def _make_retry_recorder(
        self, summary: CampaignSummary
    ) -> Callable[[str, int], None]:
        """Each retry is reported here; the engine counts and traces it."""

        def record_retry(key: str, attempts: int) -> None:
            summary.retries += 1
            self._emit(
                ProgressEvent(
                    kind=TASK_RETRY,
                    total=summary.total,
                    key=key,
                    attempts=attempts,
                )
            )

        return record_retry

