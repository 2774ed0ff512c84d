"""The campaign scheduler: priority dispatch onto a global worker budget.

One dispatcher thread pops queued jobs whose requested engine fan-out
fits the free worker slots (priority order, with backfill so a wide job
never starves narrow ones indefinitely) and hands each to its own runner
thread.  The runner drives the job's kind function — which runs the
existing :class:`~repro.exec.CampaignEngine` / search driver machinery,
journaled into the job's directory — and settles the record to
``done``/``failed``/``cancelled``.

Durability: every state change is saved through the
:class:`~repro.service.store.JobStore` *before* it is observable over
the API, and :meth:`Scheduler.recover` rebuilds the entire scheduler
state from the store on start — jobs found ``running`` were orphaned by
a dead server and go back on the queue; their kind runners resume from
the job directory's engine journal, so completed work is replayed, not
re-executed, and the final report is byte-identical to an uninterrupted
run.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from .. import __version__
from ..exec import CampaignCancelled, ProgressEvent
from ..exec.progress import CAMPAIGN_FINISHED, CAMPAIGN_STARTED, TASK_FINISHED, TASK_RETRY
from ..obs.telemetry import TelemetryRegistry
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobContext,
    JobRecord,
    JobSpec,
    get_job_kind,
)
from .queue import JobQueue
from .store import JobStore

logger = logging.getLogger(__name__)

#: Version stamp of the ``/v1/stats`` payload shape.
STATS_SCHEMA_VERSION = 1

#: Every lifecycle state, for per-state job-count gauges (a state with
#: zero jobs still exposes an explicit 0, so scrapers see absence).
ALL_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: The ``exec.*`` counter each engine progress event kind bumps.
_PROGRESS_COUNTERS = {
    CAMPAIGN_STARTED: "exec.campaigns_started",
    TASK_RETRY: "exec.unit_retries",
    TASK_FINISHED: "exec.units_finished",
    CAMPAIGN_FINISHED: "exec.campaigns_finished",
}


def _transition_latency(record: JobRecord, from_state: str) -> Optional[float]:
    """Seconds from the latest ``from_state`` entry to the last transition.

    Timestamps are wall-clock (they survive restarts in ``state.json``),
    so clamp at zero in case the clock stepped backwards between them.
    """
    if not record.transitions:
        return None
    last = record.transitions[-1]
    for entry in reversed(record.transitions[:-1]):
        if entry.get("state") == from_state:
            try:
                return max(float(last["at"]) - float(entry["at"]), 0.0)
            except (KeyError, TypeError, ValueError):
                return None
    return None


class Scheduler:
    """Dispatch submitted jobs onto a bounded worker-slot pool.

    Args:
        store: the durable job store (one directory per job).
        workers: global engine-slot budget shared by all running jobs; a
            job asking for ``jobs=4`` occupies 4 slots (clamped to the
            budget, so a too-wide request degrades instead of deadlocks).
        max_jobs: cap on *concurrently running* jobs regardless of width.

    The scheduler counts into the store's registry
    (:attr:`JobStore.telemetry`), which the HTTP layer shares.
    """

    def __init__(self, store: JobStore, *, workers: int = 2, max_jobs: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1, got {max_jobs}")
        self.store = store
        self.workers = workers
        self.max_jobs = max_jobs
        self.telemetry = store.telemetry
        self._started_at = time.monotonic()
        self.queue = JobQueue()
        self._cond = self.queue.condition
        self._free_slots = workers
        self._running: Dict[str, threading.Thread] = {}
        self._cancel_flags: Dict[str, threading.Event] = {}
        self._records: Dict[str, JobRecord] = {}
        self._user_cancelled: set = set()
        self._dispatcher: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Scheduler":
        self.recover()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="scheduler-dispatch", daemon=True
        )
        self._dispatcher.start()
        return self

    def stop(self, wait: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop dispatching; signal running jobs to cancel-at-checkpoint.

        Jobs interrupted here stay ``running`` on disk — a restarted
        server re-queues and resumes them from their journals (this is
        the graceful flavour of the kill-and-restart path, not a
        distinct state machine).
        """
        self._stopping.set()
        self.queue.close()
        with self._cond:
            runners = list(self._running.values())
            for flag in self._cancel_flags.values():
                flag.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
        if wait:
            for thread in runners:
                thread.join(timeout=timeout)

    def recover(self) -> List[str]:
        """Rebuild queue state from the store; returns re-queued job ids.

        ``queued`` jobs simply re-enter the queue.  ``running`` jobs were
        orphaned by a dead server: transition them back to ``queued``
        (the one backward edge in the state machine) and re-queue — their
        journals make the re-run a resume.
        """
        recovered: List[str] = []
        for record in self.store.list():
            if record.state == QUEUED:
                self._records[record.id] = record
                self.queue.push(record.id, record.spec.priority, record.seq)
            elif record.state == RUNNING:
                record.transition(QUEUED)
                self.store.save(record)
                self.store.append_event(
                    record.id,
                    {"kind": "job_recovered", "job": record.id,
                     "recovered": record.recovered},
                )
                self._records[record.id] = record
                self.queue.push(record.id, record.spec.priority, record.seq)
                self.telemetry.counter("service.jobs_recovered").inc()
                recovered.append(record.id)
            else:
                self._records[record.id] = record
        if recovered:
            logger.info("recovered %d orphaned job(s): %s",
                        len(recovered), ", ".join(recovered))
        return recovered

    # ------------------------------------------------------------------
    # submission / queries / cancellation
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        spec.validate()
        record = self.store.create(spec)
        self.store.append_event(
            record.id,
            {"kind": "job_queued", "job": record.id, "spec": spec.to_dict()},
        )
        with self._cond:
            self._records[record.id] = record
        self.queue.push(record.id, spec.priority, record.seq)
        self.telemetry.counter("service.jobs_submitted").inc()
        return record

    def job(self, job_id: str) -> JobRecord:
        with self._cond:
            record = self._records.get(job_id)
        if record is not None:
            return record
        return self.store.load(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._cond:
            known = dict(self._records)
        for record in self.store.list():
            known.setdefault(record.id, record)
        return sorted(known.values(), key=lambda r: r.seq)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: dequeue it, or flag a running one to stop.

        A running job settles to ``cancelled`` at its next engine
        checkpoint (between units) — already-journaled work is kept, so
        a later resubmission of the same spec resumes rather than
        restarts.  Terminal jobs are returned unchanged.
        """
        record = self.job(job_id)
        if record.terminal:
            return record
        with self._cond:
            if record.state == RUNNING:
                self._user_cancelled.add(job_id)
                flag = self._cancel_flags.get(job_id)
                if flag is not None:
                    flag.set()
                self.telemetry.counter("service.jobs_cancel_requested").inc()
                return record
        if self.queue.remove(job_id):
            # Event before state: a long-poller that observes a terminal
            # state must already be able to read the matching event.
            self.store.append_event(
                record.id, {"kind": "job_cancelled", "job": record.id}
            )
            record.transition(CANCELLED)
            self.store.save(record)
            self.telemetry.counter("service.jobs_cancelled").inc()
        return record

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def collect(self) -> TelemetryRegistry:
        """Refresh point-in-time gauges into the registry and return it.

        Counters and histograms accumulate as things happen; gauges
        (queue depth, slot occupancy, per-state job counts) are derived
        state, recomputed at observation time so ``/v1/metrics`` and
        ``/v1/stats`` never expose a stale or phantom value — after
        :meth:`recover`, the per-state counts reflect the store, not
        whatever a dead server last believed.
        """
        by_state = {state: 0 for state in ALL_STATES}
        with self._cond:
            for record in self._records.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            running = len(self._running)
            free = self._free_slots
        telemetry = self.telemetry
        telemetry.gauge("jobs.queue_depth").set(float(len(self.queue)))
        telemetry.gauge("jobs.running").set(float(running))
        for state, count in by_state.items():
            telemetry.gauge(f"jobs.state.{state}").set(float(count))
        telemetry.gauge("slots.free").set(float(free))
        telemetry.gauge("slots.busy").set(float(self.workers - free))
        telemetry.gauge("slots.total").set(float(self.workers))
        telemetry.gauge("service.uptime_s").set(self.uptime_s())
        return telemetry

    def stats(self) -> Dict[str, object]:
        telemetry = self.collect()
        with self._cond:
            running = sorted(self._running)
            free = self._free_slots
        return {
            "schema": STATS_SCHEMA_VERSION,
            "version": __version__,
            "uptime_s": round(self.uptime_s(), 3),
            "workers": self.workers,
            "free_slots": free,
            "max_jobs": self.max_jobs,
            "queued": self.queue.items(),
            "running": running,
            "telemetry": telemetry.snapshot(),
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _effective_jobs(self, record: JobRecord) -> int:
        return min(record.spec.jobs, self.workers)

    def _ready(self, job_id: str) -> bool:
        # Called under the queue/scheduler condition lock.
        if len(self._running) >= self.max_jobs:
            return False
        record = self._records.get(job_id)
        if record is None:
            return False
        return self._effective_jobs(record) <= self._free_slots

    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            job_id = self.queue.pop_ready(self._ready, timeout=1.0)
            if job_id is None:
                continue
            with self._cond:
                record = self._records[job_id]
                slots = self._effective_jobs(record)
                self._free_slots -= slots
                flag = threading.Event()
                self._cancel_flags[job_id] = flag
                thread = threading.Thread(
                    target=self._run_job,
                    args=(record, slots, flag),
                    name=f"job-{job_id}",
                    daemon=True,
                )
                self._running[job_id] = thread
            thread.start()

    def _run_job(self, record: JobRecord, slots: int, flag: threading.Event) -> None:
        job_id = record.id
        job_dir = self.store.job_dir(job_id)
        record.transition(RUNNING)
        self.store.save(record)
        self.store.append_event(
            job_id, {"kind": "job_started", "job": job_id, "slots": slots}
        )
        self.telemetry.counter("service.jobs_started").inc()
        wait_s = _transition_latency(record, QUEUED)
        if wait_s is not None:
            self.telemetry.histogram("jobs.wait_s").record(wait_s)

        def record_progress(event: ProgressEvent) -> None:
            self._count_progress(event)
            self.store.append_event(
                job_id,
                {
                    "kind": event.kind,
                    "job": job_id,
                    "done": event.done,
                    "total": event.total,
                    "key": event.key,
                    "status": event.status,
                    "cached": event.cached,
                },
            )
            # Save only on a change: campaign_finished repeats the counts
            # of the last task_finished.
            progress = (event.done, event.total)
            if any(progress) and progress != (record.progress_done, record.progress_total):
                record.progress_done, record.progress_total = progress
                self.store.save(record)

        ctx = JobContext(
            job_dir=job_dir,
            jobs=slots,
            progress=record_progress,
            cancel=flag.is_set,
            resolve_job_dir=self.store.job_dir,
        )
        try:
            kind = get_job_kind(record.spec.kind)
            result = kind.run(record.spec.spec, ctx)
        except CampaignCancelled:
            with self._cond:
                user_cancelled = job_id in self._user_cancelled
            if self._stopping.is_set() and not user_cancelled:
                # Graceful shutdown interrupted the job — back to the
                # queue: a restarted server resumes it from its journal.
                self._settle(record, slots, QUEUED)
                self.store.append_event(
                    job_id, {"kind": "job_interrupted", "job": job_id}
                )
                self.telemetry.counter("service.jobs_interrupted").inc()
            else:
                # Event before terminal state (see Scheduler.cancel).
                self.store.append_event(
                    job_id, {"kind": "job_cancelled", "job": job_id}
                )
                self._settle(record, slots, CANCELLED)
                self.telemetry.counter("service.jobs_cancelled").inc()
        except BaseException as exc:  # noqa: BLE001 - runner must settle the record
            detail = traceback.format_exc()
            error = f"{type(exc).__name__}: {exc}"
            self.store.write_error(job_id, detail)
            self.store.append_event(
                job_id, {"kind": "job_failed", "job": job_id, "error": error}
            )
            self._settle(record, slots, FAILED, error=error)
            self.telemetry.counter("service.jobs_failed").inc()
            logger.warning("job %s failed: %s", job_id, error)
        else:
            self.store.append_event(
                job_id, {"kind": "job_done", "job": job_id, "result": result}
            )
            self._settle(record, slots, DONE, result=result)
            self.telemetry.counter("service.jobs_done").inc()
        finally:
            # A no-op after _settle; returns the slots if settling raised.
            with self._cond:
                self._release(job_id, slots)
            run_s = _transition_latency(record, RUNNING)
            if run_s is not None:
                self.telemetry.histogram("jobs.run_s").record(run_s)
            self.queue.kick()

    def _count_progress(self, event: ProgressEvent) -> None:
        """Count an engine progress event into the ``exec.*`` counters."""
        counter = self.telemetry.counter
        name = _PROGRESS_COUNTERS.get(event.kind)
        if name is not None:
            counter(name).inc()
        if event.kind == TASK_FINISHED:
            if event.cached:
                counter("exec.units_cached").inc()
            if event.status and event.status != "ok":
                counter("exec.units_failed").inc()

    def _settle(self, record: JobRecord, slots: int, state: str, **fields: Any) -> None:
        """Move a job out of ``running``: transition, save, release slots.

        One critical section under the scheduler lock, so a reader
        (``collect()``, ``job()``) sees either a running job holding its
        slots or a settled job holding none — never a settled job still
        counted as running.
        """
        with self._cond:
            record.transition(state, **fields)
            self.store.save(record)
            self._release(record.id, slots)

    def _release(self, job_id: str, slots: int) -> None:
        # Called under the scheduler lock; idempotent.
        if self._running.pop(job_id, None) is not None:
            self._free_slots += slots
        self._cancel_flags.pop(job_id, None)
