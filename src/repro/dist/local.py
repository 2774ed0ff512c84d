"""The reference executor backend: forked process pool + serial fallback.

This is the execution half that used to live inside
:class:`~repro.exec.engine.CampaignEngine`, re-homed behind the
:class:`~repro.dist.backend.ExecutorBackend` interface with identical
behaviour: each unit is one worker call under its own SIGALRM deadline,
with bounded retries and exponential backoff, and ``BrokenProcessPool``
recovery by pool rebuild.  ``jobs=1`` (or a platform without ``fork``)
runs everything in-process, deterministically.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Sequence, Tuple

from ..exec.engine import EnginePolicy, TaskRecord, _fork_available, _task_entry
from ..exec.work import WorkUnit
from .backend import ExecutionContext, ExecutorBackend, error_record

__all__ = ["LocalPoolBackend"]


class LocalPoolBackend(ExecutorBackend):
    """Single-host execution: forked worker pool or in-process loop.

    Stateless across ``execute`` calls — the pool is built per call and
    torn down before returning — so one instance serves any number of
    campaigns and ``close`` has nothing to release.
    """

    name = "local"

    def plan(self, policy: EnginePolicy) -> "Tuple[str, int]":
        use_pool = policy.jobs > 1 and _fork_available()
        return ("process-pool", policy.jobs) if use_pool else ("serial", 1)

    def execute(
        self, pending: Sequence[WorkUnit], ctx: ExecutionContext
    ) -> None:
        if not pending:
            return
        if ctx.policy.jobs > 1 and _fork_available():
            self._run_pool(pending, ctx)
        else:
            self._run_serial(pending, ctx)

    # ------------------------------------------------------------------
    # serial (in-process) execution
    # ------------------------------------------------------------------
    def _run_serial(
        self, pending: Sequence[WorkUnit], ctx: ExecutionContext
    ) -> None:
        policy = ctx.policy
        for unit in pending:
            ctx.check_cancelled()
            attempts = 0
            while True:
                attempts += 1
                attempt_started = time.perf_counter()
                try:
                    result, worker, elapsed = _task_entry(
                        ctx.fn, unit.payload, policy.timeout_s
                    )
                except Exception as exc:  # noqa: BLE001 - tasks are user code
                    elapsed = time.perf_counter() - attempt_started
                    if attempts <= policy.max_retries:
                        ctx.record_retry(unit.key, attempts)
                        time.sleep(ctx.backoff(attempts))
                        continue
                    ctx.settle(error_record(unit.key, attempts, exc, elapsed))
                    break
                ctx.settle(
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
        self, pending: Sequence[WorkUnit], ctx: ExecutionContext
    ) -> None:
        policy = ctx.policy
        context = multiprocessing.get_context("fork")
        executor = ProcessPoolExecutor(
            max_workers=policy.jobs, mp_context=context
        )
        in_flight: Dict[Future, Tuple[WorkUnit, int]] = {}
        retry_queue: List[Tuple[float, WorkUnit, int]] = []  # (due, unit, attempts)

        def submit(unit: WorkUnit, attempts: int) -> None:
            try:
                future = executor.submit(
                    _task_entry, ctx.fn, unit.payload, policy.timeout_s
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
                ctx.record_retry(unit.key, attempts)
                retry_queue.append(
                    (time.monotonic() + ctx.backoff(attempts), unit, attempts)
                )
            else:
                ctx.settle(error_record(unit.key, attempts, exc, 0.0))

        try:
            for unit in pending:
                submit(unit, 0)
            while in_flight or retry_queue:
                ctx.check_cancelled()
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
                if ctx.cancellable:
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
                        ctx.settle(
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
