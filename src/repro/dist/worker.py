"""The host worker loop behind ``python -m repro.dist worker``.

One worker process per simulated "host": it polls the spool for
unclaimed task files, claims one exclusively, calls ``fn(payload)`` for
the task's one unit under a SIGALRM deadline, and appends one outcome
line to its own journal at ``outcomes/<host>.jsonl``.
Crash-consistency is the coordinator's problem by design — a worker
holds no state the spool does not: if it is SIGKILLed mid-task, its
heartbeat goes stale, the coordinator expires the claim and requeues
the unit.

The worker appends outcomes *before* deleting anything and never touches
the task or claim files of a finished task — the coordinator consumes
the outcome, then retires the task and claim.  That ordering is what
makes a kill at any instruction safe: the worst case is a completed
outcome whose claim also gets reclaimed, which the coordinator's
dedup-on-settle collapses to a single settle.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..exec.engine import _call_with_deadline
from .spool import Spool, TaskUnreadable

__all__ = ["run_worker", "alias_main_module"]


def alias_main_module(module_name: str) -> None:
    """Make ``__main__.X`` pickle references resolve to ``module_name``.

    A coordinator started as ``python -m some.module`` pickles that
    module's functions and classes under ``__main__`` — a name that means
    something else in every worker.  The coordinator therefore passes its
    ``__main__.__spec__.name`` along, and the worker aliases its own
    ``__main__`` to the canonically-imported module before touching any
    task file (the same trick ``multiprocessing``'s spawn mode plays with
    ``__mp_main__``).
    """
    sys.modules["__main__"] = importlib.import_module(module_name)


def _outcome(task: "Dict[str, Any]", host: str, claim_fp: str) -> "Dict[str, Any]":
    """Execute one claimed task; its journal-shaped outcome line."""
    # Results cross the host boundary as JSON, so the coordinator ships
    # its (module-level, picklable) encode hook along with the task;
    # ``None`` means results are JSON-ready as-is.
    encode = task.get("encode") or (lambda value: value)
    base = {
        "kind": "task",
        "worker": host,
        "claim": claim_fp,
        "task": task["name"],
        "key": task["key"],
        "attempts": 1,
    }
    started = time.perf_counter()
    try:
        result = _call_with_deadline(
            task["fn"], task["payload"], task.get("timeout_s")
        )
    except Exception as exc:  # noqa: BLE001 - tasks are user code
        # The coordinator's retry budget decides what happens next.
        return dict(
            base,
            status="error",
            elapsed_s=round(time.perf_counter() - started, 6),
            error=str(exc) or repr(exc),
            error_type=type(exc).__name__,
        )
    return dict(
        base,
        status="ok",
        elapsed_s=round(time.perf_counter() - started, 6),
        result=encode(result),
    )


def run_worker(
    spool_root: "str | Path",
    host: str,
    *,
    poll_s: float = 0.05,
    heartbeat_s: float = 0.5,
    once: bool = False,
    main_alias: "Optional[str]" = None,
) -> int:
    """Drain tasks from the spool until the stop file appears.

    ``once`` processes at most one claimed task and returns — the unit
    tests use it to drive the protocol deterministically.  Returns the
    number of tasks executed.
    """
    if main_alias:
        alias_main_module(main_alias)
    spool = Spool(spool_root).ensure()
    spool.heartbeat(host)
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.wait(heartbeat_s):
            spool.heartbeat(host)

    beater = threading.Thread(target=beat, name=f"heartbeat-{host}", daemon=True)
    beater.start()
    executed = 0
    try:
        while not spool.stop_requested():
            claimed = None
            for name in spool.claimable():
                claim_fp = spool.try_claim(name, host)
                if claim_fp is None:
                    continue  # another host won the race
                try:
                    task = spool.read_task(name)
                except TaskUnreadable as exc:
                    # Can't even learn the unit's key, so journal a
                    # keyless task_failure; the coordinator maps it back
                    # to the unit it enqueued and fails/retries it.
                    spool.append_outcome(
                        host,
                        {
                            "kind": "task_failure",
                            "task": name,
                            "worker": host,
                            "claim": claim_fp,
                            "error": str(exc),
                            "error_type": type(exc).__name__,
                        },
                    )
                    continue
                if task is None:
                    # Task retired between listing and claim; drop our
                    # stale claim so nothing looks leased.
                    spool.release_claim(name)
                    continue
                claimed = (name, task, claim_fp)
                break
            if claimed is None:
                if once:
                    return executed
                time.sleep(poll_s)
                continue
            name, task, claim_fp = claimed
            spool.append_outcome(host, _outcome(task, host, claim_fp))
            executed += 1
            # The coordinator retires the task/claim after consuming the
            # outcome; leaving them in place keeps the claim as the
            # "in flight or done, not re-claimable" marker.
            if once:
                return executed
        return executed
    finally:
        stop_beating.set()
        beater.join(timeout=heartbeat_s * 2)
