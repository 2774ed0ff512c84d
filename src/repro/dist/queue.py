"""The multi-host queue backend: leases, heartbeats, exactly-once settle.

:class:`QueueBackend` shards a campaign over N "host" worker processes
(``python -m repro.dist worker``) that share nothing but the on-disk
:class:`~repro.dist.spool.Spool`.  The coordinator:

* enqueues each pending unit as one task file (retries and reclaims
  get a fresh task) and spawns/reuses the worker fleet;
* consumes per-host outcome journals incrementally (complete lines
  only) and settles each unit **exactly once** — a key that already
  settled is counted as a dedup, not settled again, so the
  reclaim-vs-slow-worker race can never double a result;
* expires the lease of any claim whose worker died or whose heartbeat
  went stale, releases the claim and requeues its unit if unsettled;
* bounds requeues per unit: past ``max_requeues`` the unit is
  quarantined as a ``PoisonUnit`` error outcome (journaled evidence in
  ``quarantine.jsonl``) instead of crash-looping the fleet forever;
* respawns dead workers up to ``respawn_limit`` so a SIGKILLed host
  does not shrink capacity for the rest of the campaign.

Determinism: a unit's result is a function of its payload alone (the
engine's core contract), so *which* host runs it — or how many times it
was reclaimed first — cannot change the settled record beyond the
``wall_time_s``/``trace_file``-class fields the campaign report already
excludes.  Results cross the host boundary through the same
``encode``/``decode`` hooks the resume journal uses, a round-trip the
test suite already pins byte-identical.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exec.engine import EnginePolicy, TaskError, TaskRecord
from ..exec.work import WorkUnit, fingerprint
from ..obs.telemetry import TelemetryRegistry
from .backend import ExecutionContext, ExecutorBackend
from .spool import Spool, read_complete_lines

__all__ = ["QueueBackend", "PoisonUnitError"]


class PoisonUnitError(Exception):
    """A unit exhausted its requeue budget (kept killing its workers)."""


def _worker_env() -> "Dict[str, str]":
    """Environment for a spawned worker: parent's, with the parent's
    ``sys.path`` exported so ``repro`` (and test task modules) import the
    same way they do here — workers are fresh interpreters, not forks."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


def _main_alias() -> "Optional[str]":
    """The coordinator's ``python -m`` module name, if it has one.

    Objects defined in a ``-m``-launched module pickle under
    ``__main__``; workers alias their own ``__main__`` to this canonical
    name so those references resolve (see
    :func:`repro.dist.worker.alias_main_module`).
    """
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    name = getattr(spec, "name", None)
    return name if isinstance(name, str) and name else None


class QueueBackend(ExecutorBackend):
    """Distribute work units to host worker processes over a spool.

    Args:
        hosts: worker process count (the simulated host fleet).
        spool: spool directory; ``None`` uses an ephemeral temp spool
            removed on ``close``.  A durable spool is what lets obs
            tooling audit the run afterwards.
        lease_timeout_s: heartbeat staleness past which a claim's lease
            is expired and its unit, if unsettled, reclaimed.
        heartbeat_s: worker heartbeat interval (must be well under the
            lease timeout).
        poll_s: coordinator/worker poll interval.
        max_requeues: lease reclaims tolerated per unit before it is
            quarantined as poison.  This bounds *infrastructure* retries;
            task-level errors are bounded separately by
            ``EnginePolicy.max_retries``.
        manage_workers: spawn and reap the fleet (tests drive workers
            in-process with ``manage_workers=False``).
        respawn_limit: total worker respawns allowed per backend.
        telemetry: optional registry for ``dist.*`` counters in addition
            to the engine's per-campaign registry.
    """

    name = "queue"

    def __init__(
        self,
        hosts: int = 2,
        *,
        spool: "str | Path | None" = None,
        lease_timeout_s: float = 5.0,
        heartbeat_s: float = 0.5,
        poll_s: float = 0.05,
        max_requeues: int = 3,
        manage_workers: bool = True,
        respawn_limit: int = 3,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        if hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        self.hosts = hosts
        self._ephemeral = spool is None
        root = tempfile.mkdtemp(prefix="repro-dist-") if spool is None else spool
        self.spool = Spool(root).ensure()
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.max_requeues = max_requeues
        self.manage_workers = manage_workers
        self.respawn_limit = respawn_limit
        self.telemetry = telemetry
        self._procs: "Dict[str, subprocess.Popen]" = {}
        self._respawns = 0
        self._offsets: "Dict[str, int]" = {}
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # ExecutorBackend interface
    # ------------------------------------------------------------------
    def plan(self, policy: EnginePolicy) -> "Tuple[str, int]":
        return ("queue", self.hosts)

    def execute(
        self, pending: Sequence[WorkUnit], ctx: ExecutionContext
    ) -> None:
        if self._closed:
            raise RuntimeError("QueueBackend is closed")
        pending = list(pending)
        if not pending:
            return
        self.spool.clear_stop()
        # A durable spool can carry task/claim files from a campaign that
        # crashed mid-run; the engine journal (not the spool) is the
        # resume source of truth, so queue state starts clean.  Outcome
        # journals are kept — they are audit evidence, and lines for keys
        # outside this run's pending set are ignored on drain.
        for name in self.spool.task_names():
            self.spool.remove_task(name)
        for name in self.spool.claimed_names():
            self.spool.release_claim(name)
        self.spool.write_manifest(
            self.hosts,
            trace_dir=ctx.trace_dir,
            journal=ctx.journal_path,
        )
        encode = self._picklable_encode(ctx)
        units = {u.key: u for u in pending}
        # task name -> the unit key it carries, for lease reclaim
        task_keys: "Dict[str, str]" = {}
        settled: "set[str]" = set()
        attempts: "Dict[str, int]" = {}
        requeues: "Dict[str, int]" = {}
        retry_due: "List[Tuple[float, WorkUnit]]" = []

        def enqueue(unit: WorkUnit) -> None:
            self._seq += 1
            name = "{:06d}-{}".format(self._seq, fingerprint(unit.key)[:12])
            self.spool.enqueue(
                name, unit.key, unit.payload, ctx.fn, ctx.policy.timeout_s,
                encode=encode,
            )
            task_keys[name] = unit.key

        for unit in pending:
            enqueue(unit)
        if self.manage_workers:
            self._ensure_fleet()
        # The fleet stays up across execute() calls (the search driver
        # runs one engine per batch against this backend); close() owns
        # teardown.  Tasks and claims retire inside the loop as their
        # units settle.
        while len(settled) < len(units):
            progressed = self._drain_outcomes(
                ctx, units, settled, attempts, task_keys, retry_due
            )
            progressed |= self._requeue_due(retry_due, enqueue)
            progressed |= self._reclaim_expired(
                ctx, units, settled, requeues, task_keys, enqueue
            )
            if self.manage_workers:
                self._manage_fleet(len(settled) < len(units))
            live = float(self._live_hosts())
            for registry in (self.telemetry, ctx.telemetry):
                if registry is not None:
                    registry.gauge("dist_hosts_live").set(live)
            ctx.check_cancelled()
            if not progressed:
                time.sleep(self.poll_s)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.spool.request_stop()
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in self._procs.values():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
        if self._ephemeral:
            shutil.rmtree(self.spool.root, ignore_errors=True)

    # ------------------------------------------------------------------
    # outcome consumption (exactly-once settle)
    # ------------------------------------------------------------------
    def _picklable_encode(self, ctx: ExecutionContext) -> "Optional[Any]":
        """The encode hook iff it can cross the process boundary.

        The engine's default hook is an identity lambda, which does not
        pickle; shipping ``None`` makes the worker journal results as-is,
        which is exactly what identity encoding means.
        """
        try:
            pickle.dumps(ctx.encode)
        except Exception:  # noqa: BLE001 - unpicklable == default identity
            return None
        return ctx.encode

    def _bump(self, ctx: ExecutionContext, instrument: str, n: int = 1) -> None:
        for registry in (self.telemetry, ctx.telemetry):
            if registry is not None:
                registry.counter(instrument).inc(n)

    def _drain_outcomes(
        self,
        ctx: ExecutionContext,
        units: "Dict[str, WorkUnit]",
        settled: "set[str]",
        attempts: "Dict[str, int]",
        task_keys: "Dict[str, str]",
        retry_due: "List[Tuple[float, WorkUnit]]",
    ) -> bool:
        progressed = False
        for host in self.spool.outcome_hosts():
            path = self.spool.outcome_path(host)
            lines, offset = read_complete_lines(
                path, self._offsets.get(str(path), 0)
            )
            self._offsets[str(path)] = offset
            for raw in lines:
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue
                if not isinstance(record, dict):
                    continue
                progressed |= self._consume_outcome(
                    record, ctx, units, settled, attempts, task_keys, retry_due
                )
        return progressed

    def _consume_outcome(
        self,
        record: "Dict[str, Any]",
        ctx: ExecutionContext,
        units: "Dict[str, WorkUnit]",
        settled: "set[str]",
        attempts: "Dict[str, int]",
        task_keys: "Dict[str, str]",
        retry_due: "List[Tuple[float, WorkUnit]]",
    ) -> bool:
        task_name = record.get("task")
        if not isinstance(task_name, str):
            task_name = None
        if record.get("kind") == "task_failure":
            # The worker claimed the task but could not even read it
            # (unpicklable payload); route its unit through the normal
            # error/retry path.
            record = dict(
                record,
                key=task_keys.get(task_name) if task_name else None,
                status="error",
                error=record.get("error") or "task unreadable",
                error_type=record.get("error_type") or "TaskUnreadable",
            )
        key = record.get("key")
        if not isinstance(key, str) or key not in units:
            return False  # stale line from an earlier execute() call
        # Whatever the outcome says, its task is done: a retry runs under
        # a new task, so the old one must not stay claimable.
        self._retire(task_name, task_keys)
        if key in settled:
            # The reclaim-vs-slow-worker race: the unit already settled
            # (first outcome wins); this late duplicate is evidence the
            # dedup did its job, not a second result.
            self._bump(ctx, "dist.outcomes_deduped")
            return False
        attempts[key] = attempts.get(key, 0) + 1
        if record.get("status") == "ok":
            ctx.settle(
                TaskRecord(
                    key=key,
                    status="ok",
                    attempts=attempts[key],
                    elapsed_s=float(record.get("elapsed_s", 0.0)),
                    worker=record.get("worker"),
                    result=ctx.decode(record.get("result")),
                )
            )
            settled.add(key)
            return True
        # task-level error: bounded by the engine's retry policy
        if attempts[key] <= ctx.policy.max_retries:
            ctx.record_retry(key, attempts[key])
            self._bump(ctx, "dist.units_requeued")
            retry_due.append(
                (time.monotonic() + ctx.backoff(attempts[key]), units[key])
            )
            return True
        error = TaskError(
            key=key,
            error_type=str(record.get("error_type") or "TaskError"),
            message=str(record.get("error") or "task failed"),
            attempts=attempts[key],
        )
        ctx.settle(
            TaskRecord(
                key=key,
                status="error",
                attempts=attempts[key],
                elapsed_s=float(record.get("elapsed_s", 0.0)),
                worker=record.get("worker"),
                error=error,
            )
        )
        settled.add(key)
        return True

    def _retire(
        self, task_name: "Optional[str]", task_keys: "Dict[str, str]"
    ) -> None:
        """Delete a consumed task's file and claim."""
        if task_name is not None and task_keys.pop(task_name, None) is not None:
            self.spool.remove_task(task_name)
            self.spool.release_claim(task_name)

    def _requeue_due(
        self,
        retry_due: "List[Tuple[float, WorkUnit]]",
        enqueue: Any,
    ) -> bool:
        now = time.monotonic()
        due = [entry for entry in retry_due if entry[0] <= now]
        if not due:
            return False
        retry_due[:] = [entry for entry in retry_due if entry[0] > now]
        for _, unit in due:
            enqueue(unit)
        return True

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def _lease_expired(self, claim: "Dict[str, Any]", task_name: str) -> bool:
        host = claim.get("host")
        if isinstance(host, str):
            proc = self._procs.get(host)
            if proc is not None and proc.poll() is not None:
                return True  # the claiming worker is dead, no need to wait
            age = self.spool.heartbeat_age_s(host)
            if age is not None:
                return age > self.lease_timeout_s
        age = self.spool.claim_age_s(task_name)
        return age is not None and age > self.lease_timeout_s

    def _reclaim_expired(
        self,
        ctx: ExecutionContext,
        units: "Dict[str, WorkUnit]",
        settled: "set[str]",
        requeues: "Dict[str, int]",
        task_keys: "Dict[str, str]",
        enqueue: Any,
    ) -> bool:
        progressed = False
        for task_name in self.spool.claimed_names():
            key = task_keys.get(task_name)
            if key is None:
                continue  # stale claim from an earlier campaign
            claim = self.spool.read_claim(task_name)
            if claim is None or not self._lease_expired(claim, task_name):
                continue
            self._bump(ctx, "dist.leases_expired")
            # An outcome the dying worker journaled before the kill is
            # consumed on the next drain; reclaim only if the unit is
            # unsettled *now* — drain first so the window is as small as
            # the race itself (the dedup guard covers whatever remains).
            self._retire(task_name, task_keys)
            progressed = True
            if key in settled:
                continue
            requeues[key] = requeues.get(key, 0) + 1
            if requeues[key] > self.max_requeues:
                self._quarantine(ctx, units[key], requeues[key], settled)
            else:
                self._bump(ctx, "dist.units_reclaimed")
                enqueue(units[key])
        return progressed

    def _quarantine(
        self,
        ctx: ExecutionContext,
        unit: WorkUnit,
        requeue_count: int,
        settled: "set[str]",
    ) -> None:
        message = (
            f"unit reclaimed {requeue_count} times (max_requeues="
            f"{self.max_requeues}); quarantined as poison"
        )
        self._bump(ctx, "dist.units_quarantined")
        self.spool.append_quarantine(
            {"key": unit.key, "requeues": requeue_count, "reason": message}
        )
        ctx.settle(
            TaskRecord(
                key=unit.key,
                status="error",
                attempts=requeue_count,
                elapsed_s=0.0,
                error=TaskError(
                    key=unit.key,
                    error_type=PoisonUnitError.__name__,
                    message=message,
                    attempts=requeue_count,
                ),
            )
        )
        settled.add(unit.key)

    # ------------------------------------------------------------------
    # the fleet
    # ------------------------------------------------------------------
    def _host_names(self) -> "List[str]":
        return [f"host{i}" for i in range(self.hosts)]

    def _spawn(self, host: str) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro.dist",
            "worker",
            "--spool",
            str(self.spool.root),
            "--host",
            host,
            "--poll-s",
            str(self.poll_s),
            "--heartbeat-s",
            str(self.heartbeat_s),
        ]
        alias = _main_alias()
        if alias and alias != "repro.dist.__main__":
            argv += ["--main-alias", alias]
        log = self.spool.worker_log_path(host).open("ab")
        try:
            self._procs[host] = subprocess.Popen(
                argv,
                env=_worker_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()  # the child holds its own descriptor

    def _ensure_fleet(self) -> None:
        for host in self._host_names():
            proc = self._procs.get(host)
            if proc is None or proc.poll() is not None:
                if proc is not None:
                    self._respawns += 1
                self._spawn(host)

    def _manage_fleet(self, work_remains: bool) -> None:
        dead = [
            host
            for host, proc in self._procs.items()
            if proc.poll() is not None
        ]
        for host in dead:
            if self._respawns >= self.respawn_limit:
                continue
            self._respawns += 1
            self._bump_standalone("dist.workers_respawned")
            self._spawn(host)
        if work_remains and all(
            proc.poll() is not None for proc in self._procs.values()
        ):
            raise RuntimeError(
                "every queue-backend worker is dead and the respawn budget "
                f"({self.respawn_limit}) is exhausted; see worker logs under "
                f"{self.spool.workers_dir}"
            )

    def _bump_standalone(self, instrument: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(instrument).inc()

    def _live_hosts(self) -> int:
        live = 0
        for host in self._host_names():
            age = self.spool.heartbeat_age_s(host)
            if age is not None and age <= self.lease_timeout_s:
                live += 1
        return live

    def kill_worker(self, host: str, sig: int = signal.SIGKILL) -> "Optional[int]":
        """Send ``sig`` to one managed worker (fault-injection hook for
        tests and chaos drills); the worker's pid, or ``None``."""
        proc = self._procs.get(host)
        if proc is None or proc.poll() is not None:
            return None
        proc.send_signal(sig)
        return proc.pid
