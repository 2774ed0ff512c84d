"""The on-disk work-queue spool shared by coordinator and host workers.

A spool is a directory — the only channel between the
:class:`~repro.dist.queue.QueueBackend` coordinator and its host worker
processes (no shared memory, no sockets), so the same layout would work
over a shared filesystem between real machines:

```
<spool>/
  spool.json          manifest: kind/schema, host count, audit pointers
  tasks/              one pickled task file per enqueued unit
  claims/<task>.claim exclusive claim (O_CREAT|O_EXCL) by one host
  hearts/<host>.json  worker heartbeat, freshness via mtime
  outcomes/<host>.jsonl  append-only per-host outcome journal
  quarantine.jsonl    units that exhausted their requeue budget
  workers/<host>.log  worker stderr, for post-mortems
  stop                existence = workers drain and exit
```

Protocol invariants the helpers here enforce:

* **claims are exclusive** — ``try_claim`` creates the claim file with
  ``O_CREAT | O_EXCL``, so exactly one host wins a task even when many
  poll at once; the claim records the host, its pid and a random claim
  fingerprint that travels into every outcome line the claim produces;
* **task files are atomic** — written to a temp name and ``os.replace``d
  in, so a worker never observes a half-written pickle;
* **outcome journals are append-only and torn-tail safe** — one JSON
  line per executed task, flushed and fsynced; readers consume
  *complete* lines only (byte offsets + ``rpartition(b"\\n")``), so a
  worker SIGKILLed mid-append never corrupts the coordinator's view;
* **heartbeats are cheap liveness** — an atomically-replaced file whose
  ``st_mtime`` age the coordinator compares against the lease timeout.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..jsonutil import dumps as strict_dumps

#: Manifest file name — obs tooling sniffs this to recognize a spool.
SPOOL_MANIFEST_NAME = "spool.json"
SPOOL_KIND = "dist_spool"
SPOOL_VERSION = 1

TASK_SUFFIX = ".task"
CLAIM_SUFFIX = ".claim"
OUTCOME_SUFFIX = ".jsonl"
QUARANTINE_NAME = "quarantine.jsonl"
STOP_NAME = "stop"


class TaskUnreadable(Exception):
    """A claimed task file exists but cannot be unpickled."""


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def read_complete_lines(
    path: Path, offset: int = 0
) -> "Tuple[List[bytes], int]":
    """Complete (newline-terminated) lines past ``offset``, plus the new offset.

    The torn tail a crashed writer leaves behind stays unconsumed: the
    returned offset stops at the last newline, so a later call re-reads
    the tail once (if ever) it is completed.
    """
    try:
        with path.open("rb") as fh:
            fh.seek(offset)
            blob = fh.read()
    except FileNotFoundError:
        return [], offset
    complete, sep, _ = blob.rpartition(b"\n")
    if not sep:
        return [], offset
    lines = [line for line in complete.split(b"\n") if line.strip()]
    return lines, offset + len(complete) + len(sep)


class Spool:
    """One spool directory: path layout plus the protocol primitives."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.hearts_dir = self.root / "hearts"
        self.outcomes_dir = self.root / "outcomes"
        self.workers_dir = self.root / "workers"
        self.manifest_path = self.root / SPOOL_MANIFEST_NAME
        self.quarantine_path = self.root / QUARANTINE_NAME
        self.stop_path = self.root / STOP_NAME

    def ensure(self) -> "Spool":
        for directory in (
            self.tasks_dir,
            self.claims_dir,
            self.hearts_dir,
            self.outcomes_dir,
            self.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def write_manifest(
        self,
        hosts: int,
        trace_dir: "str | Path | None" = None,
        journal: "str | Path | None" = None,
    ) -> None:
        record: Dict[str, Any] = {
            "kind": SPOOL_KIND,
            "version": SPOOL_VERSION,
            "hosts": hosts,
        }
        if trace_dir is not None:
            record["trace_dir"] = str(trace_dir)
        if journal is not None:
            record["journal"] = str(journal)
        _atomic_write_bytes(
            self.manifest_path,
            (strict_dumps(record, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )

    def read_manifest(self) -> "Optional[Dict[str, Any]]":
        try:
            record = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if isinstance(record, dict) and record.get("kind") == SPOOL_KIND:
            return record
        return None

    # ------------------------------------------------------------------
    # tasks
    # ------------------------------------------------------------------
    def enqueue(
        self,
        name: str,
        key: str,
        payload: Any,
        fn: Callable[[Any], Any],
        timeout_s: Optional[float],
        encode: "Optional[Callable[[Any], Any]]" = None,
    ) -> None:
        """Write one task file: one unit's key and payload plus the worker
        callable (module-level, hence picklable), the result encode hook
        (``None`` = results are JSON-ready) and the unit's deadline."""
        task = {
            "name": name,
            "key": key,
            "payload": payload,
            "fn": fn,
            "timeout_s": timeout_s,
            "encode": encode,
        }
        _atomic_write_bytes(
            self.tasks_dir / (name + TASK_SUFFIX), pickle.dumps(task)
        )

    def task_names(self) -> "List[str]":
        try:
            entries = os.listdir(self.tasks_dir)
        except FileNotFoundError:
            return []
        return sorted(
            entry[: -len(TASK_SUFFIX)]
            for entry in entries
            if entry.endswith(TASK_SUFFIX)
        )

    def read_task(self, name: str) -> "Optional[Dict[str, Any]]":
        """The task, ``None`` if retired, or :class:`TaskUnreadable`.

        A missing file is the benign claim-vs-retire race; a file that
        will not unpickle (e.g. its worker callable lives in a module the
        worker cannot import) raises so callers surface it instead of
        silently cycling claim/release forever.
        """
        try:
            blob = (self.tasks_dir / (name + TASK_SUFFIX)).read_bytes()
        except FileNotFoundError:
            return None
        try:
            task = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 - surface, don't cycle
            raise TaskUnreadable(f"task {name} will not unpickle: {exc}") from exc
        if not isinstance(task, dict):
            raise TaskUnreadable(f"task {name} is not a task mapping")
        return task

    def remove_task(self, name: str) -> None:
        try:
            (self.tasks_dir / (name + TASK_SUFFIX)).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # claims
    # ------------------------------------------------------------------
    def try_claim(self, name: str, host: str) -> "Optional[str]":
        """Claim a task for ``host``; the claim fingerprint, or ``None`` if
        another host already holds it."""
        claim_fp = os.urandom(8).hex()
        record = {"task": name, "host": host, "pid": os.getpid(), "claim": claim_fp}
        path = self.claims_dir / (name + CLAIM_SUFFIX)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return None
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(strict_dumps(record, sort_keys=True) + "\n")
        return claim_fp

    def read_claim(self, name: str) -> "Optional[Dict[str, Any]]":
        path = self.claims_dir / (name + CLAIM_SUFFIX)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def claim_age_s(self, name: str, now: Optional[float] = None) -> "Optional[float]":
        path = self.claims_dir / (name + CLAIM_SUFFIX)
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:
            return None
        return (now if now is not None else time.time()) - mtime

    def release_claim(self, name: str) -> None:
        try:
            (self.claims_dir / (name + CLAIM_SUFFIX)).unlink()
        except FileNotFoundError:
            pass

    def claimed_names(self) -> "List[str]":
        try:
            entries = os.listdir(self.claims_dir)
        except FileNotFoundError:
            return []
        return sorted(
            entry[: -len(CLAIM_SUFFIX)]
            for entry in entries
            if entry.endswith(CLAIM_SUFFIX)
        )

    def claimable(self) -> "List[str]":
        claimed = set(self.claimed_names())
        return [name for name in self.task_names() if name not in claimed]

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def heartbeat(self, host: str) -> None:
        record = {"host": host, "pid": os.getpid()}
        _atomic_write_bytes(
            self.hearts_dir / (host + ".json"),
            (strict_dumps(record, sort_keys=True) + "\n").encode("utf-8"),
        )

    def heartbeat_age_s(
        self, host: str, now: Optional[float] = None
    ) -> "Optional[float]":
        try:
            mtime = (self.hearts_dir / (host + ".json")).stat().st_mtime
        except FileNotFoundError:
            return None
        return (now if now is not None else time.time()) - mtime

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def outcome_path(self, host: str) -> Path:
        return self.outcomes_dir / (host + OUTCOME_SUFFIX)

    def append_outcome(self, host: str, record: "Dict[str, Any]") -> None:
        """Append one outcome line, flushed and fsynced before returning,
        so a worker killed right after the append cannot lose it."""
        path = self.outcome_path(host)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(strict_dumps(record, sort_keys=True) + "\n")
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:
                pass

    def outcome_hosts(self) -> "List[str]":
        try:
            entries = os.listdir(self.outcomes_dir)
        except FileNotFoundError:
            return []
        return sorted(
            entry[: -len(OUTCOME_SUFFIX)]
            for entry in entries
            if entry.endswith(OUTCOME_SUFFIX)
        )

    # ------------------------------------------------------------------
    # quarantine / stop
    # ------------------------------------------------------------------
    def append_quarantine(self, record: "Dict[str, Any]") -> None:
        with self.quarantine_path.open("a", encoding="utf-8") as fh:
            fh.write(strict_dumps(record, sort_keys=True) + "\n")
            fh.flush()

    def request_stop(self) -> None:
        self.stop_path.touch()

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def worker_log_path(self, host: str) -> Path:
        return self.workers_dir / (host + ".log")


def audit_spool(root: "str | Path") -> "Dict[str, Any]":
    """Summarize a spool for self-certification: per-host outcome counts
    and — the exactly-once evidence — whether any key settled ``ok`` more
    than once across the per-host journals."""
    spool = Spool(root)
    manifest = spool.read_manifest()
    hosts: Dict[str, Dict[str, int]] = {}
    ok_keys: Dict[str, int] = {}
    statuses: Dict[str, int] = {}
    for host in spool.outcome_hosts():
        lines, _ = read_complete_lines(spool.outcome_path(host))
        counts = {"outcomes": 0, "ok": 0, "error": 0}
        for raw in lines:
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if not isinstance(record, dict):
                continue
            counts["outcomes"] += 1
            status = record.get("status")
            if status in ("ok", "error"):
                counts[status] += 1
            statuses[status] = statuses.get(status, 0) + 1
            key = record.get("key")
            if status == "ok" and isinstance(key, str):
                ok_keys[key] = ok_keys.get(key, 0) + 1
        hosts[host] = counts
    quarantined = 0
    if spool.quarantine_path.exists():
        lines, _ = read_complete_lines(spool.quarantine_path)
        quarantined = len(lines)
    # Per-host duplicates are *legal* (a worker can finish and journal a
    # unit the coordinator already reclaimed — dedup-on-settle exists for
    # exactly that race); the merged engine journal is where exactly-once
    # must hold, so audit it separately when the manifest points at one.
    duplicate_ok_keys = sorted(k for k, n in ok_keys.items() if n > 1)
    journal_duplicates: "List[str]" = []
    journal_tasks = None
    journal_path = (manifest or {}).get("journal")
    if journal_path and Path(journal_path).exists():
        seen: Dict[str, int] = {}
        lines, _ = read_complete_lines(Path(journal_path))
        for raw in lines:
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if isinstance(record, dict) and record.get("kind") == "task":
                key = record.get("key")
                if isinstance(key, str):
                    journal_tasks = (journal_tasks or 0) + 1
                    # error-then-ok across a resume is legal; two *ok*
                    # lines for one key would mean a double settle.
                    if record.get("status") == "ok":
                        seen[key] = seen.get(key, 0) + 1
        journal_duplicates = sorted(k for k, n in seen.items() if n > 1)
    return {
        "kind": SPOOL_KIND,
        "root": str(spool.root),
        "manifest": manifest,
        "hosts": hosts,
        "total_outcomes": sum(c["outcomes"] for c in hosts.values()),
        "unique_ok_keys": len(ok_keys),
        "duplicate_ok_keys": duplicate_ok_keys,
        "journal_tasks": journal_tasks,
        "journal_duplicate_keys": journal_duplicates,
        "quarantined": quarantined,
        "pending_tasks": len(spool.task_names()),
        "open_claims": len(spool.claimed_names()),
    }
