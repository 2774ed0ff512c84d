"""Span-based tracing: durable, replayable evidence for every run.

A *trace* is a versioned JSONL file — one per orchestration run (or per
campaign work unit).  Schema v2 writes five record kinds:

``trace_header``
    ``{"kind": "trace_header", "schema": 2, "trace_kind": "run"|"engine",
    "trace_id": ..., "meta": {...}}`` — identity and provenance.
``iteration``
    one line per assurance-loop tick, written when the tick finishes:
    ``{"kind": "iteration", "iteration": i, "seq": [first, last],
    "time": [t_start, t_end], "start_s", "duration_s",
    "roles": [[name, verdict, latency_s], ...], "action": [action,
    source]}``.  It stands for the tick's ``iteration_started``,
    ``state_updated``, ``role_executed``, ``action_executed`` and
    ``iteration_finished`` events and for its iteration and role spans.
    ``seq`` is the range of bus sequence numbers the tick used;
    ``latency_s`` is rounded to 1 ns.  A tick cut short by a crash is
    written by :meth:`TraceRecorder.finalize` with ``t_end`` null (no
    ``iteration_finished``), ``action`` null (no ``action_executed``) and
    ``roles`` null if it stopped before ``state_updated``.
``event``
    every other event published on the run's bus — violations, faults,
    recoveries, skips, retries, holds, deadline overruns, degraded-mode
    changes, ``run_terminated`` — one line each, in publication order:
    ``{"kind": "event", "seq": N, "event": "<EventKind.value>",
    "iteration": i, "time": t, "role": ..., "payload": {...}}``.  A
    per-tick event that does not fit its tick record (an unexpected
    payload, role or time) is written this way too, so no event is lost.
``span``
    a closed timing interval: ``{"kind": "span", "span_id", "parent_id",
    "span_kind": "run"|"task", "name", "start_s", "duration_s",
    "iteration", "attrs"}``.  Run traces write one ``run`` span; engine
    traces carry one ``task`` span per settled work unit.
``trace_footer``
    the run's recorded :meth:`~repro.core.metrics.DependabilityMetrics.summary`
    and the run's :class:`~repro.obs.telemetry.TelemetryRegistry` snapshot —
    written last so ``repro.obs summarize`` can *recompute* counts from the
    events and cross-check them against what the metrics collector saw.

:func:`load_trace` expands every ``iteration`` record back into the
schema-v1 ``event`` and ``span`` records it stands for (seq numbers,
span ids and parents included), so each reader has one code path and v1
traces, which carry those records as they are, still load.  The only v1
fact a tick record drops is each role span's wall-clock start; the
expansion lays a tick's role spans end to end from the tick's start.

:class:`TraceRecorder` attaches to an
:class:`~repro.core.orchestrator.OrchestrationController` as an
``EventBus`` subscriber; :class:`EngineTracer` attaches to a
:class:`~repro.exec.engine.CampaignEngine` and additionally merges the
per-unit trace files written by worker processes into a deterministic
``manifest.json``.  Tracing is strictly opt-in: without a recorder the
bus has no tracing subscriber and nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import re
import time as wall_clock
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, IO, Iterable, List, Optional, Tuple

from ..core.events import Event, EventBus, EventKind
from ..jsonutil import dumps as strict_dumps
from .telemetry import TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import DependabilityMetrics
    from ..core.orchestrator import OrchestrationController

#: Version stamp of the trace file layout described above.
TRACE_SCHEMA_VERSION = 2

#: File name suffix every trace file carries.
TRACE_SUFFIX = ".trace.jsonl"

#: Engine (task-dispatch) trace file name inside a campaign trace dir.
ENGINE_TRACE_NAME = "engine" + TRACE_SUFFIX

#: Campaign manifest file name inside a campaign trace dir.
MANIFEST_NAME = "manifest.json"

#: Marker file of a service job directory (see :mod:`repro.service.store`;
#: duplicated here so obs never imports the service package).
JOB_FILE_NAME = "job.json"

#: Subdirectories of a job directory that hold traces.
_JOB_TRACE_SUBDIRS = ("trace", "search")

_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]+")


def _digest(text: str, length: int = 10) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:length]


def safe_trace_name(key: str) -> str:
    """Filesystem-safe, collision-free file name for a unit key."""
    safe = _SAFE_CHARS.sub("-", key).strip("-")[:80] or "unit"
    return f"{safe}-{_digest(key)}{TRACE_SUFFIX}"


def unit_trace_path(trace_dir: "str | Path", key: str) -> Path:
    """Where a campaign work unit's run trace lives under ``trace_dir``."""
    return Path(trace_dir) / "units" / safe_trace_name(key)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
class TraceWriter:
    """Append-only JSONL writer (lazy open, flush per record).

    Payload values that are not JSON-serializable degrade to ``repr`` —
    a trace must never lose a record over an exotic payload object.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(strict_dumps(record, sort_keys=True, default=repr) + "\n")
        self._fh.flush()
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Hot-path aliases: reading a member off the enum class costs more
#: than a module global, and the recorder compares kinds on every event.
_ITERATION_STARTED = EventKind.ITERATION_STARTED
_STATE_UPDATED = EventKind.STATE_UPDATED
_ROLE_EXECUTED = EventKind.ROLE_EXECUTED
_ACTION_EXECUTED = EventKind.ACTION_EXECUTED
_ITERATION_FINISHED = EventKind.ITERATION_FINISHED
_RUN_TERMINATED = EventKind.RUN_TERMINATED


class _Tick:
    """The open tick's foldable events, buffered until it finishes.

    ``roles`` stays ``None`` until ``state_updated`` folds in; an event
    folds only in bus order (started, state, roles, action), which is the
    order the expansion regenerates them in.
    """

    __slots__ = ("first_seq", "iteration", "time", "start_s", "roles", "action")

    def __init__(self, first_seq: int, iteration: int, time: float, start_s: float) -> None:
        self.first_seq = first_seq
        self.iteration = iteration
        self.time = time
        self.start_s = start_s
        self.roles: Optional[List[Tuple[str, str, float]]] = None
        self.action: Optional[Tuple[Any, Any]] = None


class TraceRecorder:
    """Record one orchestration run into a trace file.

    Usage::

        recorder = TraceRecorder(path, trace_id="nominal:0").attach(controller)
        result = controller.run()
        recorder.finalize(result.metrics)

    Attaching subscribes to the controller's event bus.  Every published
    event updates the telemetry registry; each tick's foldable events are
    buffered into one ``iteration`` record, written when the tick
    finishes, and every other event is written as an ``event`` record as
    it arrives.
    """

    def __init__(
        self,
        path: "str | Path",
        trace_id: str = "run",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.writer = TraceWriter(path)
        self.trace_id = trace_id
        self.meta = dict(meta or {})
        self.telemetry = TelemetryRegistry()
        self._t0 = wall_clock.perf_counter()
        self._seq = 0
        self._next_span_id = 1
        #: Spans the expansion of this trace yields (run, iteration, role).
        self._spans = 0
        self._run_span: Optional[Tuple[int, float]] = None  # (span_id, start)
        self._tick: Optional[_Tick] = None
        self._unsubscribe = None
        self._bus: Optional[EventBus] = None
        self._finalized = False
        # Telemetry instruments fetched once per event kind, verdict and
        # role: building the name and looking it up on every event costs
        # more than the count itself.
        self._event_counters: Dict[EventKind, Any] = {}
        self._verdict_counters: Dict[str, Any] = {}
        self._latency_histograms: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def attach(self, controller: "OrchestrationController") -> "TraceRecorder":
        self.writer.write(
            {
                "kind": "trace_header",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_kind": "run",
                "trace_id": self.trace_id,
                "meta": self.meta,
            }
        )
        self._bus = controller.events
        self._unsubscribe = controller.events.subscribe(self._on_event)
        return self

    def _now(self) -> float:
        return wall_clock.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # EventBus subscriber
    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        self._seq += 1
        kind = event.kind
        counter = self._event_counters.get(kind)
        if counter is None:
            counter = self._event_counters[kind] = self.telemetry.counter(
                f"events.{kind.value}"
            )
        counter.inc()
        if kind is _ROLE_EXECUTED:
            if self._on_role(event):
                return
        else:
            if kind is _ITERATION_FINISHED:
                self.telemetry.gauge("iterations").set(event.iteration + 1)
            if self._fold(event):
                return

        if kind is _RUN_TERMINATED and self._tick is not None:
            self._write_tick(None, self._seq - 1)
        self.writer.write(
            {
                "kind": "event",
                "seq": self._seq,
                "event": kind.value,
                "iteration": event.iteration,
                "time": event.time,
                "role": event.role,
                "payload": event.payload,
            }
        )
        if kind is EventKind.VIOLATION_DETECTED:
            category = event.payload.get("category", "generic")
            self.telemetry.counter(f"violations.{category}").inc()
        elif kind is EventKind.FAULT_INJECTED:
            fault = event.payload.get("fault", "fault")
            self.telemetry.counter(f"faults.{fault}").inc()
        elif kind is EventKind.RECOVERY_ACTIVATED:
            self.telemetry.counter("recovery.activations").inc()
        elif kind is EventKind.DEADLINE_EXCEEDED:
            self.telemetry.counter("resilience.deadline_exceeded").inc()
        elif kind is EventKind.DEGRADED_MODE_ENTERED:
            self.telemetry.counter("resilience.degraded_entered").inc()
        elif kind is EventKind.DEGRADED_MODE_EXITED:
            self.telemetry.counter("resilience.degraded_exited").inc()
        elif kind is EventKind.ACTION_HELD:
            self.telemetry.counter("resilience.holds").inc()
        elif kind is EventKind.ROLE_RETRIED:
            self.telemetry.counter("resilience.retries").inc()
        elif kind is _RUN_TERMINATED:
            self._close_run_span({"reason": event.payload.get("reason")})

    def _on_role(self, event: Event) -> bool:
        """Count a ``role_executed`` event's verdict and latency, and fold
        it into the tick record if it fits (see :meth:`_fold`)."""
        payload = event.payload
        role = event.role
        verdict = payload.get("verdict")
        elapsed = payload.get("elapsed_s")
        if verdict is not None:
            counter = self._verdict_counters.get(verdict)
            if counter is None:
                counter = self._verdict_counters[verdict] = self.telemetry.counter(
                    f"verdicts.{verdict}"
                )
            counter.inc()
        if role is not None and isinstance(elapsed, float):
            histogram = self._latency_histograms.get(role)
            if histogram is None:
                histogram = self._latency_histograms[role] = self.telemetry.histogram(
                    f"role_latency_s.{role}"
                )
            histogram.record(elapsed)
        tick = self._tick
        if (
            tick is None
            or tick.roles is None
            or tick.action is not None
            or event.iteration != tick.iteration
            or event.time != tick.time
            or len(payload) != 2
            or not isinstance(role, str)
            or not isinstance(verdict, str)
            or not isinstance(elapsed, float)
        ):
            return False
        tick.roles.append((role, verdict, round(elapsed, 9)))
        self._next_span_id += 1  # the role span's id
        return True

    def _fold(self, event: Event) -> bool:
        """Buffer ``event`` into the tick record if the expansion in
        :func:`load_trace` regenerates it exactly: the tick's kind, no
        role, the empty payload (``action``/``source`` for an action),
        the tick's iteration and start time, and bus order.  False writes
        it as an ``event`` record instead."""
        if event.role is not None:
            return False
        kind = event.kind
        payload = event.payload
        if kind is _ITERATION_STARTED:
            if payload:
                return False
            if self._tick is not None:
                self._write_tick(None, self._seq - 1)
            if self._run_span is None:
                self._run_span = (self._next_span_id, self._now())
                self._next_span_id += 1
            self._next_span_id += 1  # the iteration span's id
            self._tick = _Tick(self._seq, event.iteration, event.time, self._now())
            return True
        tick = self._tick
        if tick is None or event.iteration != tick.iteration:
            return False
        if kind is _ITERATION_FINISHED:
            if payload:
                return False
            self._write_tick(event.time, self._seq)
            return True
        if event.time != tick.time or tick.action is not None:
            return False
        if kind is _STATE_UPDATED:
            if tick.roles is not None or payload:
                return False
            tick.roles = []
            return True
        if kind is _ACTION_EXECUTED:
            if len(payload) != 2 or "action" not in payload or "source" not in payload:
                return False
            tick.action = (payload["action"], payload["source"])
            return True
        return False

    def _write_tick(self, end_time: Optional[float], last_seq: int) -> None:
        """Write the open tick's record (``end_time`` None: unfinished)."""
        tick = self._tick
        self._tick = None
        self.writer.write(
            {
                "kind": "iteration",
                "iteration": tick.iteration,
                "seq": [tick.first_seq, last_seq],
                "time": [tick.time, end_time],
                "start_s": round(tick.start_s, 9),
                "duration_s": round(self._now() - tick.start_s, 9),
                "roles": tick.roles,
                "action": tick.action,
            }
        )
        self._spans += 1 + len(tick.roles or ())

    def _close_run_span(self, attrs: Optional[Dict[str, Any]] = None) -> None:
        if self._run_span is None:
            return
        span_id, start = self._run_span
        self._run_span = None
        self.writer.write(
            {
                "kind": "span",
                "span_id": span_id,
                "parent_id": None,
                "span_kind": "run",
                "name": self.trace_id,
                "start_s": round(start, 9),
                "duration_s": round(self._now() - start, 9),
                "iteration": None,
                "attrs": attrs or {},
            }
        )
        self._spans += 1

    # ------------------------------------------------------------------
    def finalize(
        self,
        metrics: Optional["DependabilityMetrics"] = None,
        extras: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write the open tick and run span, the footer, detach and close.

        ``extras`` merges additional top-level fields into the footer
        record (e.g. ``stl_robustness``, computed from world-state frames
        the trace itself does not carry); reserved footer keys win.
        """
        if self._finalized:
            return self.writer.path
        self._finalized = True
        if self._tick is not None:
            self._write_tick(None, self._seq)
        self._close_run_span()
        # The ring-buffer cap only truncates the *in-memory* bus log (this
        # trace received every event via its subscription), but a nonzero
        # count means in-process consumers saw truncated evidence — record
        # it so `obs summarize` can warn.
        dropped = self._bus.dropped_events if self._bus is not None else 0
        footer: Dict[str, Any] = dict(extras or {})
        footer.update(
            {
                "kind": "trace_footer",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_id": self.trace_id,
                "events": self._seq,
                "spans": self._spans,
                "dropped_events": dropped,
                "metrics_summary": metrics.summary() if metrics is not None else None,
                "telemetry": self.telemetry.snapshot(),
            }
        )
        self.writer.write(footer)
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._bus = None
        self.writer.close()
        return self.writer.path


def trace_controller(
    controller: "OrchestrationController",
    path: "str | Path",
    trace_id: str = "run",
    meta: Optional[Dict[str, Any]] = None,
) -> TraceRecorder:
    """Convenience: build a recorder and attach it in one call."""
    return TraceRecorder(path, trace_id=trace_id, meta=meta).attach(controller)


# ----------------------------------------------------------------------
# engine (task-dispatch) tracing
# ----------------------------------------------------------------------
class EngineTracer:
    """Record a :class:`~repro.exec.engine.CampaignEngine` campaign.

    Writes ``<dir>/engine.trace.jsonl`` (one ``task`` span per settled
    unit, retry events, a campaign-level footer with the engine's
    telemetry registry) and, at campaign end, merges whatever per-unit
    run traces the workers produced into ``<dir>/manifest.json`` —
    deterministically, in unit-submission order, regardless of the order
    the pool settled them in.
    """

    def __init__(self, trace_dir: "str | Path") -> None:
        self.trace_dir = Path(trace_dir)
        self.writer = TraceWriter(self.trace_dir / ENGINE_TRACE_NAME)
        self.telemetry = TelemetryRegistry()
        self._t0 = wall_clock.perf_counter()
        self._seq = 0
        self._next_span_id = 1

    def _now(self) -> float:
        return wall_clock.perf_counter() - self._t0

    def campaign_started(self, total: int, jobs: int, mode: str) -> None:
        self.writer.write(
            {
                "kind": "trace_header",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_kind": "engine",
                "trace_id": "campaign",
                "meta": {"total": total, "jobs": jobs, "mode": mode},
            }
        )

    def task_retry(self, key: str, attempts: int) -> None:
        self._seq += 1
        self.writer.write(
            {
                "kind": "event",
                "seq": self._seq,
                "event": "task_retry",
                "iteration": attempts,
                "time": round(self._now(), 6),
                "role": key,
                "payload": {"attempts": attempts},
            }
        )
        self.telemetry.counter("tasks.retries").inc()

    def task_settled(
        self,
        key: str,
        status: str,
        attempts: int,
        elapsed_s: float,
        worker: Optional[str],
        cached: bool,
    ) -> None:
        span_id = self._next_span_id
        self._next_span_id += 1
        self.writer.write(
            {
                "kind": "span",
                "span_id": span_id,
                "parent_id": None,
                "span_kind": "task",
                "name": key,
                "start_s": round(self._now() - elapsed_s, 9),
                "duration_s": round(elapsed_s, 9),
                "iteration": None,
                "attrs": {
                    "status": status,
                    "attempts": attempts,
                    "worker": worker,
                    "cached": cached,
                },
            }
        )
        self.telemetry.counter(f"tasks.{status}").inc()
        if cached:
            self.telemetry.counter("tasks.cached").inc()
        else:
            self.telemetry.histogram("task_latency_s").record(max(elapsed_s, 0.0))
        if worker is not None:
            self.telemetry.counter(f"worker.{worker}.tasks").inc()

    def campaign_finished(
        self, summary: Dict[str, Any], unit_keys: Iterable[str]
    ) -> None:
        """Footer + manifest; closes the engine trace file."""
        self.telemetry.gauge("wall_time_s").set(float(summary.get("wall_time_s", 0.0)))
        self.telemetry.gauge("busy_time_s").set(float(summary.get("busy_time_s", 0.0)))
        self.writer.write(
            {
                "kind": "trace_footer",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_id": "campaign",
                "events": self._seq,
                "spans": self._next_span_id - 1,
                "metrics_summary": None,
                "campaign_summary": summary,
                "telemetry": self.telemetry.snapshot(),
            }
        )
        self.writer.close()
        write_manifest(self.trace_dir, unit_keys)


def write_manifest(trace_dir: "str | Path", unit_keys: Iterable[str]) -> Path:
    """Merge per-worker unit traces into a deterministic campaign manifest.

    Entries appear in unit-submission order and reference only trace
    files that actually exist (a unit that never produced a trace — e.g.
    resumed from a journal without re-running — is listed with
    ``"file": null``).
    """
    trace_dir = Path(trace_dir)
    entries = []
    for key in unit_keys:
        path = unit_trace_path(trace_dir, key)
        entries.append(
            {
                "key": key,
                "file": str(path.relative_to(trace_dir)) if path.exists() else None,
            }
        )
    manifest = {
        "kind": "campaign_manifest",
        "schema": TRACE_SCHEMA_VERSION,
        "engine_trace": ENGINE_TRACE_NAME
        if (trace_dir / ENGINE_TRACE_NAME).exists()
        else None,
        "total": len(entries),
        "traces": entries,
    }
    out = trace_dir / MANIFEST_NAME
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(strict_dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class TraceExpander:
    """Turn a trace's records, fed in file order, into schema-v1 records.

    Each ``iteration`` record becomes the tick's ``event`` records, merged
    by ``seq`` with the tick's other events (which the file holds just
    before it), then its role spans and its iteration span.  In a v2 run
    trace an ``event`` record is therefore held back until the tick that
    may claim it is written, a span or the footer arrives, or
    :meth:`flush` is called at the end of the input.  Every other record,
    and every record of a v1, engine or search trace, passes through
    unchanged.
    """

    def __init__(self) -> None:
        self.header: Optional[Dict[str, Any]] = None
        #: ``iteration`` records skipped as malformed or inconsistent.
        self.corrupt = 0
        self._hold = False
        self._held: List[Dict[str, Any]] = []
        self._next_span_id = 1
        self._run_span_id: Optional[int] = None

    def feed(self, record: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The records ready to read once ``record`` is fed in."""
        kind = record.get("kind")
        if kind == "event":
            if self._hold:
                self._held.append(record)
                return []
            return [record]
        if kind == "iteration":
            return self._expand(record)
        if kind not in ("trace_header", "trace_footer", "span"):
            return [record]
        out = self.flush()
        if kind == "trace_header":
            self.header = record
            schema = record.get("schema")
            self._hold = (
                record.get("trace_kind", "run") == "run"
                and isinstance(schema, int)
                and schema >= 2
            )
        elif kind == "trace_footer":
            self._hold = False
        elif kind == "span" and record.get("span_kind") == "run":
            self._run_span_id = None
        out.append(record)
        return out

    def flush(self) -> List[Dict[str, Any]]:
        """Release the held events (end of input, or no tick can claim them)."""
        held, self._held = self._held, []
        return held

    def _expand(self, record: Dict[str, Any]) -> List[Dict[str, Any]]:
        try:
            iteration = record["iteration"]
            first, last = (int(seq) for seq in record["seq"])
            start_time, end_time = record["time"]
            start_s = float(record["start_s"])
            duration_s = float(record["duration_s"])
            roles = record["roles"]
            action = record["action"]
            folded = [("iteration_started", None, {}, start_time)]
            if roles is not None:
                folded.append(("state_updated", None, {}, start_time))
                folded.extend(
                    ("role_executed", name, {"verdict": verdict, "elapsed_s": latency}, start_time)
                    for name, verdict, latency in roles
                )
            if action is not None:
                acted, source = action
                folded.append(
                    ("action_executed", None, {"action": acted, "source": source}, start_time)
                )
            if end_time is not None:
                folded.append(("iteration_finished", None, {}, end_time))
            latencies = [float(latency) for _, _, latency in roles or ()]
        except (KeyError, TypeError, ValueError):
            self.corrupt += 1
            return self.flush()

        out: List[Dict[str, Any]] = []
        inside: List[Dict[str, Any]] = []
        held, self._held = self._held, []
        for event in held:
            seq = event.get("seq")
            if not isinstance(seq, int) or seq < first:
                out.append(event)
            elif seq <= last:
                inside.append(event)
            else:
                self._held.append(event)
        taken = {event["seq"] for event in inside}
        if last - first + 1 != len(folded) + len(inside) or len(taken) != len(inside):
            # A tick whose seq range does not hold exactly its own events
            # (an event line lost or added) is not evidence: skip it.
            self.corrupt += 1
            return out + inside
        free = [seq for seq in range(first, last + 1) if seq not in taken]
        events = inside + [
            {
                "kind": "event",
                "seq": seq,
                "event": name,
                "iteration": iteration,
                "time": time,
                "role": role,
                "payload": payload,
            }
            for seq, (name, role, payload, time) in zip(free, folded)
        ]
        events.sort(key=lambda event: event["seq"])
        out.extend(events)

        if self._run_span_id is None:
            self._run_span_id = self._next_span_id
            self._next_span_id += 1
        iteration_span_id = self._next_span_id
        self._next_span_id += 1
        role_start = start_s
        for (name, verdict, _), latency in zip(roles or (), latencies):
            out.append(
                {
                    "kind": "span",
                    "span_id": self._next_span_id,
                    "parent_id": iteration_span_id,
                    "span_kind": "role",
                    "name": name,
                    "start_s": round(role_start, 9),
                    "duration_s": latency,
                    "iteration": iteration,
                    "attrs": {"verdict": verdict},
                }
            )
            self._next_span_id += 1
            role_start += latency
        out.append(
            {
                "kind": "span",
                "span_id": iteration_span_id,
                "parent_id": self._run_span_id,
                "span_kind": "iteration",
                "name": f"iteration[{iteration}]",
                "start_s": start_s,
                "duration_s": duration_s,
                "iteration": iteration,
                "attrs": {},
            }
        )
        return out


class TraceData:
    """Parsed contents of one trace file, in schema-v1 records."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.header: Optional[Dict[str, Any]] = None
        self.footer: Optional[Dict[str, Any]] = None
        self.events: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.corrupt_lines = 0

    @property
    def trace_kind(self) -> str:
        return (self.header or {}).get("trace_kind", "run")

    @property
    def trace_id(self) -> str:
        return (self.header or {}).get("trace_id", self.path.stem)

    def telemetry(self) -> Optional[TelemetryRegistry]:
        if self.footer and self.footer.get("telemetry") is not None:
            return TelemetryRegistry.from_snapshot(self.footer["telemetry"])
        return None

    def add(self, record: Dict[str, Any]) -> None:
        """File one expanded record under its kind."""
        kind = record.get("kind")
        if kind == "event":
            self.events.append(record)
        elif kind == "span":
            self.spans.append(record)
        elif kind == "trace_header":
            self.header = record
        elif kind == "trace_footer":
            self.footer = record
        else:
            self.corrupt_lines += 1


def load_trace(path: "str | Path") -> TraceData:
    """Parse one trace file, tolerating a truncated final line."""
    path = Path(path)
    data = TraceData(path)
    expander = TraceExpander()
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                data.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                data.corrupt_lines += 1
                continue
            for expanded in expander.feed(record):
                data.add(expanded)
    for expanded in expander.flush():
        data.add(expanded)
    data.corrupt_lines += expander.corrupt
    return data


def discover_traces(path: "str | Path") -> List[Path]:
    """Trace files under ``path``: the file itself, a manifest's entries
    (in manifest order), every ``*.trace.jsonl`` below a directory
    (sorted by relative path) — or, for a service job directory (marked
    by ``job.json``), the traces of its ``trace/`` and ``search/``
    sub-trees plus any trace files directly inside it, so ``repro.obs
    summarize <job-dir>`` works on whatever the job produced."""
    path = Path(path)
    if path.is_file():
        return [path]
    if not path.is_dir():
        raise FileNotFoundError(f"no trace file or directory at {path}")
    if (path / JOB_FILE_NAME).exists():
        found: List[Path] = []
        for sub in _JOB_TRACE_SUBDIRS:
            subdir = path / sub
            if subdir.is_dir():
                found.extend(discover_traces(subdir))
        found.extend(sorted(path.glob("*" + TRACE_SUFFIX)))
        return found
    manifest = path / MANIFEST_NAME
    if manifest.exists():
        entries = json.loads(manifest.read_text()).get("traces", [])
        found = [path / e["file"] for e in entries if e.get("file")]
        engine = path / ENGINE_TRACE_NAME
        if engine.exists():
            found.append(engine)
        return found
    return sorted(
        (p for p in path.rglob("*" + TRACE_SUFFIX)),
        key=lambda p: str(p.relative_to(path)),
    )


def load_run_traces(path: "str | Path") -> List[TraceData]:
    """Every *run* trace under ``path`` (engine traces excluded), sorted
    by trace id for deterministic aggregation."""
    traces = [load_trace(p) for p in discover_traces(path)]
    runs = [t for t in traces if t.trace_kind == "run"]
    runs.sort(key=lambda t: t.trace_id)
    return runs


# ----------------------------------------------------------------------
# recomputation (the self-certification core of `repro.obs summarize`)
# ----------------------------------------------------------------------
def recompute_counts(trace: TraceData) -> Dict[str, Any]:
    """Recompute the metrics-summary count fields from event records only.

    Returns the same shape as the count fields of
    :meth:`DependabilityMetrics.summary` — ``iterations_completed``,
    ``violation_counts``, ``fault_count``, ``recovery_activations`` — so
    a traced run is self-certifying: recomputed counts must equal the
    footer's recorded summary.
    """
    iterations = 0
    violations: Dict[str, int] = {}
    faults = 0
    recoveries = 0
    for event in trace.events:
        name = event.get("event")
        if name == EventKind.ITERATION_FINISHED.value:
            iterations += 1
        elif name == EventKind.VIOLATION_DETECTED.value:
            category = (event.get("payload") or {}).get("category", "generic")
            violations[category] = violations.get(category, 0) + 1
        elif name == EventKind.FAULT_INJECTED.value:
            faults += 1
        elif name == EventKind.RECOVERY_ACTIVATED.value:
            recoveries += 1
    return {
        "iterations_completed": iterations,
        "violation_counts": violations,
        "fault_count": faults,
        "recovery_activations": recoveries,
    }


def recompute_tallies(trace: TraceData) -> Dict[str, int]:
    """Per-kind event counts and role verdict counts from event records,
    named like the recorder's telemetry counters (``events.<kind>``,
    ``verdicts.<verdict>``)."""
    tallies: Dict[str, int] = {}
    for event in trace.events:
        name = f"events.{event.get('event')}"
        tallies[name] = tallies.get(name, 0) + 1
        if event.get("event") == EventKind.ROLE_EXECUTED.value:
            verdict = (event.get("payload") or {}).get("verdict")
            if verdict is not None:
                name = f"verdicts.{verdict}"
                tallies[name] = tallies.get(name, 0) + 1
    return tallies


def verify_trace(trace: TraceData) -> Tuple[bool, List[str]]:
    """Check a run trace's event records against its footer.

    The counts recomputed from the events must equal the recorded
    metrics summary, and the per-kind event and verdict tallies must
    equal the recorder's telemetry counters (so a lost, added or edited
    event of any kind shows).  Returns ``(consistent,
    mismatch_descriptions)``; a footer without a metrics summary or
    telemetry is vacuously consistent on that side.
    """
    footer = trace.footer or {}
    mismatches: List[str] = []
    recorded = footer.get("metrics_summary")
    if recorded is not None:
        for field, value in recompute_counts(trace).items():
            expected = recorded.get(field)
            if field == "violation_counts":
                expected = dict(expected or {})
            if value != expected:
                mismatches.append(f"{field}: recomputed {value!r} != recorded {expected!r}")
    counters = (footer.get("telemetry") or {}).get("counters")
    if counters is not None:
        tallies = recompute_tallies(trace)
        for name in sorted(
            set(tallies) | {n for n in counters if n.startswith(("events.", "verdicts."))}
        ):
            if tallies.get(name, 0) != counters.get(name, 0):
                mismatches.append(
                    f"{name}: recomputed {tallies.get(name, 0)!r} != recorded "
                    f"{counters.get(name, 0)!r}"
                )
    return not mismatches, mismatches


#: Search-trace event kinds and the ``search_summary`` footer field each
#: one recomputes (see :mod:`repro.search.driver`).
SEARCH_EVENT_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("candidate_sampled", "candidates"),
    ("candidate_evaluated", "evaluations"),
    ("counterexample_found", "counterexamples"),
    ("minimization_step", "minimization_steps"),
)


def recompute_search_counts(trace: TraceData) -> Dict[str, int]:
    """Recompute a search trace's summary counts from raw events only.

    Same self-certification pattern as :func:`recompute_counts`: the
    recomputed candidate/evaluation/counterexample/minimization counts
    must match the ``search_summary`` the driver recorded in its footer.
    """
    counts = {field: 0 for _event, field in SEARCH_EVENT_FIELDS}
    by_event = dict(SEARCH_EVENT_FIELDS)
    for event in trace.events:
        field = by_event.get(event.get("event", ""))
        if field is not None:
            counts[field] += 1
    return counts


def verify_search_trace(trace: TraceData) -> Tuple[bool, List[str]]:
    """Cross-check a search trace's recomputed counts against its footer.

    A search trace without a recorded ``search_summary`` is vacuously
    consistent (e.g. the driver crashed before writing the footer — the
    caller sees that as a missing footer, not a count mismatch).
    """
    recorded = (trace.footer or {}).get("search_summary")
    if recorded is None:
        return True, []
    recomputed = recompute_search_counts(trace)
    mismatches: List[str] = []
    for field, value in recomputed.items():
        if value != recorded.get(field):
            mismatches.append(
                f"{field}: recomputed {value!r} != recorded {recorded.get(field)!r}"
            )
    return not mismatches, mismatches


def aggregate_search_counts(traces: Iterable[TraceData]) -> Dict[str, int]:
    """Sum recomputed search counts across search traces."""
    total = {field: 0 for _event, field in SEARCH_EVENT_FIELDS}
    total["traces"] = 0
    for trace in traces:
        total["traces"] += 1
        for field, value in recompute_search_counts(trace).items():
            total[field] += value
    return total


def aggregate_counts(traces: Iterable[TraceData]) -> Dict[str, Any]:
    """Sum recomputed counts across run traces (deterministic given the
    trace set, independent of execution order or worker count)."""
    total = {
        "runs": 0,
        "iterations_completed": 0,
        "violation_counts": {},
        "fault_count": 0,
        "recovery_activations": 0,
        "events": {},
    }
    for trace in traces:
        counts = recompute_counts(trace)
        total["runs"] += 1
        total["iterations_completed"] += counts["iterations_completed"]
        total["fault_count"] += counts["fault_count"]
        total["recovery_activations"] += counts["recovery_activations"]
        for category, n in counts["violation_counts"].items():
            total["violation_counts"][category] = (
                total["violation_counts"].get(category, 0) + n
            )
        for event in trace.events:
            name = event.get("event", "?")
            total["events"][name] = total["events"].get(name, 0) + 1
    return total
