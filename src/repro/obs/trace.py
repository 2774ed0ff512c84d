"""Span-based tracing: durable, replayable evidence for every run.

A *trace* is a versioned JSONL file — one per orchestration run (or per
campaign work unit).  Schema v2 writes five record kinds:

``trace_header``
    ``{"kind": "trace_header", "schema": 2, "trace_kind": "run"|"search",
    "trace_id": ..., "meta": {...}}`` — identity and provenance.
``iteration``
    one line per assurance-loop tick, the tick the controller hands the
    recorder, written when the tick finishes: ``{"kind": "iteration",
    "iteration": i, "seq": [first, last], "time": [t_start, t_end],
    "start_s", "duration_s", "roles": [[name, verdict, latency_s], ...],
    "action": [action, source]}``.  It stands for the tick's
    milestones, the ``iteration_started``, ``state_updated``,
    ``role_executed``, ``action_executed`` and ``iteration_finished``
    events (schema v1 wrote them as ``event`` records, with an iteration
    span and one role span per role).  ``seq`` is the range of sequence
    numbers the tick used, its milestones numbered as if each were
    published; ``latency_s`` is rounded to 1 ns.  A tick cut short by a
    crash is written by :meth:`TraceRecorder.finalize` with ``t_end`` null (no
    ``iteration_finished``), ``action`` null (no ``action_executed``) and
    ``roles`` null if it stopped before ``state_updated``.
``event``
    every other event published on the run's bus — violations, faults,
    recoveries, skips, retries, holds, deadline overruns, degraded-mode
    changes, ``run_terminated``, and any event another publisher puts on
    the bus — one line each, in publication order: ``{"kind": "event",
    "seq": N, "event": "<EventKind.value>", "iteration": i, "time": t,
    "role": ..., "payload": {...}}``.
``span``
    a closed timing interval: ``{"kind": "span", "span_id", "parent_id",
    "span_kind": "run", "name", "start_s", "duration_s", "iteration",
    "attrs"}``; a run trace writes one, its ``run`` span.
``trace_footer``
    the run's recorded :meth:`~repro.core.metrics.DependabilityMetrics.summary`
    and the run's :class:`~repro.obs.telemetry.TelemetryRegistry` snapshot —
    written last so ``repro.obs summarize`` can *recompute* counts from the
    events and cross-check them against what the metrics collector saw.

:func:`load_trace` files each record under its kind
(:class:`TraceData`), and every reader counts a tick's milestones, role
verdicts and role latencies from its ``iteration`` record.  A v1 trace
carries those facts as ``event`` and role ``span`` records, which the
same readers count, so v1 traces still load, verify and summarize.

:class:`TraceRecorder` attaches to an
:class:`~repro.core.orchestrator.OrchestrationController`: it subscribes
to its event bus and reads its open tick.  Tracing is strictly opt-in:
without a recorder the bus has no tracing subscriber and nothing is
written.  A traced campaign directory holds one run trace per work unit
under ``units/`` (:func:`unit_trace_path`) and nothing else: each
unit's status, attempts and worker are in the campaign's journal and
summary.  An ``engine.trace.jsonl`` an older version wrote beside
``units/`` still loads, as a trace of kind ``engine`` no reader counts.
"""

from __future__ import annotations

import hashlib
import json
import re
import time as wall_clock
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, IO, Iterable, List, Optional, Tuple

from ..core.events import Event, EventKind, Tick
from ..jsonutil import dumps as strict_dumps
from .telemetry import TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import DependabilityMetrics
    from ..core.orchestrator import OrchestrationController

#: Version stamp of the trace file layout described above.
TRACE_SCHEMA_VERSION = 2

#: File name suffix every trace file carries.
TRACE_SUFFIX = ".trace.jsonl"

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


#: Telemetry counter bumped by each evidence event kind, besides its
#: ``events.<kind>`` count.
_EVIDENCE_COUNTERS = {
    EventKind.RECOVERY_ACTIVATED: "recovery.activations",
    EventKind.DEADLINE_EXCEEDED: "resilience.deadline_exceeded",
    EventKind.DEGRADED_MODE_ENTERED: "resilience.degraded_entered",
    EventKind.DEGRADED_MODE_EXITED: "resilience.degraded_exited",
    EventKind.ACTION_HELD: "resilience.holds",
    EventKind.ROLE_RETRIED: "resilience.retries",
}


class TraceRecorder:
    """Record one orchestration run into a trace file.

    Usage::

        recorder = TraceRecorder(path, trace_id="nominal:0").attach(controller)
        result = controller.run()
        recorder.finalize(result.metrics)

    Attaching subscribes to the controller's event bus.  The controller
    keeps its open tick in :attr:`~repro.core.orchestrator.OrchestrationController.tick`
    and publishes only the tick's ``iteration_finished``; the recorder
    writes the tick as one ``iteration`` record then, and every other
    event as an ``event`` record as it arrives.  An event's ``seq`` counts
    the tick milestones reached before it (started, state updated, each
    role executed, action executed) as if each had been published.  The
    per-tick ``events.*`` and ``verdicts.*`` tallies, the role latency
    histograms and the ``iterations`` gauge are derived from each written
    tick.  The recorder holds the controller until :meth:`finalize`.
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
        #: Spans this trace stands for: the run span, and each tick's
        #: iteration span and role spans.
        self._spans = 0
        self._run_span: Optional[Tuple[int, float]] = None  # (span_id, start)
        self._controller: Optional["OrchestrationController"] = None
        self._unsubscribe = None
        # The tick being recorded, its first seq, and how many of its
        # milestones already have a seq.
        self._tick: Optional[Tick] = None
        self._first_seq = 0
        self._counted = 0
        self._finalized = False

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
        self._controller = controller
        self._unsubscribe = controller.events.subscribe(self._on_event)
        return self

    def _now(self) -> float:
        return wall_clock.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # EventBus subscriber
    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        tick = self._controller.tick
        self._follow(tick)
        self._seq += 1
        kind = event.kind
        if kind is EventKind.ITERATION_FINISHED and tick is not None:
            self._write_tick(event.time)
            return
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
        counter = self.telemetry.counter
        counter(f"events.{kind.value}").inc()
        if kind is EventKind.VIOLATION_DETECTED:
            counter(f"violations.{event.payload.get('category', 'generic')}").inc()
        elif kind is EventKind.FAULT_INJECTED:
            counter(f"faults.{event.payload.get('fault', 'fault')}").inc()
        elif kind is EventKind.RUN_TERMINATED:
            self._close_run_span({"reason": event.payload.get("reason")})
        elif kind in _EVIDENCE_COUNTERS:
            counter(_EVIDENCE_COUNTERS[kind]).inc()

    def _follow(self, tick: Optional[Tick]) -> None:
        """Catch up with the controller's open tick ``tick``: write a tick
        it left unfinished, open a new one, and give a seq to each
        milestone reached since the last event."""
        if tick is not self._tick:
            if self._tick is not None:
                self._write_tick(None)
            if tick is None:
                return
            self._tick = tick
            self._first_seq = self._seq + 1
            self._counted = 0
            if self._run_span is None:
                self._run_span = (self._spans + 1, tick.start - self._t0)
        elif tick is None:
            return
        roles = tick.roles
        reached = 1 if roles is None else 2 + len(roles)
        if tick.action is not None:
            reached += 1
        self._seq += reached - self._counted
        self._counted = reached

    def _write_tick(self, end_time: Optional[float]) -> None:
        """Write the open tick's record (``end_time`` None: unfinished)
        and derive its telemetry."""
        tick = self._tick
        self._follow(tick)
        self._tick = None
        roles = tick.roles
        self.writer.write(
            {
                "kind": "iteration",
                "iteration": tick.iteration,
                "seq": [self._first_seq, self._seq],
                "time": [tick.time, end_time],
                "start_s": round(tick.start - self._t0, 9),
                "duration_s": round(wall_clock.perf_counter() - tick.start, 9),
                "roles": None
                if roles is None
                else [[role, verdict, round(latency, 9)] for role, verdict, latency in roles],
                "action": tick.action,
            }
        )
        self._spans += 1 + len(roles or ())
        telemetry = self.telemetry
        telemetry.counter("events.iteration_started").inc()
        if roles is not None:
            telemetry.counter("events.state_updated").inc()
            if roles:
                telemetry.counter("events.role_executed").inc(len(roles))
            for role, verdict, latency in roles:
                telemetry.counter(f"verdicts.{verdict}").inc()
                telemetry.histogram(f"role_latency_s.{role}").record(latency)
        if tick.action is not None:
            telemetry.counter("events.action_executed").inc()
        if end_time is not None:
            telemetry.counter("events.iteration_finished").inc()
            telemetry.gauge("iterations").set(tick.iteration + 1)

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

        A tick the controller left open (a crash cut it short) is written
        unfinished.  ``extras`` merges additional top-level fields into
        the footer record (e.g. ``stl_robustness``, computed from
        world-state frames the trace itself does not carry); reserved
        footer keys win.
        """
        if self._finalized:
            return self.writer.path
        self._finalized = True
        if self._controller is not None:
            self._follow(self._controller.tick)
        if self._tick is not None:
            self._write_tick(None)
        self._close_run_span()
        footer: Dict[str, Any] = dict(extras or {})
        footer.update(
            {
                "kind": "trace_footer",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_id": self.trace_id,
                "events": self._seq,
                "spans": self._spans,
                "metrics_summary": metrics.summary() if metrics is not None else None,
                "telemetry": self.telemetry.snapshot(),
            }
        )
        self.writer.write(footer)
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._controller = None
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
# reading
# ----------------------------------------------------------------------
class TraceData:
    """The records of one trace file, filed by kind as they are read.

    ``ticks`` holds the ``iteration`` records, ``events`` the ``event``
    records and ``spans`` the ``span`` records, each in file order; a
    tick record stands for the milestones :func:`tick_milestones` names,
    and every reader counts them from it.  A tick whose ``seq`` range
    does not hold exactly its milestones plus the event records written
    since the previous tick record (an event line lost, added or moved)
    is not evidence: it is skipped and counted in ``corrupt_lines``, like
    a line that does not parse.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.header: Optional[Dict[str, Any]] = None
        self.footer: Optional[Dict[str, Any]] = None
        self.ticks: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.corrupt_lines = 0
        # The seqs of the event records written since the last tick record.
        self._unclaimed: List[Any] = []

    @property
    def trace_kind(self) -> str:
        return (self.header or {}).get("trace_kind", "run")

    @property
    def trace_id(self) -> str:
        return (self.header or {}).get("trace_id", self.path.stem)

    def feed(self, line: str) -> Optional[Dict[str, Any]]:
        """Parse one line and file its record under its kind.

        Returns the record, or None for a blank line or one skipped as
        corrupt.
        """
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "event":
            self.events.append(record)
            self._unclaimed.append(record.get("seq"))
        elif kind == "iteration" and self._claims(record):
            self.ticks.append(record)
        elif kind == "span":
            self.spans.append(record)
        elif kind == "trace_header":
            self.header = record
        elif kind == "trace_footer":
            self.footer = record
        else:
            self.corrupt_lines += 1
            return None
        return record

    def _claims(self, tick: Dict[str, Any]) -> bool:
        """Whether ``tick`` is well formed and its ``seq`` range holds
        exactly its milestones plus the unclaimed event records in it."""
        unclaimed, self._unclaimed = self._unclaimed, []
        try:
            first, last = (int(seq) for seq in tick["seq"])
            _start, _end = tick["time"]
            for _name, _verdict, latency in tick["roles"] or ():
                float(latency)
            if tick["action"] is not None:
                _action, _source = tick["action"]
            milestones = sum(tick_milestones(tick).values())
        except (KeyError, TypeError, ValueError):
            return False
        inside = [seq for seq in unclaimed if isinstance(seq, int) and first <= seq <= last]
        return (
            "iteration" in tick
            and len(set(inside)) == len(inside) == last - first + 1 - milestones
        )


def tick_milestones(tick: Dict[str, Any]) -> Dict[str, int]:
    """The events a tick record stands for, counted by kind: one
    ``iteration_started``; one ``state_updated`` unless ``roles`` is null;
    one ``role_executed`` per role; one ``action_executed`` when
    ``action`` is set; one ``iteration_finished`` when the tick finished."""
    counts = {EventKind.ITERATION_STARTED.value: 1}
    roles = tick["roles"]
    if roles is not None:
        counts[EventKind.STATE_UPDATED.value] = 1
        if roles:
            counts[EventKind.ROLE_EXECUTED.value] = len(roles)
    if tick["action"] is not None:
        counts[EventKind.ACTION_EXECUTED.value] = 1
    if tick["time"][1] is not None:
        counts[EventKind.ITERATION_FINISHED.value] = 1
    return counts


def load_trace(path: "str | Path") -> TraceData:
    """Parse one trace file, tolerating a truncated final line and bytes
    that are not UTF-8 (decoded as U+FFFD, as ``tail --follow`` reads)."""
    path = Path(path)
    data = TraceData(path)
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            data.feed(line)
    return data


def discover_traces(path: "str | Path") -> List[Path]:
    """Trace files under ``path``: the file itself, every
    ``*.trace.jsonl`` below a directory (sorted by relative path) — or,
    for a service job directory (marked by ``job.json``), the traces of
    its ``trace/`` and ``search/`` sub-trees plus any trace files
    directly inside it, so ``repro.obs summarize <job-dir>`` works on
    whatever the job produced."""
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
    return sorted(
        (p for p in path.rglob("*" + TRACE_SUFFIX)),
        key=lambda p: str(p.relative_to(path)),
    )


def load_run_traces(path: "str | Path") -> List[TraceData]:
    """Every *run* trace under ``path`` (search and engine traces
    excluded), sorted by trace id for deterministic aggregation."""
    traces = [load_trace(p) for p in discover_traces(path)]
    runs = [t for t in traces if t.trace_kind == "run"]
    runs.sort(key=lambda t: t.trace_id)
    return runs


# ----------------------------------------------------------------------
# recomputation (the self-certification core of `repro.obs summarize`)
# ----------------------------------------------------------------------
def count_events(trace: TraceData) -> Dict[str, int]:
    """Events per kind: one per event record, plus the milestones each
    tick record stands for (:func:`tick_milestones`)."""
    counts: Dict[str, int] = {}
    for event in trace.events:
        name = event.get("event", "?")
        counts[name] = counts.get(name, 0) + 1
    for tick in trace.ticks:
        for name, n in tick_milestones(tick).items():
            counts[name] = counts.get(name, 0) + n
    return counts


def recompute_counts(trace: TraceData) -> Dict[str, Any]:
    """Recompute the metrics-summary count fields from the trace's
    records only.

    Returns the same shape as the count fields of
    :meth:`DependabilityMetrics.summary` — ``iterations_completed``,
    ``violation_counts``, ``fault_count``, ``recovery_activations`` — so
    a traced run is self-certifying: recomputed counts must equal the
    footer's recorded summary.
    """
    violations: Dict[str, int] = {}
    for event in trace.events:
        if event.get("event") == EventKind.VIOLATION_DETECTED.value:
            category = (event.get("payload") or {}).get("category", "generic")
            violations[category] = violations.get(category, 0) + 1
    counts = count_events(trace)
    return {
        "iterations_completed": counts.get(EventKind.ITERATION_FINISHED.value, 0),
        "violation_counts": violations,
        "fault_count": counts.get(EventKind.FAULT_INJECTED.value, 0),
        "recovery_activations": counts.get(EventKind.RECOVERY_ACTIVATED.value, 0),
    }


def recompute_tallies(trace: TraceData) -> Dict[str, int]:
    """Per-kind event counts and role verdict counts from the trace's
    records, named like the recorder's telemetry counters
    (``events.<kind>``, ``verdicts.<verdict>``).  A verdict is read from
    each tick's roles and from each ``role_executed`` event record (a
    schema-v1 trace's)."""
    tallies = {f"events.{name}": n for name, n in count_events(trace).items()}
    verdicts = [
        (event.get("payload") or {}).get("verdict")
        for event in trace.events
        if event.get("event") == EventKind.ROLE_EXECUTED.value
    ]
    verdicts.extend(verdict for tick in trace.ticks for _, verdict, _ in tick["roles"] or ())
    for verdict in verdicts:
        if verdict is not None:
            name = f"verdicts.{verdict}"
            tallies[name] = tallies.get(name, 0) + 1
    return tallies


def verify_trace(trace: TraceData) -> Tuple[bool, List[str]]:
    """Check a run trace's records against its footer.

    The counts recomputed from the records must equal the recorded
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
        for name, n in count_events(trace).items():
            total["events"][name] = total["events"].get(name, 0) + n
    return total
