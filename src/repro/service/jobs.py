"""Job model of the assurance service: specs, lifecycle, kind registry.

A *job* is one durable unit of submitted work — a whole campaign, a
falsification search, or a corpus replay — owned by the scheduler and
persisted by the :class:`~repro.service.store.JobStore`.  The lifecycle
is a small state machine::

    queued ──> running ──> done
       │          │  └────> failed
       │          └───────> cancelled
       │          └───────> queued      (recovery: the server died mid-job)
       └────────> cancelled

Job *kinds* are pluggable: each kind contributes a ``validate`` hook
(run at submit time, so a malformed spec is a 400 at the API boundary,
not a failed job an hour later) and a ``run`` hook executed by the
scheduler's worker slot.  The built-in kinds reuse the batch engines
unchanged — ``campaign`` wraps :func:`repro.experiments.campaign.execute_suite`,
``falsify`` wraps :class:`repro.search.driver.SearchDriver`, ``replay``
wraps :func:`repro.search.corpus.replay_entry` — all journaled into the
job's directory so a killed-and-restarted server resumes them via the
engine's ``resume`` path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: The legal state machine (``running -> queued`` is the restart-recovery
#: edge: a job found ``running`` by a fresh server was orphaned by a dead
#: one and goes back on the queue with ``resume`` semantics).
VALID_TRANSITIONS: Dict[str, frozenset] = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED, QUEUED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class InvalidTransition(Exception):
    """An illegal job state change (e.g. cancelling a finished job)."""

    def __init__(self, job_id: str, current: str, requested: str) -> None:
        self.job_id = job_id
        self.current = current
        self.requested = requested
        super().__init__(
            f"job {job_id}: illegal transition {current!r} -> {requested!r}"
        )


@dataclass(frozen=True)
class JobSpec:
    """What a tenant submitted: kind, kind-specific payload, knobs.

    Attributes:
        kind: a registered job kind (``campaign``/``falsify``/``replay``
            built in).
        spec: the kind-specific payload (a plain JSON-decoded dict; each
            kind validates and interprets it through the same
            ``from_dict`` constructors the batch CLIs use).
        priority: higher runs first; ties break by submission order.
        jobs: requested engine fan-out for this job (clamped to the
            scheduler's global worker-slot budget).
    """

    kind: str
    spec: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "spec": dict(self.spec),
            "priority": self.priority,
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        data = dict(data or {})
        unknown = sorted(set(data) - {"kind", "spec", "priority", "jobs"})
        if unknown:
            raise ValueError(f"unknown job field(s) {unknown}")
        kind = data.get("kind")
        if not isinstance(kind, str) or not kind:
            raise ValueError("job 'kind' must be a non-empty string")
        spec = data.get("spec") or {}
        if not isinstance(spec, dict):
            raise ValueError("job 'spec' must be an object")
        return cls(
            kind=kind,
            spec=spec,
            priority=int(data.get("priority", 0)),
            jobs=int(data.get("jobs", 1)),
        )

    def validate(self) -> None:
        """Submit-time validation: kind known, payload constructible."""
        kind = get_job_kind(self.kind)
        if kind.validate is not None:
            kind.validate(self.spec)


@dataclass
class JobRecord:
    """One job's full durable state (what ``state.json`` serializes)."""

    id: str
    seq: int
    spec: JobSpec
    state: str = QUEUED
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    progress_done: int = 0
    progress_total: int = 0
    #: Times a dead server's orphaned ``running`` state was re-queued.
    recovered: int = 0
    #: ``[{"state": ..., "at": <unix time>}]`` in transition order.
    transitions: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(
        self,
        state: str,
        *,
        error: Optional[str] = None,
        result: Optional[Dict[str, Any]] = None,
    ) -> None:
        if state not in VALID_TRANSITIONS:
            raise InvalidTransition(self.id, self.state, state)
        if state not in VALID_TRANSITIONS[self.state]:
            raise InvalidTransition(self.id, self.state, state)
        self.state = state
        self.error = error
        if result is not None:
            self.result = result
        if state == QUEUED:
            self.recovered += 1
        self.transitions.append({"state": state, "at": round(time.time(), 3)})

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "seq": self.seq,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "error": self.error,
            "result": self.result,
            "progress": {"done": self.progress_done, "total": self.progress_total},
            "recovered": self.recovered,
            "transitions": list(self.transitions),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        progress = data.get("progress") or {}
        return cls(
            id=data["id"],
            seq=int(data["seq"]),
            spec=JobSpec.from_dict(data.get("spec") or {}),
            state=data.get("state", QUEUED),
            error=data.get("error"),
            result=data.get("result"),
            progress_done=int(progress.get("done", 0)),
            progress_total=int(progress.get("total", 0)),
            recovered=int(data.get("recovered", 0)),
            transitions=list(data.get("transitions") or []),
        )


# ----------------------------------------------------------------------
# execution context handed to kind runners
# ----------------------------------------------------------------------
@dataclass
class JobContext:
    """Everything a kind runner gets from the scheduler.

    Attributes:
        job_dir: the job's persistent directory — journal, traces and the
            final report all live here and survive server restarts.
        jobs: effective engine fan-out (requested, clamped to the global
            worker-slot budget).
        progress: engine :class:`~repro.exec.progress.ProgressHook` that
            feeds the job's ``events.jsonl`` (the ``watch`` stream).
        cancel: zero-arg callable; ``True`` means abort (the engine
            raises :class:`~repro.exec.CampaignCancelled` at the next
            settle point).
        resolve_job_dir: map another job id to its directory (used by
            ``replay`` jobs referencing a ``falsify`` job's corpus).
    """

    job_dir: Path
    jobs: int = 1
    progress: Optional[Callable[[Any], None]] = None
    cancel: Optional[Callable[[], bool]] = None
    resolve_job_dir: Optional[Callable[[str], Path]] = None


@dataclass(frozen=True)
class JobKind:
    """A pluggable job kind: submit-time validation + the runner."""

    name: str
    run: Callable[[Dict[str, Any], JobContext], Dict[str, Any]]
    validate: Optional[Callable[[Dict[str, Any]], None]] = None


_JOB_KINDS: Dict[str, JobKind] = {}


def register_job_kind(
    name: str,
    run: Callable[[Dict[str, Any], JobContext], Dict[str, Any]],
    validate: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> JobKind:
    """Register (or replace) a job kind; returns the registration."""
    kind = JobKind(name=name, run=run, validate=validate)
    _JOB_KINDS[name] = kind
    return kind


def unregister_job_kind(name: str) -> None:
    _JOB_KINDS.pop(name, None)


def get_job_kind(name: str) -> JobKind:
    try:
        return _JOB_KINDS[name]
    except KeyError:
        raise ValueError(
            f"unknown job kind {name!r} (known: {sorted(_JOB_KINDS)})"
        ) from None


def known_job_kinds() -> List[str]:
    return sorted(_JOB_KINDS)


# ----------------------------------------------------------------------
# built-in kinds
# ----------------------------------------------------------------------
#: File names inside a job directory (see DESIGN.md §9).
JOURNAL_NAME = "journal.jsonl"
TRACE_DIR_NAME = "trace"
SEARCH_DIR_NAME = "search"
REPORT_NAME = "report.json"


def _campaign_parts(spec: Dict[str, Any]):
    """Decode a campaign job payload into (scenarios, seeds, options)."""
    from ..experiments.campaign import DEFAULT_SEEDS, CampaignOptions
    from ..sim.scenario import ScenarioType

    known = {"scenarios", "seeds", "seed_count", "options", "trace"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(f"unknown campaign spec field(s) {unknown}")
    if "seeds" in spec and "seed_count" in spec:
        raise ValueError("give either 'seeds' or 'seed_count', not both")
    options = CampaignOptions.from_dict(spec.get("options"))
    names = spec.get("scenarios")
    if names is None:
        scenarios = tuple(ScenarioType)
    else:
        scenarios = tuple(ScenarioType(name) for name in names)
    if "seeds" in spec:
        seeds = tuple(int(s) for s in spec["seeds"])
    elif "seed_count" in spec:
        seeds = tuple(range(int(spec["seed_count"])))
    else:
        seeds = DEFAULT_SEEDS
    if not scenarios or not seeds:
        raise ValueError("campaign spec selects no runs")
    return scenarios, seeds, options


def validate_campaign_spec(spec: Dict[str, Any]) -> None:
    _campaign_parts(spec)


def run_campaign_job(spec: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Run a full campaign into the job directory; write the canonical report.

    Always journaled and always ``resume=True``: on a fresh directory the
    journal is simply new, after a server crash the engine replays every
    settled run and executes only what is missing — so the final
    ``report.json`` is byte-identical to an uninterrupted run (and to the
    ``repro.experiments.campaign`` CLI at the same spec).  The units run
    on ``ctx.jobs`` worker processes of the engine's pool.
    """
    from ..experiments.campaign import execute_suite, write_campaign_report

    scenarios, seeds, options = _campaign_parts(spec)
    trace = ctx.job_dir / TRACE_DIR_NAME if spec.get("trace", True) else None
    results, report = execute_suite(
        scenarios,
        seeds,
        options,
        jobs=ctx.jobs,
        journal=ctx.job_dir / JOURNAL_NAME,
        resume=True,
        progress=ctx.progress,
        trace=trace,
        cancel=ctx.cancel,
    )
    report_path = write_campaign_report(results, ctx.job_dir / REPORT_NAME, options)
    summary = report.summary
    return {
        "report_file": report_path.name,
        "trace_dir": TRACE_DIR_NAME if trace is not None else None,
        "total_runs": summary.total,
        "executed": summary.executed,
        "resumed": summary.cached,
        "collisions": sum(o.collision for runs in results.values() for o in runs),
        "recoveries": sum(
            o.recovery_activations for runs in results.values() for o in runs
        ),
    }


def validate_falsify_spec(spec: Dict[str, Any]) -> None:
    from ..experiments.campaign import CampaignOptions
    from ..search.driver import SearchConfig
    from ..search.space import get_space

    known = {"config", "options", "trace"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(f"unknown falsify spec field(s) {unknown}")
    config = SearchConfig.from_dict(spec.get("config") or {})
    get_space(config.family)
    CampaignOptions.from_dict(spec.get("options"))


def run_falsify_job(spec: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Run a falsification (or explore) search into the job directory."""
    from ..experiments.campaign import CampaignOptions
    from ..search.driver import (
        CORPUS_FILE_NAME,
        SUMMARY_FILE_NAME,
        SearchConfig,
        SearchDriver,
    )

    config = SearchConfig.from_dict(
        {**(spec.get("config") or {}), "jobs": ctx.jobs}
    )
    options = CampaignOptions.from_dict(spec.get("options"))
    trace = ctx.job_dir / TRACE_DIR_NAME if spec.get("trace") else None
    driver = SearchDriver(
        config,
        options,
        out_dir=ctx.job_dir / SEARCH_DIR_NAME,
        trace=trace,
        resume=True,
        progress=ctx.progress,
        cancel=ctx.cancel,
    )
    result = driver.run()
    return {
        "summary_file": f"{SEARCH_DIR_NAME}/{SUMMARY_FILE_NAME}",
        "corpus_file": f"{SEARCH_DIR_NAME}/{CORPUS_FILE_NAME}",
        "evaluations": len(result.evaluations),
        "rounds": result.rounds,
        "counterexamples": len(result.counterexamples),
        "best_robustness": result.best_robustness,
    }


def validate_replay_spec(spec: Dict[str, Any]) -> None:
    from ..experiments.campaign import CampaignOptions

    known = {"job", "corpus", "entry", "index", "original", "options"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(f"unknown replay spec field(s) {unknown}")
    sources = [k for k in ("job", "corpus", "entry") if spec.get(k) is not None]
    if len(sources) != 1:
        raise ValueError(
            "replay spec needs exactly one corpus source: "
            "'job' (a falsify job id), 'corpus' (a corpus.jsonl path) or "
            "'entry' (an inline corpus entry)"
        )
    CampaignOptions.from_dict(spec.get("options"))


def _replay_entry_for(spec: Dict[str, Any], ctx: JobContext):
    from ..search.corpus import CorpusEntry, load_corpus
    from ..search.driver import CORPUS_FILE_NAME

    if spec.get("entry") is not None:
        return CorpusEntry(**spec["entry"])
    if spec.get("corpus") is not None:
        corpus_path = Path(spec["corpus"])
    else:
        if ctx.resolve_job_dir is None:
            raise ValueError("replay by job id needs a job store")
        corpus_path = (
            ctx.resolve_job_dir(str(spec["job"])) / SEARCH_DIR_NAME / CORPUS_FILE_NAME
        )
    entries = load_corpus(corpus_path)
    if not entries:
        raise ValueError(f"corpus {corpus_path} is empty")
    index = spec.get("index")
    if index is None:
        return entries[0]
    by_index = {entry.index: entry for entry in entries}
    if int(index) not in by_index:
        raise ValueError(
            f"no corpus entry with index {index} (have: {sorted(by_index)})"
        )
    return by_index[int(index)]


def run_replay_job(spec: Dict[str, Any], ctx: JobContext) -> Dict[str, Any]:
    """Re-run one corpus counterexample; fail the job on robustness drift."""
    from ..experiments.campaign import CampaignOptions
    from ..jsonutil import dumps as strict_dumps
    from ..search.corpus import replay_entry

    options = CampaignOptions.from_dict(spec.get("options"))
    entry = _replay_entry_for(spec, ctx)
    minimized = not spec.get("original", False)
    evaluation = replay_entry(
        entry,
        options,
        minimized=minimized,
        trace=ctx.job_dir / "replay.trace.jsonl",
    )
    recorded = entry.minimized_robustness if minimized else entry.robustness
    drift = abs(evaluation.robustness - recorded)
    result = {
        "scenario": entry.scenario_name,
        "form": "minimized" if minimized else "original",
        "robustness": evaluation.robustness,
        "recorded_robustness": recorded,
        "drift": drift,
        "collision": evaluation.collision,
        "reason": evaluation.reason,
    }
    (ctx.job_dir / REPORT_NAME).write_text(
        strict_dumps(
            {"kind": "replay_report", "schema": 1, **result},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if drift > 1e-9:
        raise RuntimeError(
            f"replay robustness drifted by {drift:g} from the corpus "
            f"(recorded {recorded:+.6f}, got {evaluation.robustness:+.6f})"
        )
    return result


register_job_kind("campaign", run_campaign_job, validate_campaign_spec)
register_job_kind("falsify", run_falsify_job, validate_falsify_spec)
register_job_kind("replay", run_replay_job, validate_replay_spec)
