"""Campaign execution engine: sharded parallel task running with
checkpoint/resume, worker fault tolerance and live progress.

The paper's evaluation is embarrassingly parallel — 90 seeded runs plus
counterfactual and ablation passes, every run independent and seeded.
This package is the one that runs campaigns: it turns any (scenario,
seed, options) sweep into :class:`WorkUnit` tasks and executes them on a
forked process pool (or a deterministic in-process loop), guaranteeing
that ``jobs=N`` reproduces ``jobs=1`` exactly while surviving task
crashes, hangs and dead workers.

* :mod:`repro.exec.work` — :class:`WorkUnit` identity.
* :mod:`repro.exec.engine` — :class:`CampaignEngine`, the runner itself:
  it picks serial or pool once per campaign and runs every pending unit,
  one worker call apiece, with deadlines, retries and pool rebuilds.
* :mod:`repro.exec.journal` — the JSONL run journal behind
  checkpoint/resume.
* :mod:`repro.exec.progress` — progress hooks and the campaign summary.
* :mod:`repro.exec.options` — :class:`ExecutionOptions`, the one set of
  execution knobs (jobs, journal, resume, trace) every campaign entry
  point takes, and the CLI flags that set them.
"""

from .engine import (
    CampaignCancelled,
    CampaignEngine,
    CampaignExecutionError,
    EnginePolicy,
    ExecutionReport,
    TaskError,
    TaskRecord,
    TaskTimeout,
)
from .journal import (
    JournalSpecMismatch,
    JournalState,
    RunJournal,
    check_spec_fingerprint,
    load_journal,
)
from .options import ExecutionOptions, add_execution_args
from .progress import (
    CampaignSummary,
    ProgressEvent,
    ProgressHook,
    StderrReporter,
    TelemetryProgress,
)
from .work import WorkUnit, check_unique_keys, fingerprint

__all__ = [
    "CampaignCancelled",
    "CampaignEngine",
    "CampaignExecutionError",
    "CampaignSummary",
    "EnginePolicy",
    "ExecutionOptions",
    "ExecutionReport",
    "JournalSpecMismatch",
    "JournalState",
    "ProgressEvent",
    "ProgressHook",
    "RunJournal",
    "StderrReporter",
    "TelemetryProgress",
    "TaskError",
    "TaskRecord",
    "TaskTimeout",
    "WorkUnit",
    "add_execution_args",
    "check_spec_fingerprint",
    "check_unique_keys",
    "fingerprint",
    "load_journal",
]
