"""The counterexample corpus: found violations, minimized and replayable.

One JSONL line per counterexample.  Each entry carries both the raw
falsifying parameter vector and its greedily *minimized* form (as many
dimensions as possible reverted to the nominal builder value while the
violation persists), plus the full :class:`~repro.sim.scenario.ScenarioSpec`
round-trip dicts — so a counterexample replays bit-for-bit without
re-running the search that produced it, and without even importing the
search space that defined it.

Entries contain no wall-clock fields and serialize with sorted keys:
the corpus is byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.orchestrator import OrchestrationResult
from ..core.state import StateManager
from ..experiments.campaign import CampaignOptions
from ..jsonutil import dumps as strict_dumps
from ..sim.scenario import ScenarioSpec, spec_from_dict
from .objective import Evaluation, run_spec, score_run

#: Version stamp of the corpus JSONL layout.
CORPUS_SCHEMA_VERSION = 1


@dataclass
class CorpusEntry:
    """One falsifying scenario, before and after minimization."""

    family: str
    index: int
    key: str
    run_seed: int
    robustness: float
    minimized_robustness: float
    collision: bool
    outside_default_jitter: bool
    params: Dict[str, float]
    minimized_params: Dict[str, float]
    reverted_dims: List[str] = field(default_factory=list)
    spec: Dict[str, Any] = field(default_factory=dict)
    minimized_spec: Dict[str, Any] = field(default_factory=dict)
    schema: int = CORPUS_SCHEMA_VERSION

    @property
    def scenario_name(self) -> str:
        """Name this entry replays under (its replay's trace id is
        ``replay:<name>``)."""
        return f"search-{self.family}-{self.index}"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def write_corpus(entries: Sequence[CorpusEntry], path: "str | Path") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(strict_dumps(entry.to_dict(), sort_keys=True) + "\n")
    return path


def load_corpus(path: "str | Path") -> List[CorpusEntry]:
    entries: List[CorpusEntry] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entries.append(CorpusEntry(**json.loads(line)))
    return entries


def entry_spec(entry: CorpusEntry, *, minimized: bool = True) -> ScenarioSpec:
    """Rebuild the entry's scenario spec (minimized form by default)."""
    data = entry.minimized_spec if minimized else entry.spec
    if not data:
        data = entry.spec or entry.minimized_spec
    if not data:
        raise ValueError(
            f"corpus entry {entry.scenario_name} carries no spec dict"
        )
    return spec_from_dict(data)


def replay_entry(
    entry: CorpusEntry,
    options: Optional[CampaignOptions] = None,
    *,
    minimized: bool = True,
    trace: "str | Path | None" = None,
) -> Tuple[Evaluation, OrchestrationResult, StateManager]:
    """Re-run one corpus entry's spec (:func:`entry_spec`) and re-score it.

    The spec is evaluated as recorded, on the run path every scenario
    takes, without touching the scenario registry: two replays running
    at once (the service runs each replay job on its own thread) cannot
    see each other's form.  Returns the resulting
    :class:`~repro.search.objective.Evaluation` with the run's result
    and state manager, so a report on the replay needs no second run.
    """
    key = f"replay:{entry.scenario_name}"
    spec = entry_spec(entry, minimized=minimized)
    result, state = run_spec(spec, options, trace=trace, trace_id=key)
    params = entry.minimized_params if minimized else entry.params
    return score_run(key, entry.family, params, spec, result, state), result, state
