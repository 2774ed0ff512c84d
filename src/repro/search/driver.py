"""The search loop: explore, falsify, minimize — deterministically.

``explore`` samples the space (uniform / Latin-hypercube / grid) and maps
outcomes into the coverage map.  ``falsify`` runs an LHS warmup and then
a mutation-based hill-descender with annealing-style step decay: each
round mutates the current elites (lowest-robustness candidates) and
keeps descending until the evaluation budget is spent; the worst
negatives are then greedily *minimized* by reverting dimensions toward
the nominal builder while the violation persists.

Determinism by construction:

* every random draw comes from one ``random.Random`` seeded from
  ``(family, seed)`` and consumed only on the (single-threaded) driver
  side;
* candidate evaluations fan out over :class:`~repro.exec.CampaignEngine`,
  which returns results in submission order for any job count;
* artifacts (corpus, coverage map, search trace, summary) contain no
  wall-clock fields and serialize with sorted keys.

Hence ``--jobs 4`` produces byte-identical artifacts to ``--jobs 1``.

Every evaluation is journaled (``search.journal.jsonl``) through the
engine's resume machinery: re-running with ``resume=True`` replays
settled candidates from the journal and only executes what is missing.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exec import CampaignEngine, EnginePolicy, fingerprint
from ..experiments.campaign import CampaignOptions, normalized_field_values
from ..jsonutil import dumps as strict_dumps
from ..obs.telemetry import TelemetryRegistry
from ..obs.trace import TRACE_SCHEMA_VERSION, TraceWriter
from ..sim.scenario import spec_to_dict
from .corpus import CorpusEntry, write_corpus
from .coverage import COVERAGE_FILE_NAME, CoverageMap
from .objective import (
    Evaluation,
    candidate_key,
    decode_evaluation,
    encode_evaluation,
    execute_search_unit,
    search_unit,
)
from .space import Params, SearchSpace, get_space

#: File names the driver writes inside its output directory.
SEARCH_JOURNAL_NAME = "search.journal.jsonl"
SEARCH_TRACE_NAME = "search.trace.jsonl"
CORPUS_FILE_NAME = "corpus.jsonl"
SUMMARY_FILE_NAME = "summary.json"


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run (and its artifacts).

    Attributes:
        family: scenario family (see :mod:`repro.search.space`).
        mode: ``"falsify"`` (guided descent + minimization) or
            ``"explore"`` (one sampling pass).
        seed: master seed — drives sampling, mutation *and* the
            simulator seed every candidate runs under.
        budget: total search-phase evaluations (grid sampling ignores it).
        warmup: LHS evaluations before descent (default: ~budget/3,
            at least one batch).
        batch: candidates per descent round.
        elites: lowest-robustness candidates mutation draws parents from.
        scale: initial mutation step, as a fraction of each dimension's
            range; decays by ``cooling`` per round (annealing schedule).
        cooling: per-round multiplicative step decay.
        sampler: explore-mode sampler: ``uniform`` / ``lhs`` / ``grid``.
        grid_points: points per float dimension for the grid sampler.
        minimize: greedily minimize found counterexamples (falsify mode).
        minimize_rounds: full dimension sweeps per minimization.
        max_counterexamples: corpus cap (worst first, one per coverage
            cell).
        bins: coverage-map bins per float dimension.
        jobs: evaluation fan-out width (worker processes).
        timeout_s: per-evaluation engine deadline.
    """

    family: str
    mode: str = "falsify"
    seed: int = 0
    budget: int = 24
    warmup: Optional[int] = None
    batch: int = 8
    elites: int = 3
    scale: float = 0.3
    cooling: float = 0.85
    sampler: str = "lhs"
    grid_points: int = 3
    minimize: bool = True
    minimize_rounds: int = 2
    max_counterexamples: int = 3
    bins: int = 4
    jobs: int = 1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.mode not in ("explore", "falsify"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sampler not in ("uniform", "lhs", "grid"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.elites < 1:
            raise ValueError(f"elites must be >= 1, got {self.elites}")

    # ------------------------------------------------------------------
    # plain-dict constructors (shared by the CLI's argparse handlers and
    # the service's JSON job payloads)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; :meth:`from_dict` round-trips it exactly."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchConfig":
        """Build a config from a plain (e.g. JSON-decoded) dict.

        Numeric values are coerced to the declared field types so a
        JSON-submitted spec and a CLI-built one are the same object (the
        ``__post_init__`` validation runs either way); unknown keys raise
        ``ValueError``.
        """
        data = normalized_field_values(cls, dict(data or {}))
        for field_name in ("seed", "budget", "batch", "elites", "grid_points",
                           "minimize_rounds", "max_counterexamples", "bins",
                           "jobs"):
            if data.get(field_name) is not None:
                data[field_name] = int(data[field_name])
        if data.get("warmup") is not None:
            data["warmup"] = int(data["warmup"])
        return cls(**data)


@dataclass
class SearchResult:
    """What one driver run produced (artifacts are already on disk)."""

    config: SearchConfig
    out_dir: Path
    evaluations: List[Evaluation]
    counterexamples: List[CorpusEntry]
    coverage: CoverageMap
    rounds: int
    minimization_steps: int
    wall_time_s: float = 0.0
    busy_time_s: float = 0.0
    mode: str = "serial"
    jobs: int = 1

    @property
    def best_robustness(self) -> Optional[float]:
        if not self.evaluations:
            return None
        return min(e.robustness for e in self.evaluations)


class SearchDriver:
    """Run one configured search against one campaign configuration."""

    def __init__(
        self,
        config: SearchConfig,
        options: Optional[CampaignOptions] = None,
        *,
        out_dir: "str | Path",
        trace: "str | Path | None" = None,
        resume: bool = False,
        progress: "Any" = "auto",
        cancel: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.config = config
        self.options = options or CampaignOptions()
        self.cancel = cancel
        self.space: SearchSpace = get_space(config.family)
        self.out_dir = Path(out_dir)
        self.trace_dir = Path(trace) if trace is not None else None
        self.resume = resume
        self.progress = progress
        self.rng = random.Random(f"repro.search:{config.family}:{config.seed}")
        self.telemetry = TelemetryRegistry()
        self._ordinal = 0
        self._seq = 0
        self._trace_writer: Optional[TraceWriter] = None
        self._busy_time_s = 0.0
        self._engine_mode = "serial"

    def spec_fingerprint(self) -> str:
        """Journal-header identity of this search spec.

        Family, master seed and campaign options determine the candidate
        stream; budget/batch knobs are excluded so extending a search's
        budget remains a legitimate resume.
        """
        return fingerprint(
            {
                "kind": "search",
                "family": self.config.family,
                "mode": self.config.mode,
                "seed": self.config.seed,
                "options": self.options,
            }
        )

    # ------------------------------------------------------------------
    # search trace (deterministic: no wall-clock fields)
    # ------------------------------------------------------------------
    def _emit(self, event: str, iteration: int, payload: Dict[str, Any]) -> None:
        if self._trace_writer is None:
            return
        self._seq += 1
        self._trace_writer.write(
            {
                "kind": "event",
                "seq": self._seq,
                "event": event,
                "iteration": iteration,
                "time": 0.0,
                "role": None,
                "payload": payload,
            }
        )

    def _open_trace(self) -> None:
        self._trace_writer = TraceWriter(self.out_dir / SEARCH_TRACE_NAME)
        self._trace_writer.write(
            {
                "kind": "trace_header",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_kind": "search",
                "trace_id": f"search:{self.config.family}:{self.config.seed}",
                "meta": {
                    "family": self.config.family,
                    "seed": self.config.seed,
                    "mode": self.config.mode,
                    "budget": self.config.budget,
                },
            }
        )

    def _close_trace(self, summary: Dict[str, Any]) -> None:
        if self._trace_writer is None:
            return
        self._trace_writer.write(
            {
                "kind": "trace_footer",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_id": f"search:{self.config.family}:{self.config.seed}",
                "events": self._seq,
                "spans": 0,
                "dropped_events": 0,
                "metrics_summary": None,
                "search_summary": summary,
                "telemetry": self.telemetry.snapshot(),
            }
        )
        self._trace_writer.close()
        self._trace_writer = None

    # ------------------------------------------------------------------
    # evaluation fan-out
    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, candidates: Sequence[Params], round_index: int
    ) -> List[Evaluation]:
        """Evaluate candidates over the engine, in submission order.

        Every call shares one journal (always opened with ``resume=True``
        so earlier rounds' entries survive); the engine replays cached
        candidates and executes only what is new.
        """
        units = []
        for params in candidates:
            key = candidate_key(
                self.config.family, self.config.seed, self._ordinal, params
            )
            self._ordinal += 1
            units.append(
                search_unit(
                    key,
                    self.config.family,
                    params,
                    self.config.seed,
                    self.options,
                    trace_dir=self.trace_dir,
                )
            )
        jobs = min(self.config.jobs, len(units))
        engine = CampaignEngine(
            execute_search_unit,
            EnginePolicy(jobs=jobs, timeout_s=self.config.timeout_s),
            encode=encode_evaluation,
            decode=decode_evaluation,
            journal=self.out_dir / SEARCH_JOURNAL_NAME,
            resume=True,
            progress=self.progress,
            spec_fingerprint=self.spec_fingerprint(),
            cancel=self.cancel,
        )
        report = engine.run(units).raise_on_error()
        summary = report.summary
        self._busy_time_s += summary.busy_time_s
        if summary.mode != "serial":
            self._engine_mode = summary.mode
        evaluations: List[Evaluation] = report.results()
        for evaluation in evaluations:
            self.telemetry.counter("search.evaluations").inc()
            self._emit(
                "candidate_evaluated",
                round_index,
                {
                    "key": evaluation.key,
                    "round": round_index,
                    "robustness": evaluation.robustness,
                    "collision": evaluation.collision,
                    "reason": evaluation.reason,
                },
            )
        return evaluations

    def _sample_phase(self) -> List[List[Params]]:
        """Candidate batches for the sampling phase, mode/sampler aware."""
        cfg = self.config
        if cfg.mode == "explore" and cfg.sampler == "grid":
            vectors = self.space.sample_grid(cfg.grid_points)
        elif cfg.mode == "explore" and cfg.sampler == "uniform":
            vectors = [self.space.sample_uniform(self.rng) for _ in range(cfg.budget)]
        elif cfg.mode == "explore":
            vectors = self.space.sample_lhs(self.rng, cfg.budget)
        else:
            warmup = cfg.warmup
            if warmup is None:
                warmup = max(cfg.batch, cfg.budget // 3)
            warmup = min(warmup, cfg.budget)
            vectors = self.space.sample_lhs(self.rng, warmup)
        return [vectors[i : i + cfg.batch] for i in range(0, len(vectors), cfg.batch)]

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        started = time.perf_counter()
        cfg = self.config
        self.out_dir.mkdir(parents=True, exist_ok=True)
        journal = self.out_dir / SEARCH_JOURNAL_NAME
        if not self.resume and journal.exists():
            journal.unlink()
        self._open_trace()

        evaluations: List[Evaluation] = []
        rounds = 0
        minimization_steps = 0

        # -------------------------------------------------- sampling
        for batch in self._sample_phase():
            for params in batch:
                self.telemetry.counter("search.candidates").inc()
                self._emit(
                    "candidate_sampled",
                    rounds,
                    {"round": rounds, "params": params},
                )
            evaluations.extend(self._evaluate_batch(batch, rounds))
        rounds += 1

        # -------------------------------------------------- descent
        if cfg.mode == "falsify":
            scale = cfg.scale
            while len(evaluations) < cfg.budget:
                elites = sorted(
                    evaluations, key=lambda e: (e.robustness, e.key)
                )[: cfg.elites]
                count = min(cfg.batch, cfg.budget - len(evaluations))
                batch = []
                for i in range(count):
                    parent = elites[i % len(elites)]
                    batch.append(self.space.mutate(parent.params, self.rng, scale))
                for params in batch:
                    self.telemetry.counter("search.candidates").inc()
                    self._emit(
                        "candidate_sampled",
                        rounds,
                        {"round": rounds, "params": params},
                    )
                evaluations.extend(self._evaluate_batch(batch, rounds))
                scale = max(scale * cfg.cooling, 0.02)
                rounds += 1

        # -------------------------------------------------- coverage
        coverage = CoverageMap(self.space, bins=cfg.bins)
        for evaluation in evaluations:
            coverage.add(evaluation.params, evaluation.robustness, evaluation.collision)

        # -------------------------------------------------- counterexamples
        entries: List[CorpusEntry] = []
        negatives = sorted(
            (e for e in evaluations if e.falsified),
            key=lambda e: (e.robustness, e.key),
        )
        selected: List[Evaluation] = []
        seen_cells: set = set()
        for evaluation in negatives:
            cell = coverage.cell_key(evaluation.params)
            if cell in seen_cells:
                continue
            seen_cells.add(cell)
            selected.append(evaluation)
            if len(selected) >= cfg.max_counterexamples:
                break
        for index, evaluation in enumerate(selected):
            if cfg.minimize and cfg.mode == "falsify":
                entry, steps, extra = self._minimize(evaluation, index, rounds)
                minimization_steps += steps
                for minimized_eval in extra:
                    coverage.add(
                        minimized_eval.params,
                        minimized_eval.robustness,
                        minimized_eval.collision,
                    )
                evaluations.extend(extra)
            else:
                entry = self._entry_for(evaluation, index, evaluation, [])
            entries.append(entry)
            self.telemetry.counter("search.counterexamples").inc()
            self._emit(
                "counterexample_found",
                rounds,
                {
                    "index": entry.index,
                    "key": entry.key,
                    "robustness": entry.robustness,
                    "minimized_robustness": entry.minimized_robustness,
                    "outside_default_jitter": entry.outside_default_jitter,
                    "reverted_dims": entry.reverted_dims,
                },
            )

        # -------------------------------------------------- artifacts
        best = min((e.robustness for e in evaluations), default=None)
        if best is not None:
            self.telemetry.gauge("search.best_robustness").set(best)
        summary = {
            "family": cfg.family,
            "seed": cfg.seed,
            "mode": cfg.mode,
            "candidates": self.telemetry.counter("search.candidates").value,
            "evaluations": self.telemetry.counter("search.evaluations").value,
            "counterexamples": len(entries),
            "minimization_steps": minimization_steps,
            "rounds": rounds,
            "best_robustness": best,
            "coverage": {
                "bins": cfg.bins,
                "occupied": coverage.occupied,
                "total_cells": coverage.total_cells,
            },
        }
        write_corpus(entries, self.out_dir / CORPUS_FILE_NAME)
        coverage.save(self.out_dir / COVERAGE_FILE_NAME)
        (self.out_dir / SUMMARY_FILE_NAME).write_text(
            strict_dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        self._close_trace(summary)

        return SearchResult(
            config=cfg,
            out_dir=self.out_dir,
            evaluations=evaluations,
            counterexamples=entries,
            coverage=coverage,
            rounds=rounds,
            minimization_steps=minimization_steps,
            wall_time_s=time.perf_counter() - started,
            busy_time_s=self._busy_time_s,
            mode=self._engine_mode,
            jobs=cfg.jobs,
        )

    # ------------------------------------------------------------------
    def _entry_for(
        self,
        evaluation: Evaluation,
        index: int,
        minimized: Evaluation,
        reverted: List[str],
    ) -> CorpusEntry:
        original_spec = self.space.to_spec(evaluation.params, evaluation.run_seed)
        minimized_spec = self.space.to_spec(minimized.params, minimized.run_seed)
        return CorpusEntry(
            family=self.config.family,
            index=index,
            key=evaluation.key,
            run_seed=evaluation.run_seed,
            robustness=evaluation.robustness,
            minimized_robustness=minimized.robustness,
            collision=minimized.collision,
            outside_default_jitter=not self.space.seed_reachable(minimized.params),
            params=dict(evaluation.params),
            minimized_params=dict(minimized.params),
            reverted_dims=list(reverted),
            spec=spec_to_dict(original_spec),
            minimized_spec=spec_to_dict(minimized_spec),
        )

    def _minimize(
        self, evaluation: Evaluation, index: int, round_index: int
    ) -> "Tuple[CorpusEntry, int, List[Evaluation]]":
        """Greedy parameter-reversion toward the nominal builder.

        Sweep the dimensions (in canonical order), reverting each to its
        nominal value whenever the violation survives the reversion; stop
        after :attr:`SearchConfig.minimize_rounds` sweeps or a sweep with
        no accepted reversion.  Every probe is an ordinary journaled
        engine evaluation.
        """
        nominal = self.space.nominal_params()
        best = evaluation
        reverted: List[str] = []
        steps = 0
        extra: List[Evaluation] = []
        for _ in range(self.config.minimize_rounds):
            changed = False
            for dimension in self.space.dimensions:
                name = dimension.name
                if best.params[name] == nominal[name]:
                    continue
                trial = dict(best.params)
                trial[name] = nominal[name]
                probe = self._evaluate_batch([trial], round_index)[0]
                extra.append(probe)
                steps += 1
                accepted = probe.falsified
                self.telemetry.counter("search.minimization_steps").inc()
                self._emit(
                    "minimization_step",
                    round_index,
                    {
                        "index": index,
                        "dimension": name,
                        "robustness": probe.robustness,
                        "accepted": accepted,
                    },
                )
                if accepted:
                    best = probe
                    if name not in reverted:
                        reverted.append(name)
                    changed = True
            if not changed:
                break
        return self._entry_for(evaluation, index, best, reverted), steps, extra
