"""Coverage-guided scenario search and STL falsification.

The paper evaluates the framework on six hand-authored scenarios; this
package treats scenario generation as a *guided search problem* over the
knobs those builders hard-code.  Layers:

:mod:`repro.search.space`
    Declarative, typed, bounded parameter spaces (one per scenario
    *family*) with samplers (uniform, Latin-hypercube, grid), mutation,
    and ``ScenarioSpec`` construction from a parameter vector.
:mod:`repro.search.objective`
    Runs one candidate through the full assurance loop and scores it
    with the minimum STL robustness of the safety spec over the run's
    history — negative robustness means the candidate *falsifies* the
    stack.
:mod:`repro.search.coverage`
    Discretized parameter-cell occupancy map: which regions of the space
    the search visited and what it found there.
:mod:`repro.search.corpus`
    JSONL corpus of found counterexamples, replayable through the
    ``ScenarioSpec`` round-trip.
:mod:`repro.search.driver`
    The search loop: random/LHS exploration plus a mutation-based
    hill-descender that minimizes robustness, fanned out over
    :mod:`repro.exec` (deterministic for any job count, journaled,
    resumable), with greedy counterexample minimization toward the
    nominal builder.

CLI: ``python -m repro.search {explore,falsify,replay,cover,spaces}``.
"""

from .corpus import CorpusEntry, load_corpus, write_corpus
from .coverage import COVERAGE_FILE_NAME, CoverageMap, load_coverage
from .driver import (
    CORPUS_FILE_NAME,
    SEARCH_JOURNAL_NAME,
    SEARCH_TRACE_NAME,
    SearchConfig,
    SearchDriver,
    SearchResult,
)
from .objective import Evaluation, evaluate_spec, execute_search_unit, run_spec
from .space import Dimension, SearchSpace, get_space, known_families

__all__ = [
    "CORPUS_FILE_NAME",
    "COVERAGE_FILE_NAME",
    "CorpusEntry",
    "CoverageMap",
    "Dimension",
    "Evaluation",
    "SEARCH_JOURNAL_NAME",
    "SEARCH_TRACE_NAME",
    "SearchConfig",
    "SearchDriver",
    "SearchResult",
    "SearchSpace",
    "evaluate_spec",
    "execute_search_unit",
    "get_space",
    "known_families",
    "load_corpus",
    "load_coverage",
    "run_spec",
    "write_corpus",
]
