"""In-process cost of tracing a run, as a fraction of the untraced run.

Runs ``nominal`` and ``pedestrian_crossing`` at seeds 0-14 (30 runs,
~2,900 ticks) through ``run_once``, each run once untraced and once
traced back to back, alternating which goes first, and prints the
traced/untraced time ratio minus one for each of five repeats and their
median::

    PYTHONPATH=src python benchmarks/trace_overhead.py

Traces go to a temporary directory that is removed at the end.  Times
are wall-clock, so a host whose CPU speed drifts spreads the repeats;
compare medians of several repeats, not single ones.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

from repro.experiments.campaign import run_once
from repro.sim import ScenarioType

RUNS = [
    (scenario, seed)
    for scenario in (ScenarioType.NOMINAL, ScenarioType.PEDESTRIAN)
    for seed in range(15)
]
REPEATS = 5


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_once(*RUNS[0], trace=out / "warm-up.trace.jsonl")
        overheads = []
        for repeat in range(REPEATS):
            untraced = traced = 0.0
            for n, (scenario, seed) in enumerate(RUNS):
                path = out / f"{scenario.value}-{seed}.trace.jsonl"
                for with_trace in ((False, True) if (n + repeat) % 2 == 0 else (True, False)):
                    started = time.perf_counter()
                    run_once(scenario, seed, trace=path if with_trace else None)
                    elapsed = time.perf_counter() - started
                    if with_trace:
                        traced += elapsed
                    else:
                        untraced += elapsed
            overheads.append(traced / untraced - 1.0)
            print(
                f"repeat {repeat}: untraced {untraced:.3f} s, traced {traced:.3f} s, "
                f"overhead {overheads[-1]:+.1%}",
                flush=True,
            )
    print(f"median overhead {statistics.median(overheads):+.1%} over {REPEATS} repeats")


if __name__ == "__main__":
    main()
