"""In-process cost of tracing a run, as a fraction of the untraced run.

Runs ``nominal`` and ``pedestrian_crossing`` at seeds 0-14 (30 runs,
~2,900 ticks) through ``run_once``, each run once untraced and once
traced back to back, alternating which goes first, and prints the
traced and untraced times, the traced/untraced time ratio minus one and
the traced cost per tick for each of five repeats, then their medians::

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
        rows = []  # (untraced s, traced s, overhead, traced cost per tick in us)
        for repeat in range(REPEATS):
            untraced = traced = 0.0
            ticks = 0
            for n, (scenario, seed) in enumerate(RUNS):
                path = out / f"{scenario.value}-{seed}.trace.jsonl"
                for with_trace in ((False, True) if (n + repeat) % 2 == 0 else (True, False)):
                    started = time.perf_counter()
                    outcome = run_once(scenario, seed, trace=path if with_trace else None)
                    elapsed = time.perf_counter() - started
                    if with_trace:
                        traced += elapsed
                        ticks += outcome.iterations
                    else:
                        untraced += elapsed
            rows.append(
                (untraced, traced, traced / untraced - 1.0, (traced - untraced) / ticks * 1e6)
            )
            print(
                f"repeat {repeat}: untraced {untraced:.3f} s, traced {traced:.3f} s, "
                f"overhead {rows[-1][2]:+.1%}, {rows[-1][3]:.0f} us per traced tick "
                f"({ticks} ticks)",
                flush=True,
            )
    untraced, traced, overhead, per_tick = (
        statistics.median(column) for column in zip(*rows)
    )
    print(
        f"medians over {REPEATS} repeats: untraced {untraced:.3f} s, traced {traced:.3f} s, "
        f"overhead {overhead:+.1%}, {per_tick:.0f} us per traced tick"
    )


if __name__ == "__main__":
    main()
