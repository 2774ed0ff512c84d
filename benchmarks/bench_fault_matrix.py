"""Benchmark + reproduction of the fault-robustness matrix.

Sweeps the complete FaultInjector library (§III.B.2's "sensor noise /
failure, communication delays/loss, GPS spoofing" plus the two §IV.C
attacks) across scenarios and asserts the expected impact ordering.
"""

from __future__ import annotations

from repro.experiments.fault_matrix import FAULT_FACTORIES, _run, generate
from repro.sim import ScenarioType

from conftest import BENCH_SEEDS


def test_fault_matrix(benchmark):
    seeds = BENCH_SEEDS[: max(3, len(BENCH_SEEDS) // 2)]
    table = benchmark.pedantic(
        lambda: generate(seeds=seeds, scenarios=(ScenarioType.NOMINAL, ScenarioType.CONGESTED)),
        rounds=1,
        iterations=1,
    )
    print("\n" + table)

    # Shape checks on a couple of anchor cells.
    clean = [_run(ScenarioType.NOMINAL, s, None) for s in seeds]
    ghost = [_run(ScenarioType.NOMINAL, s, FAULT_FACTORIES["ghost_obstacle"]) for s in seeds]
    noise = [_run(ScenarioType.NOMINAL, s, FAULT_FACTORIES["sensor_noise"]) for s in seeds]

    # Clean nominal driving: no flags, always clears.
    assert all(o["cleared"] for o in clean)
    assert not any(o["flagged"] for o in clean)
    # A permanent ghost blocks the lane: flagged everywhere, never cleared.
    assert all(o["flagged"] for o in ghost)
    assert not any(o["cleared"] for o in ghost)
    # Heavy measurement noise produces at least occasional phantom flags.
    assert sum(o["flagged"] for o in noise) >= 1
