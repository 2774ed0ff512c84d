"""Scalability microbenchmarks (SS VI.C).

The paper notes that "orchestrating many complex roles ... could become a
bottleneck" against the 100 ms tick.  These benches measure the costs that
scale: one full assurance-loop iteration, the geometric safety check, the
STL monitors and the orchestration overhead itself.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core import (
    OrchestrationController,
    OrchestratorConfig,
    RoleGraph,
    RoleResult,
    Verdict,
)
from repro.exec import CampaignEngine, EnginePolicy, WorkUnit
from repro.experiments import build_controller, run_suite
from repro.roles import predict_min_separation
from repro.sim import (
    Maneuver,
    ManeuverExecutor,
    ScenarioType,
    build_scenario,
    perceive,
)
from repro.stl import OnlineMonitor, Trace, evaluate, parse

#: Calls a check times itself when pytest-benchmark is disabled.
UNTIMED_MODE_CALLS = 5


def mean_seconds(benchmark: Any, fn: Callable[[], Any]) -> float:
    """Mean seconds per call of ``fn``.

    pytest-benchmark's own mean when it timed ``fn``; under
    ``--benchmark-disable`` the fixture calls ``fn`` once, untimed, and
    leaves ``benchmark.stats`` as ``None``, so ``UNTIMED_MODE_CALLS``
    calls are timed here and every bound is still asserted.
    """
    if benchmark.stats is not None:
        return benchmark.stats.stats.mean
    started = time.perf_counter()
    for _ in range(UNTIMED_MODE_CALLS):
        fn()
    return (time.perf_counter() - started) / UNTIMED_MODE_CALLS


def test_full_iteration_cost(benchmark):
    """One complete role-stack iteration vs the 100 ms real-time budget."""
    controller = build_controller(build_scenario(ScenarioType.CONGESTED, 0))
    controller.config.max_iterations = 400

    def run():
        return controller.run().iterations

    iterations = benchmark(run)
    assert iterations > 50
    mean_iteration_s = mean_seconds(benchmark, run) / iterations
    # Keep a generous bound: the loop must stay well under 100 ms/tick.
    assert mean_iteration_s < 0.1


def test_geometric_check_cost(benchmark):
    """The SafetyMonitor's predicted-separation check on a busy scene."""
    from repro.sim import World

    world = World(build_scenario(ScenarioType.CONGESTED, 0))
    for _ in range(60):
        world.ego.apply_acceleration(0.5)
        world.step()
    snapshot = perceive(world)
    executor = ManeuverExecutor()

    def check():
        return predict_min_separation(
            snapshot, world.ego.route, world.ego.s, Maneuver.PROCEED, executor
        )

    result = benchmark(check)
    assert result.min_separation >= 0.0
    # Bound generously (suite-level CPU contention): far under one tick.
    assert mean_seconds(benchmark, check) < 0.05


def test_stl_online_monitor_throughput(benchmark):
    """Per-tick cost of an online STL monitor with a 1 s window."""
    monitor = OnlineMonitor("G[0,1] (gap >= 1.0 | speed <= 0.5)", period=0.1)
    samples = [{"gap": 5.0 - (i % 40) * 0.1, "speed": 7.0} for i in range(300)]

    def feed():
        monitor.reset()
        verdicts = 0
        for sample in samples:
            verdicts += len(monitor.update(sample))
        return verdicts

    verdicts = benchmark(feed)
    assert verdicts == 290  # 300 samples minus the 10-step horizon


def test_stl_offline_evaluation(benchmark):
    """Offline robustness over a 10,000-step trace (assurance-case replay)."""
    n = 10_000
    trace = Trace(
        period=0.1,
        signals={
            "gap": [5.0 + (i % 100) * 0.05 for i in range(n)],
            "speed": [7.0 for _ in range(n)],
        },
    )
    formula = parse("G[0,2] (gap >= 1.0 | speed <= 0.5)")
    values = benchmark(lambda: evaluate(formula, trace))
    assert len(values) == n


def test_orchestration_overhead(benchmark):
    """Framework overhead with trivial roles: the ceiling on role count."""
    from repro.core import Role, RoleKind
    from repro.env.interface import EnvironmentInterface

    class NoopEnvironment(EnvironmentInterface):
        def __init__(self, steps):
            self.steps = steps
            self._tick = 0

        def reset(self):
            self._tick = 0

        def observe(self):
            return {"tick": self._tick}

        def apply_action(self, action):
            pass

        def advance(self):
            self._tick += 1

        @property
        def time(self):
            return self._tick * 0.1

        @property
        def done(self):
            return self._tick >= self.steps

    class NoopRole(Role):
        kind = RoleKind.CUSTOM

        def execute(self, context):
            return RoleResult(verdict=Verdict.PASS)

    class NoopGenerator(Role):
        kind = RoleKind.GENERATOR

        def execute(self, context):
            return RoleResult(verdict=Verdict.INFO, data={"action": "noop"})

    roles = [NoopGenerator("Generator")] + [NoopRole(f"noop{i}") for i in range(9)]

    def run():
        controller = OrchestrationController(
            RoleGraph.sequential(roles), NoopEnvironment(steps=200), OrchestratorConfig()
        )
        return controller.run().iterations

    iterations = benchmark(run)
    assert iterations == 200
    per_role_iteration = mean_seconds(benchmark, run) / (iterations * len(roles))
    assert per_role_iteration < 1e-3  # microseconds-scale per role


def _noop_task(payload):
    """Module-level (picklable) trivial task for engine-overhead benches."""
    return payload


def test_engine_dispatch_overhead(benchmark):
    """Per-task overhead of the repro.exec engine's in-process path.

    The engine wraps every task with retry accounting, settling and
    progress events; that envelope must stay far below the cost of one
    real campaign run (hundreds of ms) for parallelism to pay off.
    """
    units = [WorkUnit(key=f"u{i}", payload=i) for i in range(500)]
    engine = CampaignEngine(_noop_task, EnginePolicy(jobs=1), progress=None)

    def run():
        return engine.run(units)

    report = benchmark(run)
    assert all(record.ok for record in report.records)
    per_task = mean_seconds(benchmark, run) / len(units)
    assert per_task < 1e-3  # sub-millisecond engine envelope per task


def test_parallel_campaign_throughput(benchmark):
    """End-to-end campaign throughput through the process-pool runner."""
    seeds = (0, 1)

    def run():
        return run_suite(
            (ScenarioType.NOMINAL,), seeds, jobs=2, progress=None
        )

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results[ScenarioType.NOMINAL]) == len(seeds)
