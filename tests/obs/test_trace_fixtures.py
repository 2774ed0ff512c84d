"""Recorded schema-v2 traces of stub runs, replayed against the writer.

The files under ``data/`` were written by the trace recorder as it stood
when the controller still published one event per tick milestone
(``iteration_started``, ``state_updated``, one ``role_executed`` per role,
``action_executed``) and the recorder folded them back into one
``iteration`` record.  They pin how evidence events interleave with a
tick: every ``seq``, every tick record's ``seq`` range, roles and action,
and every footer count.  Each run below is rebuilt, traced, and compared
with its recording once the timing fields are removed.

Only stub environments are used: no simulator output (which goes through
libm) is pinned here.
"""

import json
from pathlib import Path

import pytest

from repro.core import (
    EventKind,
    OrchestrationController,
    OrchestratorConfig,
    ResilienceConfig,
    Role,
    RoleExecutionError,
    RoleGraph,
    RoleKind,
    RoleResult,
    Verdict,
)
from repro.core.triggers import Periodic
from repro.obs.trace import load_trace, trace_controller, verify_trace
from tests.conftest import ScriptedRole, StubEnvironment, constant_generator

DATA = Path(__file__).parent / "data"


class _Exploding(ScriptedRole):
    """A safety monitor that raises at iteration 2."""

    def execute(self, context):
        if context.iteration == 2:
            raise RuntimeError("boom")
        return super().execute(context)


class _BlindEnvironment(StubEnvironment):
    """A stub environment whose sensors fail at tick 2."""

    def observe(self):
        if self._tick == 2:
            raise RuntimeError("sensor down")
        return super().observe()


def crashed_controller(crash: str):
    """A controller whose run a raising role (``crash`` ``"role"``) or a
    raising ``observe`` (``"observe"``) cuts short at iteration 2, and the
    error its run raises."""
    if crash == "role":
        monitor = _Exploding(
            [RoleResult(verdict=Verdict.FAIL, narrative="too close")],
            name="Monitor",
            kind=RoleKind.SAFETY_MONITOR,
        )
        environment = StubEnvironment(steps=5)
    else:
        monitor = ScriptedRole([RoleResult(verdict=Verdict.PASS)], name="Monitor")
        environment = _BlindEnvironment(steps=5)
    controller = OrchestrationController([constant_generator("go"), monitor], environment)
    return controller, RoleExecutionError if crash == "role" else RuntimeError


def crashed_run(crash: str, path: Path) -> OrchestrationController:
    """Trace a :func:`crashed_controller` run, then finalize."""
    controller, error = crashed_controller(crash)
    recorder = trace_controller(controller, path, trace_id=f"crash-{crash}")
    with pytest.raises(error):
        controller.run()
    recorder.finalize()
    return controller


class _FlakyGenerator(Role):
    """Plans ``go`` except inside iterations 2-8, where it raises."""

    kind = RoleKind.GENERATOR

    def execute(self, context):
        if 2 <= context.iteration < 9:
            raise RuntimeError(f"outage at iteration {context.iteration}")
        return RoleResult(verdict=Verdict.INFO, data={"action": "go"})


class _Injector(Role):
    """Records one fault at iterations 1 and 11."""

    kind = RoleKind.FAULT_INJECTOR

    def execute(self, context):
        if context.iteration in (1, 11):
            context.metrics.record_fault(
                "ghost", context.iteration, context.time, detail="ghost vehicle #-1"
            )
        return RoleResult(verdict=Verdict.INFO)


class _Monitor(Role):
    """Fails at iterations 1 and 10."""

    kind = RoleKind.SAFETY_MONITOR

    def execute(self, context):
        if context.iteration in (1, 10):
            return RoleResult(verdict=Verdict.FAIL, narrative="too close")
        return RoleResult(verdict=Verdict.PASS)


class _Recovery(Role):
    """Brakes whenever the monitor failed this iteration."""

    kind = RoleKind.RECOVERY_PLANNER

    def execute(self, context):
        monitor = context.state.output_of("Monitor")
        if monitor is not None and monitor.verdict is Verdict.FAIL:
            return RoleResult(verdict=Verdict.WARNING, data={"action": "brake"})
        return RoleResult(verdict=Verdict.PASS)


def resilient_run(path: Path) -> OrchestrationController:
    """Trace a 14-tick run publishing every evidence kind a stub run can
    publish deterministically, interleaved with role executions."""
    graph = RoleGraph.sequential(
        [
            _FlakyGenerator("Generator"),
            _Injector("Injector"),
            _Monitor("Monitor"),
            ScriptedRole([RoleResult(verdict=Verdict.PASS)], name="Periodic"),
            _Recovery("Recovery"),
        ],
        triggers={"Periodic": Periodic(4)},
    )
    config = OrchestratorConfig(
        resilience=ResilienceConfig(
            max_retries=1,
            breaker_threshold=2,
            breaker_cooldown=3,
            fallback=constant_generator("fb", name="Fallback"),
            safe_action="SAFE",
            max_hold=3,
        )
    )
    controller = OrchestrationController(graph, StubEnvironment(steps=14), config)
    recorder = trace_controller(controller, path, trace_id="resilient")
    result = controller.run()
    recorder.finalize(result.metrics)
    return controller


RUNS = {
    "stub-crash-role": lambda path: crashed_run("role", path),
    "stub-crash-observe": lambda path: crashed_run("observe", path),
    "stub-resilient": resilient_run,
}


def untimed(path: Path):
    """A trace file's records without their timing fields: every
    ``start_s`` and ``duration_s``, each role's latency, the footer's
    latency histograms and role-timing means and totals (and the retired
    ``dropped_events`` count)."""
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("start_s", None)
        record.pop("duration_s", None)
        if record["kind"] == "iteration" and record["roles"] is not None:
            record["roles"] = [[name, verdict] for name, verdict, _ in record["roles"]]
        if record["kind"] == "trace_footer":
            record.pop("dropped_events", None)
            record["telemetry"].pop("histograms")
            summary = record["metrics_summary"]
            for timing in (summary or {}).get("role_timings", {}).values():
                timing.pop("mean_s")
                timing.pop("total_s")
        records.append(record)
    return records


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_its_recording(name, tmp_path):
    path = tmp_path / f"{name}.trace.jsonl"
    RUNS[name](path)
    assert untimed(path) == untimed(DATA / f"{name}.trace.jsonl")
    assert verify_trace(load_trace(path)) == (True, [])


def test_the_resilient_recording_interleaves_every_evidence_kind():
    trace = load_trace(DATA / "stub-resilient.trace.jsonl")
    published = {event["event"] for event in trace.events}
    assert {
        kind.value
        for kind in (
            EventKind.FAULT_INJECTED,
            EventKind.VIOLATION_DETECTED,
            EventKind.RECOVERY_ACTIVATED,
            EventKind.ROLE_RETRIED,
            EventKind.ROLE_SKIPPED,
            EventKind.DEGRADED_MODE_ENTERED,
            EventKind.DEGRADED_MODE_EXITED,
            EventKind.ACTION_HELD,
        )
    } <= published
    assert verify_trace(trace) == (True, [])
