"""Tests for span-based tracing: recorder round trips, self-certification,
trace discovery, and the serial == parallel guarantee."""

import gc
import json
import shutil
import weakref
from pathlib import Path

import pytest

from repro.core import (
    Event,
    EventKind,
    OrchestrationController,
    RoleKind,
    RoleResult,
    Verdict,
)
from repro.exec import CampaignEngine, EnginePolicy, WorkUnit
from repro.experiments.campaign import CampaignOptions, build_controller, run_once
from repro.obs import TelemetryRegistry, TraceRecorder
from repro.obs.cli import latency_registry, render_summary, summarize_path
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    load_trace,
    load_run_traces,
    recompute_counts,
    recompute_tallies,
    safe_trace_name,
    trace_controller,
    unit_trace_path,
    verify_trace,
)
from repro.sim import ScenarioType, build_scenario
from tests.conftest import (
    ScriptedRole,
    StubEnvironment,
    collect_events,
    constant_generator,
)
from tests.obs.test_trace_fixtures import crashed_controller

def assert_trace_holds(trace, published):
    """The trace's event records are the published events but the
    ``iteration_finished`` that closed each tick, field for field and in
    order; those live in the tick records, one per finished tick with
    its end time; and the event seqs plus the tick ranges cover
    1..footer ``events`` exactly once."""
    assert trace.corrupt_lines == 0
    wanted = [
        (e.kind.value, e.iteration, e.time, e.role, e.payload)
        for e in published
        if e.kind is not EventKind.ITERATION_FINISHED
    ]
    assert [
        (r["event"], r["iteration"], r["time"], r["role"], r["payload"]) for r in trace.events
    ] == wanted
    assert [
        (tick["iteration"], tick["time"][1]) for tick in trace.ticks if tick["time"][1] is not None
    ] == [(e.iteration, e.time) for e in published if e.kind is EventKind.ITERATION_FINISHED]
    ranges = [range(tick["seq"][0], tick["seq"][1] + 1) for tick in trace.ticks]
    outside = [r["seq"] for r in trace.events if not any(r["seq"] in tick for tick in ranges)]
    covered = sorted(outside + [seq for tick in ranges for seq in tick])
    assert covered == list(range(1, trace.footer["events"] + 1))


def assert_ticks_match_history(path, history):
    """Each finished tick record's role verdicts and action equal its
    ``StateManager`` history record's outputs, executed action and source."""
    ticks = [
        record
        for record in map(json.loads, path.read_text().splitlines())
        if record["kind"] == "iteration" and record["time"][1] is not None
    ]
    assert [tick["iteration"] for tick in ticks] == [r.iteration for r in history]
    for tick, record in zip(ticks, history):
        assert tick["time"][0] == record.time
        assert [role[:2] for role in tick["roles"]] == [
            [name, result.verdict.value] for name, result in record.outputs.items()
        ]
        assert tick["action"] == [
            OrchestrationController._describe_action(record.executed_action),
            record.action_source,
        ]


def _build_controller(steps=3):
    monitor = ScriptedRole(
        [
            RoleResult(verdict=Verdict.FAIL, narrative="too close"),
            RoleResult(verdict=Verdict.PASS),
        ],
        name="Monitor",
        kind=RoleKind.SAFETY_MONITOR,
    )
    recovery = ScriptedRole(
        [RoleResult(verdict=Verdict.WARNING, data={"action": "brake"})],
        name="Recovery",
        kind=RoleKind.RECOVERY_PLANNER,
    )
    return OrchestrationController(
        [constant_generator("go"), monitor, recovery], StubEnvironment(steps=steps)
    )


def _traced_run(tmp_path, name="run-a", steps=3):
    controller = _build_controller(steps=steps)
    path = tmp_path / f"{name}.trace.jsonl"
    recorder = trace_controller(controller, path, trace_id=name)
    result = controller.run()
    recorder.finalize(result.metrics)
    return controller, result, path


class TestTraceRecorder:
    def test_header_and_footer(self, tmp_path):
        _, result, path = _traced_run(tmp_path)
        trace = load_trace(path)
        assert trace.header["schema"] == TRACE_SCHEMA_VERSION
        assert trace.header["trace_kind"] == "run"
        assert trace.trace_id == "run-a"
        assert trace.footer["metrics_summary"]["iterations_completed"] == result.iterations
        assert trace.corrupt_lines == 0

    def test_every_bus_event_recorded(self, tmp_path):
        controller = _build_controller()
        published = collect_events(controller)
        path = tmp_path / "run.trace.jsonl"
        recorder = trace_controller(controller, path)
        recorder.finalize(controller.run().metrics)
        assert_trace_holds(load_trace(path), published)
        assert_ticks_match_history(path, controller.state.history)

    def test_self_certifying(self, tmp_path):
        _, result, path = _traced_run(tmp_path)
        trace = load_trace(path)
        ok, mismatches = verify_trace(trace)
        assert ok and not mismatches
        counts = recompute_counts(trace)
        summary = result.metrics.summary()
        assert counts["iterations_completed"] == summary["iterations_completed"]
        assert counts["violation_counts"] == dict(summary["violation_counts"])
        assert counts["fault_count"] == summary["fault_count"]
        assert counts["recovery_activations"] == summary["recovery_activations"]

    def test_span_nesting(self, tmp_path):
        # One run span; each tick record stands for an iteration span
        # inside it, and its roles for role spans inside the tick.
        _, result, path = _traced_run(tmp_path)
        trace = load_trace(path)
        (run,) = trace.spans
        assert run["span_kind"] == "run"
        assert len(trace.ticks) == result.iterations
        assert trace.footer["spans"] == 1 + sum(1 + len(t["roles"]) for t in trace.ticks)
        run_end = run["start_s"] + run["duration_s"]
        for tick in trace.ticks:
            # 3 roles per iteration, all executed.
            assert [name for name, _, _ in tick["roles"]] == ["Generator", "Monitor", "Recovery"]
            latencies = [latency for _, _, latency in tick["roles"]]
            assert all(latency >= 0.0 for latency in latencies)
            assert run["start_s"] <= tick["start_s"]
            assert tick["start_s"] + tick["duration_s"] <= run_end + 1e-6
            assert sum(latencies) <= tick["duration_s"] + 1e-6

    def test_role_spans_carry_verdicts(self, tmp_path):
        _, _, path = _traced_run(tmp_path)
        trace = load_trace(path)
        verdicts = {
            verdict
            for tick in trace.ticks
            for name, verdict, _ in tick["roles"]
            if name == "Monitor"
        }
        assert verdicts == {"fail", "pass"}

    def test_finalize_detaches(self, tmp_path):
        controller = _build_controller()
        path = tmp_path / "x.trace.jsonl"
        recorder = trace_controller(controller, path)
        result = controller.run()
        recorder.finalize(result.metrics)
        written = path.read_text()
        # Finalize is idempotent and the bus is unsubscribed: running again
        # appends nothing to the closed trace.
        recorder.finalize(result.metrics)
        controller.run()
        assert path.read_text() == written

    def test_telemetry_counts_events(self, tmp_path):
        controller, result, path = _traced_run(tmp_path)
        telemetry = TelemetryRegistry.from_snapshot(load_trace(path).footer["telemetry"])
        assert (
            telemetry.counter("events.role_executed").value == 3 * result.iterations
        )
        assert telemetry.histogram("role_latency_s.Monitor").count == result.iterations
        assert telemetry.counter("violations.safety").value > 0

    def test_a_finalized_run_frees_its_controller(self, tmp_path, monkeypatch):
        # The recorder holds the controller only until finalize: then
        # reference counting alone frees a finished traced run.
        from repro.experiments import campaign

        built = []
        build = campaign.build_controller

        def capture(*args, **kwargs):
            controller = build(*args, **kwargs)
            built.append(weakref.ref(controller))
            return controller

        monkeypatch.setattr(campaign, "build_controller", capture)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run_once(ScenarioType.NOMINAL, 0, trace=tmp_path / "run.trace.jsonl")
            assert built[0]() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_finished_run_is_freed_without_the_cycle_collector(self, tmp_path):
        # An attached and finalized recorder must not tie the controller
        # into a reference cycle: once its caller drops a finished
        # controller, reference counting alone frees it, while the run's
        # history and its trace outlive it.
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.config.max_iterations = 5
        path = tmp_path / "run.trace.jsonl"
        recorder = TraceRecorder(path).attach(controller)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            recorder.finalize(controller.run().metrics)
            state = controller.state
            finished = weakref.ref(controller)
            del controller
            assert finished() is None
        finally:
            if was_enabled:
                gc.enable()
        assert len(state.run_history()) == 5
        assert len(load_trace(path).ticks) == 5

    def test_zero_cost_when_disabled(self, tmp_path):
        controller = _build_controller()
        controller.run()
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_line_tolerated(self, tmp_path):
        _, _, path = _traced_run(tmp_path)
        with path.open("a") as fh:
            fh.write("{truncated\n")
        trace = load_trace(path)
        assert trace.corrupt_lines == 1
        assert verify_trace(trace)[0]

    def test_bytes_that_are_not_utf8_are_replaced(self, tmp_path):
        _, _, path = _traced_run(tmp_path)
        with path.open("ab") as fh:
            fh.write(b'{"kind": "event", "seq": 99, "event": "probe\xff"}\n{trunc\xff\n')
        trace = load_trace(path)
        assert trace.corrupt_lines == 1
        assert trace.events[-1]["event"] == "probe\ufffd"


class TestTraceNames:
    def test_safe_name_sanitized(self):
        name = safe_trace_name("nominal:3:abc/../x")
        assert "/" not in name and ":" not in name
        assert name.endswith(".trace.jsonl")

    def test_distinct_keys_distinct_names(self):
        # Sanitization collapses punctuation; the digest keeps names unique.
        assert safe_trace_name("a:b") != safe_trace_name("a/b")

    def test_unit_trace_path_under_units(self, tmp_path):
        path = unit_trace_path(tmp_path, "nominal:0")
        assert path.parent == tmp_path / "units"


def square(payload):
    return payload * payload


def boom(payload):
    raise ValueError("boom")


class TestEngineTracer:
    """The engine writes no trace: a traced campaign's units record their
    own run traces, and the journal and summary hold the rest."""

    def test_untraced_engine_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = CampaignEngine(
            boom,
            EnginePolicy(jobs=1, max_retries=1, retry_backoff_s=0.0),
            progress=None,
        ).run([WorkUnit(key="bad", payload=0)])
        assert report.summary.retries == 1
        assert list(tmp_path.iterdir()) == []

    def test_trace_keyword_is_refused(self, tmp_path):
        with pytest.raises(TypeError, match="trace"):
            CampaignEngine(square, progress=None, trace=tmp_path / "traces")


class TestDiscovery:
    def test_runs_sorted_by_trace_id(self, tmp_path):
        for name in ("run-b", "run-a"):
            _traced_run(tmp_path / "units", name=name)
        runs = load_run_traces(tmp_path)
        # Sorted by trace id regardless of discovery order.
        assert [t.trace_id for t in runs] == ["run-a", "run-b"]

    def test_service_job_dir_gathers_all_trace_sources(self, tmp_path):
        # A job directory (marked by job.json) holds traces in trace/,
        # search/ and directly inside it; discovery must find them all.
        from repro.obs.trace import discover_traces

        job_dir = tmp_path / "j000001"
        job_dir.mkdir()
        (job_dir / "job.json").write_text("{}")
        _traced_run(job_dir / "trace" / "units", name="unit-a")
        _traced_run(job_dir / "search", name="eval-b")
        _traced_run(job_dir, name="replay")
        found = discover_traces(job_dir)
        names = sorted(p.name for p in found)
        assert names == [
            "eval-b.trace.jsonl",
            "replay.trace.jsonl",
            "unit-a.trace.jsonl",
        ]
        runs = load_run_traces(job_dir)
        assert [t.trace_id for t in runs] == ["eval-b", "replay", "unit-a"]

    def test_older_engine_trace_and_manifest_change_no_reading(self, tmp_path):
        # A campaign dir in the older layout: units/ plus the engine trace
        # (a task span and a task_retry event) and manifest.json beside it.
        old, new = tmp_path / "old", tmp_path / "new"
        for name in ("run-b", "run-a"):
            _traced_run(new / "units", name=name)
        shutil.copytree(new, old)
        engine_telemetry = TelemetryRegistry()
        engine_telemetry.counter("tasks.ok").inc(2)
        engine_telemetry.histogram("task_latency_s").record(0.25)
        engine_records = [
            {"kind": "trace_header", "schema": 2, "trace_kind": "engine",
             "trace_id": "campaign", "meta": {"total": 2, "jobs": 1, "mode": "serial"}},
            {"kind": "event", "seq": 1, "event": "task_retry", "iteration": 1,
             "time": 0.1, "role": "run-a", "payload": {"attempts": 1}},
            {"kind": "span", "span_id": 1, "parent_id": None, "span_kind": "task",
             "name": "run-a", "start_s": 0.0, "duration_s": 0.25, "iteration": None,
             "attrs": {"status": "ok", "attempts": 2, "worker": "main", "cached": False}},
            {"kind": "trace_footer", "schema": 2, "trace_id": "campaign", "events": 1,
             "spans": 1, "metrics_summary": None, "campaign_summary": {"total": 2},
             "telemetry": engine_telemetry.snapshot()},
        ]
        (old / "engine.trace.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in engine_records)
        )
        (old / "manifest.json").write_text(json.dumps({
            "kind": "campaign_manifest", "schema": 2,
            "engine_trace": "engine.trace.jsonl", "total": 2,
            "traces": [{"key": name, "file": f"units/{name}.trace.jsonl"}
                       for name in ("run-b", "run-a")],
        }))
        summary = summarize_path(old)
        assert summary == summarize_path(new)
        assert summary["counts"]["runs"] == 2
        assert "task_latency_s" not in summary["latency"]
        assert render_summary(summary, timing=False) == render_summary(
            summarize_path(new), timing=False
        )
        # The engine trace still loads, as a trace no reader counts.
        assert load_trace(old / "engine.trace.jsonl").trace_kind == "engine"
        assert [t.trace_id for t in load_run_traces(old)] == ["run-a", "run-b"]


# ----------------------------------------------------------------------
# schema v2: one iteration record per tick, read as it is written
# ----------------------------------------------------------------------
@pytest.fixture
def built_events(monkeypatch):
    """``(controller, events)`` for every controller ``run_once`` builds,
    in build order: a list (:func:`collect_events`) subscribed as it is
    built."""
    from repro.experiments import campaign

    built = []
    build = campaign.build_controller

    def capture(*args, **kwargs):
        controller = build(*args, **kwargs)
        built.append((controller, collect_events(controller)))
        return controller

    monkeypatch.setattr(campaign, "build_controller", capture)
    return built


class TestSchemaV2:
    def test_one_record_per_tick(self, tmp_path):
        _, result, path = _traced_run(tmp_path)
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds.count("iteration") == result.iterations
        # Role and iteration spans live inside the tick records.
        assert kinds.count("span") == 1

    @pytest.mark.parametrize("scenario", list(ScenarioType), ids=lambda s: s.value)
    def test_run_once_trace_matches_bus_log(self, scenario, tmp_path, built_events):
        path = tmp_path / "run.trace.jsonl"
        run_once(scenario, 0, trace=path)
        controller, published = built_events[-1]
        trace = load_trace(path)
        assert_trace_holds(trace, published)
        assert_ticks_match_history(path, controller.state.history)
        assert verify_trace(trace) == (True, [])

    @pytest.mark.parametrize(
        "scenario,options,expected",
        [
            (
                ScenarioType.GHOST_ATTACK,
                CampaignOptions(breaker=True, crash_window=(5, 15)),
                {
                    EventKind.FAULT_INJECTED,
                    EventKind.RECOVERY_ACTIVATED,
                    EventKind.ACTION_HELD,
                    EventKind.ROLE_RETRIED,
                    EventKind.ROLE_SKIPPED,
                    EventKind.DEGRADED_MODE_ENTERED,
                    EventKind.DEGRADED_MODE_EXITED,
                },
            ),
            (
                ScenarioType.GHOST_ATTACK,
                CampaignOptions(deadline_ms=0.01, breaker=True, crash_window=(5, 15)),
                {
                    EventKind.DEADLINE_EXCEEDED,
                    EventKind.FAULT_INJECTED,
                    EventKind.RECOVERY_ACTIVATED,
                    EventKind.DEGRADED_MODE_ENTERED,
                },
            ),
        ],
        ids=["breaker", "deadlines"],
    )
    def test_resilient_run_trace_matches_bus_log(
        self, scenario, options, expected, tmp_path, built_events
    ):
        path = tmp_path / "run.trace.jsonl"
        run_once(scenario, 0, options, trace=path)
        controller, published = built_events[-1]
        assert expected <= {event.kind for event in published}
        trace = load_trace(path)
        assert_trace_holds(trace, published)
        assert_ticks_match_history(path, controller.state.history)
        assert verify_trace(trace) == (True, [])

    @pytest.mark.parametrize("crash", ["role", "observe"])
    def test_crashed_run_keeps_every_published_event(self, crash, tmp_path):
        controller, error = crashed_controller(crash)
        published = collect_events(controller)
        path = tmp_path / "crash.trace.jsonl"
        recorder = trace_controller(controller, path, trace_id="crash")
        with pytest.raises(error):
            controller.run()
        recorder.finalize()
        assert controller.tick.iteration == 2  # the raise cut tick 2 short
        trace = load_trace(path)
        assert_trace_holds(trace, published)
        assert_ticks_match_history(path, controller.state.history)
        assert verify_trace(trace) == (True, [])
        assert [tick["iteration"] for tick in trace.ticks] == [0, 1, 2]

    def test_events_that_do_not_fit_a_tick_are_kept(self, tmp_path):
        # Sim time may move while a tick runs: the tick's milestones carry
        # the tick's start time, and the events the controller publishes
        # keep their own.  An event anyone else publishes on the bus, of
        # any kind, is written as a plain event record.
        class SkewedClock(StubEnvironment):
            skew = 0.0

            def observe(self):
                self.skew += 0.01  # sim time moves while the tick runs
                return super().observe()

            @property
            def time(self):
                return self._tick * 0.1 + self.skew

        controller = OrchestrationController(
            [constant_generator("go"), ScriptedRole([RoleResult(verdict=Verdict.PASS)])],
            SkewedClock(steps=2),
        )
        published = collect_events(controller)
        path = tmp_path / "odd.trace.jsonl"
        recorder = trace_controller(controller, path)
        controller.run()
        controller.events.publish(
            Event(EventKind.ITERATION_STARTED, 7, 0.7, payload={"note": "replayed"})
        )
        controller.events.publish(Event(EventKind.STATE_UPDATED, 7, 0.7))
        recorder.finalize()
        trace = load_trace(path)
        assert_trace_holds(trace, published)
        assert verify_trace(trace) == (True, [])
        starts = {r.iteration: r.time for r in controller.state.history}
        assert starts == {0: 0.0, 1: 0.11}
        assert [tuple(tick["time"]) for tick in trace.ticks] == [(0.0, 0.11), (0.11, 0.22)]
        finished = [e.time for e in published if e.kind is EventKind.ITERATION_FINISHED]
        assert finished == [0.11, 0.22]
        assert [(e["event"], e["iteration"]) for e in trace.events[-2:]] == [
            ("iteration_started", 7),
            ("state_updated", 7),
        ]

    def test_an_event_moved_past_its_tick_corrupts_the_tick(self, tmp_path):
        # The seq check: a tick's range must hold exactly its milestones
        # and the event lines written before its record.  Moving one
        # evidence event line past its tick record skips that tick.
        recorded = Path(__file__).parent / "data" / "stub-resilient.trace.jsonl"
        records = [json.loads(line) for line in recorded.read_text().splitlines()]
        kinds = [record.get("event", record["kind"]) for record in records]
        moved = kinds.index("violation_detected")
        records.insert(kinds.index("iteration", moved), records.pop(moved))
        path = tmp_path / recorded.name
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        trace = load_trace(path)
        assert trace.corrupt_lines == 1
        assert len(trace.ticks) == 13
        # The moved event still counts; only its tick is skipped.
        assert trace.events == [record for record in records if record["kind"] == "event"]
        assert recompute_counts(trace)["iterations_completed"] == 13
        assert trace.footer["metrics_summary"]["iterations_completed"] == 14
        ok, mismatches = verify_trace(trace)
        assert not ok and len(mismatches) == 9


V1_FIXTURE = Path(__file__).parent / "data" / "stub-v1.trace.jsonl"


class TestSchemaV1:
    """``data/stub-v1.trace.jsonl`` is ``_traced_run(name="stub-v1")``
    recorded by the schema-v1 writer."""

    def test_v1_trace_loads_and_verifies(self):
        trace = load_trace(V1_FIXTURE)
        assert trace.header["schema"] == 1
        assert trace.corrupt_lines == 0
        assert verify_trace(trace) == (True, [])
        assert recompute_counts(trace)["iterations_completed"] == 3

    def test_v1_and_v2_traces_of_one_run_count_alike(self, tmp_path):
        # The v1 fixture carries each tick's milestones as event records
        # and its role latencies as role spans; the same run traced today
        # carries them in tick records.  Both count the same.
        _, _, path = _traced_run(tmp_path, name="stub-v1")
        old, new = load_trace(V1_FIXTURE), load_trace(path)
        assert new.header["schema"] == TRACE_SCHEMA_VERSION == 2
        assert old.ticks == [] and len(new.ticks) == 3
        assert recompute_counts(new) == recompute_counts(old)
        assert recompute_tallies(new) == recompute_tallies(old)
        latencies = {
            name: histogram.count
            for name, histogram in latency_registry([new]).histograms.items()
        }
        assert latencies == {
            name: histogram.count
            for name, histogram in latency_registry([old]).histograms.items()
        }
        assert latencies == {
            "role_latency_s.Generator": 3,
            "role_latency_s.Monitor": 3,
            "role_latency_s.Recovery": 3,
        }
        assert new.footer["events"] == old.footer["events"]
        assert new.footer["spans"] == old.footer["spans"]
