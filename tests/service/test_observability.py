"""Service observability: /v1/metrics, stats schema, what a settled job
directory holds, and telemetry surviving a scheduler restart."""

import threading
import time

import pytest

from repro.exec import CampaignEngine, EnginePolicy, WorkUnit
from repro.obs.metrics import parse_exposition, validate_exposition
from repro.service import (
    JobStore,
    Scheduler,
    ServiceClient,
    register_job_kind,
    unregister_job_kind,
)
from repro.service.jobs import JobSpec, QUEUED, RUNNING, DONE
from repro.service.scheduler import ALL_STATES, STATS_SCHEMA_VERSION

from .conftest import make_gate


@pytest.fixture
def client(api):
    return ServiceClient(api.url, timeout=10.0)


def _series(text, name):
    """``sorted-label-string -> value`` for one family in an exposition."""
    out = {}
    for sample, labels, value in parse_exposition(text):
        if sample == name:
            out[",".join(f"{k}={labels[k]}" for k in sorted(labels))] = value
    return out


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_has_core_series(self, client):
        text = client.metrics()
        assert validate_exposition(text) == []
        names = {name for name, _, _ in parse_exposition(text)}
        assert {
            "repro_jobs_queue_depth",
            "repro_jobs_running",
            "repro_slots_free",
            "repro_slots_busy",
            "repro_slots_total",
            "repro_service_uptime_s",
        } <= names
        states = _series(text, "repro_service_jobs")
        assert set(states) == {f"state={s}" for s in ALL_STATES}

    def test_never_emits_nonfinite_tokens(self, client):
        text = client.metrics()
        assert "Infinity" not in text and "NaN" not in text

    def test_gauges_track_a_running_job(self, client, fake_kinds):
        spec, release, wait_running = make_gate(fake_kinds, "g-metrics")
        record = client.submit("blocker", spec)
        wait_running()
        text = client.metrics()
        assert _series(text, "repro_jobs_running")[""] == 1.0
        assert _series(text, "repro_slots_busy")[""] == 1.0
        assert _series(text, "repro_service_jobs")["state=running"] == 1.0
        release()
        final = client.wait(record["id"], timeout=10.0)
        assert final["state"] == "done"
        text = client.metrics()
        assert _series(text, "repro_jobs_running")[""] == 0.0
        assert _series(text, "repro_service_jobs")["state=done"] >= 1.0

    def test_job_latency_histograms_appear_after_a_job(self, client):
        record = client.submit("ok", {"x": 1})
        assert client.wait(record["id"], timeout=10.0)["state"] == "done"
        text = client.metrics()
        assert validate_exposition(text) == []
        samples = parse_exposition(text)
        for family in ("repro_jobs_wait_s", "repro_jobs_run_s"):
            count = [v for n, _, v in samples if n == f"{family}_count"]
            assert count and count[0] >= 1.0, family
            infs = [
                v for n, labels, v in samples
                if n == f"{family}_bucket" and labels.get("le") == "+Inf"
            ]
            assert infs == count

    def test_route_labels_are_patterns_not_ids(self, client):
        record = client.submit("ok", {"x": 1})
        client.wait(record["id"], timeout=10.0)
        client.job(record["id"])
        routes = _series(client.metrics(), "repro_http_requests_total")
        assert any("route=GET /v1/jobs/{id}" in k for k in routes)
        assert not any(record["id"] in k for k in routes)


class TestStats:
    def test_stats_carry_schema_version_uptime(self, client):
        stats = client.stats()
        assert stats["schema"] == STATS_SCHEMA_VERSION
        from repro import __version__

        assert stats["version"] == __version__
        assert isinstance(stats["uptime_s"], float) and stats["uptime_s"] >= 0


class TestPerJobProgress:
    @pytest.fixture
    def gates(self):
        """Register ``sized``: a job of ``count`` engine units whose last
        unit holds until the job's gate opens, so two jobs of different
        sizes can be caught mid-run together."""
        gates = {}

        def run_sized(spec, ctx):
            gate, last = gates[spec["gate"]], spec["count"] - 1

            def unit(index):
                if index == last:
                    gate.wait(10.0)
                return index

            engine = CampaignEngine(
                unit, EnginePolicy(jobs=1), progress=ctx.progress, cancel=ctx.cancel
            )
            engine.run([WorkUnit(key=f"u{i}", payload=i) for i in range(spec["count"])])
            return {}

        register_job_kind("sized", run_sized)
        yield gates
        for gate in gates.values():
            gate.set()
        unregister_job_kind("sized")

    def _progress(self, client):
        return {job["id"]: job["progress"] for job in client.jobs()}

    def test_concurrent_jobs_keep_their_own_progress(self, client, gates):
        """No service-wide gauge holds one job's progress or stream size:
        those would read whichever job reported last."""
        gates.update(big=threading.Event(), small=threading.Event())
        big = client.submit("sized", {"count": 6, "gate": "big"})["id"]
        small = client.submit("sized", {"count": 2, "gate": "small"})["id"]
        held = {big: {"done": 5, "total": 6}, small: {"done": 1, "total": 2}}
        deadline = time.monotonic() + 10.0
        while self._progress(client) != held:
            assert time.monotonic() < deadline, self._progress(client)
            time.sleep(0.01)

        per_job = {
            "repro_progress_done", "repro_progress_total",
            "repro_store_events_bytes", "repro_store_read_lag_bytes",
        }
        text = client.metrics()
        assert validate_exposition(text) == []
        assert not per_job & {name for name, _, _ in parse_exposition(text)}

        for gate in gates.values():
            gate.set()
        assert client.wait(big, timeout=10.0)["state"] == "done"
        assert client.wait(small, timeout=10.0)["state"] == "done"
        assert self._progress(client) == {
            big: {"done": 6, "total": 6}, small: {"done": 2, "total": 2},
        }
        text = client.metrics()
        assert not per_job & {name for name, _, _ in parse_exposition(text)}
        assert _series(text, "repro_exec_units_finished_total") == {"": 8.0}


class TestSettledJobDir:
    def test_holds_no_metrics_snapshot(self, client, scheduler):
        record = client.submit("ok", {"x": 7})
        assert client.wait(record["id"], timeout=10.0)["state"] == "done"
        # Let the runner thread finish everything it does after settling.
        for thread in threading.enumerate():
            if thread.name == f"job-{record['id']}":
                thread.join(timeout=5.0)
                assert not thread.is_alive()
        job_dir = scheduler.store.job_dir(record["id"])
        assert sorted(path.name for path in job_dir.iterdir()) == [
            "events.jsonl", "job.json", "out.txt", "state.json",
        ]


class TestRestartReconcile:
    def test_recovered_metrics_match_disk_no_phantom_running(
        self, tmp_path, fake_kinds
    ):
        """The restart-survival contract: after recover(), re-exposed
        gauges reconcile with on-disk job states — an orphaned RUNNING
        job shows up as queued again, never as a phantom running job."""
        store = JobStore(tmp_path / "root")
        done = store.create(JobSpec(kind="ok", spec={"x": 1}))
        done.transition(RUNNING)
        done.transition(DONE)
        store.save(done)
        orphan = store.create(JobSpec(kind="ok", spec={"x": 2}))
        orphan.transition(RUNNING)  # server died mid-run
        store.save(orphan)

        sched = Scheduler(store, workers=1)
        recovered = sched.recover()
        assert recovered == [orphan.id]

        registry = sched.collect()
        assert registry.gauges["jobs.running"].value == 0.0
        assert registry.gauges["jobs.state.running"].value == 0.0
        assert registry.gauges["jobs.state.queued"].value == 1.0
        assert registry.gauges["jobs.state.done"].value == 1.0
        assert registry.gauges["jobs.queue_depth"].value == 1.0
        assert registry.counters["service.jobs_recovered"].value == 1.0

        # And the queued orphan actually runs to completion on restart.
        sched.start()
        try:
            deadline_record = None
            for _ in range(200):
                deadline_record = sched.job(orphan.id)
                if deadline_record.state == DONE:
                    break
                time.sleep(0.05)
            assert deadline_record is not None and deadline_record.state == DONE
            after = sched.collect()
            assert after.gauges["jobs.state.queued"].value == 0.0
            assert after.gauges["jobs.state.done"].value == 2.0
            assert after.gauges["jobs.running"].value == 0.0
        finally:
            sched.stop(wait=True, timeout=5.0)

    def test_store_telemetry_rebinds_to_new_scheduler(self, tmp_path, fake_kinds):
        # The store owns the service's one registry: every scheduler over
        # it counts into it, so store timings and job counts accumulate
        # in the registry a restarted scheduler exposes.
        store = JobStore(tmp_path / "root")
        first = Scheduler(store, workers=1)
        second = Scheduler(store, workers=1)
        assert first.telemetry is store.telemetry
        assert second.telemetry is store.telemetry
        first.submit(JobSpec(kind="ok", spec={"x": 1}))
        assert second.collect().counters["service.jobs_submitted"].value == 1
        assert second.collect().counters["store.events_appended"].value == 1


class TestWatchQueuePosition:
    def test_queue_position_printed_for_queued_job(
        self, client, fake_kinds, capsys
    ):
        from repro.service.__main__ import _report_queue_position

        # Fill both worker slots, then queue one more job behind them.
        blockers = []
        for name in ("w1", "w2"):
            spec, release, wait_running = make_gate(fake_kinds, name)
            blockers.append((client.submit("blocker", spec), release))
            wait_running()
        queued = client.submit("ok", {"x": 1})
        assert client.job(queued["id"])["state"] == QUEUED

        # Report from a thread while the job is genuinely queued, then
        # unblock the slots so the reporter sees it leave the queue.
        reporter = threading.Thread(
            target=_report_queue_position,
            args=(client, queued["id"]),
            kwargs={"poll_s": 0.02},
        )
        reporter.start()
        time.sleep(0.2)
        for _, release in blockers:
            release()
        reporter.join(timeout=10.0)
        assert not reporter.is_alive()
        err = capsys.readouterr().err
        assert f"{queued['id']}  queued  position 1/1" in err
        assert client.wait(queued["id"], timeout=10.0)["state"] == "done"
