"""Tests for the scheduler: dispatch, slot budget, cancel, recovery,
and per-job journal isolation."""

import json
import sys
import threading
import time

import pytest

from repro.exec import CampaignEngine, EnginePolicy, WorkUnit, load_journal
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobSpec,
    Scheduler,
    register_job_kind,
    unregister_job_kind,
)

from .conftest import make_gate


def _wait_state(scheduler, job_id, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = scheduler.job(job_id)
        if record.state == state:
            return record
        time.sleep(0.01)
    raise AssertionError(
        f"job {job_id} never reached {state} (is {scheduler.job(job_id).state})"
    )


class TestDispatch:
    def test_job_runs_to_done(self, scheduler, store):
        record = scheduler.submit(JobSpec(kind="ok", spec={"x": 7}))
        final = _wait_state(scheduler, record.id, DONE)
        assert final.result == {"echo": 7}
        assert (store.job_dir(record.id) / "out.txt").read_text() == "done"
        persisted = store.load(record.id)
        assert persisted.state == DONE

    def test_submit_time_validation_rejects_bad_spec(self, scheduler):
        with pytest.raises(ValueError, match="needs 'x'"):
            scheduler.submit(JobSpec(kind="ok", spec={}))
        assert scheduler.jobs() == []

    def test_failed_job_records_error_and_traceback(self, scheduler, store):
        record = scheduler.submit(JobSpec(kind="boom", spec={"message": "pow"}))
        final = _wait_state(scheduler, record.id, FAILED)
        assert "pow" in final.error
        assert "RuntimeError" in store.read_error(record.id)
        events = [json.loads(l) for l in store.read_events(record.id, 0)[0]]
        assert events[-1]["kind"] == "job_failed"

    def test_events_cover_lifecycle(self, scheduler, store):
        record = scheduler.submit(JobSpec(kind="ok", spec={"x": 1}))
        _wait_state(scheduler, record.id, DONE)
        kinds = [
            json.loads(l)["kind"] for l in store.read_events(record.id, 0)[0]
        ]
        assert kinds[0] == "job_queued"
        assert "job_started" in kinds
        assert kinds[-1] == "job_done"

    def test_priority_order_when_saturated(self, scheduler, fake_kinds):
        # Fill both worker slots, then queue two more; the higher
        # priority submission must run first once slots free up.
        blockers = []
        for name in ("g1", "g2"):
            spec, release, wait_running = make_gate(fake_kinds, name)
            record = scheduler.submit(JobSpec(kind="blocker", spec=spec))
            blockers.append((record, release, wait_running))
        for _, _, wait_running in blockers:
            wait_running()
        low = scheduler.submit(JobSpec(kind="ok", spec={"x": 1}, priority=0))
        high = scheduler.submit(JobSpec(kind="ok", spec={"x": 2}, priority=9))
        assert scheduler.queue.items() == [high.id, low.id]
        for _, release, _ in blockers:
            release()
        _wait_state(scheduler, high.id, DONE)
        _wait_state(scheduler, low.id, DONE)


class TestSettleOrdering:
    def test_scrapes_never_count_a_settled_job_as_running(self, scheduler, monkeypatch):
        # The settle path's own metrics snapshot refreshes the gauges too;
        # with it off, each read below is the scraper's own scrape.
        monkeypatch.setattr(scheduler, "_snapshot_metrics", lambda *args, **kwargs: None)
        stop = threading.Event()
        violations = []
        scrapes = [0]

        def scrape():
            while not stop.is_set():
                gauges = scheduler.collect().snapshot()["gauges"]
                scrapes[0] += 1
                live = gauges["jobs.state.queued"] + gauges["jobs.state.running"]
                # One job at a time: once it settles, nothing may still
                # count as running or hold a slot.
                if gauges["jobs.running"] > live or (live == 0 and gauges["slots.busy"] != 0):
                    violations.append(gauges)

        scraper = threading.Thread(target=scrape)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        scraper.start()
        try:
            for kind, spec, state in [("ok", {"x": 1}, DONE), ("boom", {}, FAILED)] * 15:
                record = scheduler.submit(JobSpec(kind=kind, spec=spec))
                _wait_state(scheduler, record.id, state)
        finally:
            stop.set()
            scraper.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not scraper.is_alive()
        assert scrapes[0] > 0
        assert violations == []


class TestSlotBudget:
    def test_wide_job_clamped_to_worker_budget(self, scheduler, fake_kinds):
        spec, release, wait_running = make_gate(fake_kinds, "wide")
        record = scheduler.submit(JobSpec(kind="blocker", spec=spec, jobs=99))
        wait_running()
        stats = scheduler.stats()
        assert stats["free_slots"] == 0  # clamped to workers=2, not 99
        release()
        _wait_state(scheduler, record.id, DONE)

    def test_narrow_jobs_share_slots(self, scheduler, fake_kinds):
        specs = []
        for name in ("n1", "n2"):
            spec, release, wait_running = make_gate(fake_kinds, name)
            scheduler.submit(JobSpec(kind="blocker", spec=spec, jobs=1))
            specs.append((release, wait_running))
        for release, wait_running in specs:
            wait_running()  # both run concurrently on workers=2
        assert len(scheduler.stats()["running"]) == 2
        for release, _ in specs:
            release()

    def test_wide_job_waits_for_full_budget(self, scheduler, fake_kinds):
        spec1, release1, wait_running1 = make_gate(fake_kinds, "hold")
        holder = scheduler.submit(JobSpec(kind="blocker", spec=spec1, jobs=1))
        wait_running1()
        spec2, release2, wait_running2 = make_gate(fake_kinds, "wide2")
        wide = scheduler.submit(JobSpec(kind="blocker", spec=spec2, jobs=2))
        time.sleep(0.1)
        assert scheduler.job(wide.id).state == QUEUED  # 1 slot free, needs 2
        release1()
        wait_running2()
        release2()
        _wait_state(scheduler, holder.id, DONE)
        _wait_state(scheduler, wide.id, DONE)


class TestCancel:
    def test_cancel_queued_job(self, scheduler, fake_kinds):
        blockers = []
        for name in ("b1", "b2"):
            spec, release, wait_running = make_gate(fake_kinds, name)
            scheduler.submit(JobSpec(kind="blocker", spec=spec))
            blockers.append((release, wait_running))
        for _, wait_running in blockers:
            wait_running()
        queued = scheduler.submit(JobSpec(kind="ok", spec={"x": 1}))
        cancelled = scheduler.cancel(queued.id)
        assert cancelled.state == CANCELLED
        for release, _ in blockers:
            release()

    def test_cancel_running_job(self, scheduler, fake_kinds):
        spec, _release, wait_running = make_gate(fake_kinds, "victim")
        record = scheduler.submit(JobSpec(kind="blocker", spec=spec))
        wait_running()
        scheduler.cancel(record.id)
        final = _wait_state(scheduler, record.id, CANCELLED)
        assert final.terminal

    def test_cancel_terminal_job_is_noop(self, scheduler):
        record = scheduler.submit(JobSpec(kind="ok", spec={"x": 1}))
        _wait_state(scheduler, record.id, DONE)
        assert scheduler.cancel(record.id).state == DONE


class TestRecovery:
    def test_orphaned_running_job_requeues_and_completes(self, store, fake_kinds):
        # First scheduler "dies" with the job mid-flight: simulate by
        # writing a running state straight to the store.
        record = store.create(JobSpec(kind="ok", spec={"x": 5}))
        record.transition(RUNNING)
        store.save(record)

        scheduler = Scheduler(store, workers=2).start()
        try:
            final = _wait_state(scheduler, record.id, DONE)
            assert final.recovered == 1
            assert final.result == {"echo": 5}
        finally:
            scheduler.stop()

    def test_queued_jobs_survive_restart(self, store, fake_kinds):
        store.create(JobSpec(kind="ok", spec={"x": 1}))
        scheduler = Scheduler(store, workers=2).start()
        try:
            final = _wait_state(scheduler, "j000001", DONE)
            assert final.result == {"echo": 1}
        finally:
            scheduler.stop()

    def test_terminal_jobs_left_alone(self, store, fake_kinds):
        record = store.create(JobSpec(kind="ok", spec={"x": 1}))
        record.transition(RUNNING)
        record.transition(DONE, result={"echo": 1})
        store.save(record)
        scheduler = Scheduler(store, workers=2)
        assert scheduler.recover() == []
        assert scheduler.job(record.id).state == DONE

    def test_graceful_stop_requeues_interrupted_job(self, store, fake_kinds):
        spec, _release, wait_running = make_gate(fake_kinds, "interrupted")
        scheduler = Scheduler(store, workers=2).start()
        record = scheduler.submit(JobSpec(kind="blocker", spec=spec))
        wait_running()
        scheduler.stop(wait=True, timeout=5.0)
        # Not cancelled — back to queued so a restart resumes it.
        assert store.load(record.id).state == QUEUED


# ----------------------------------------------------------------------
# journal isolation: two engine-backed jobs running concurrently must
# keep fully separate journals/checkpoints in their sibling job dirs.
# ----------------------------------------------------------------------
def _double(payload):
    return payload * 2


def run_engine_job(spec, ctx):
    """A fake kind that runs a real CampaignEngine in the job dir."""
    units = [
        WorkUnit(key=f"{spec['prefix']}-{i}", payload=i)
        for i in range(spec["count"])
    ]
    engine = CampaignEngine(
        _double, EnginePolicy(jobs=1),
        journal=ctx.job_dir / "journal.jsonl", resume=True, progress=None,
        spec_fingerprint=f"engine-job:{spec['prefix']}",
        cancel=ctx.cancel,
        encode=lambda r: r, decode=lambda r: r,
    )
    report = engine.run(units)
    return {"results": report.results()}


class TestJournalIsolation:
    @pytest.fixture(autouse=True)
    def _engine_kind(self):
        register_job_kind("engine-job", run_engine_job)
        yield
        unregister_job_kind("engine-job")

    def test_sibling_jobs_do_not_share_journals(self, store):
        scheduler = Scheduler(store, workers=2, max_jobs=2).start()
        try:
            a = scheduler.submit(
                JobSpec(kind="engine-job", spec={"prefix": "alpha", "count": 40})
            )
            b = scheduler.submit(
                JobSpec(kind="engine-job", spec={"prefix": "beta", "count": 40})
            )
            _wait_state(scheduler, a.id, DONE)
            _wait_state(scheduler, b.id, DONE)
        finally:
            scheduler.stop()

        state_a = load_journal(store.job_dir(a.id) / "journal.jsonl")
        state_b = load_journal(store.job_dir(b.id) / "journal.jsonl")
        assert state_a.completed_keys() == {f"alpha-{i}" for i in range(40)}
        assert state_b.completed_keys() == {f"beta-{i}" for i in range(40)}
        # Distinct spec fingerprints recorded in each header.
        assert state_a.header["spec_fingerprint"] == "engine-job:alpha"
        assert state_b.header["spec_fingerprint"] == "engine-job:beta"
        assert store.job_dir(a.id) != store.job_dir(b.id)

    def test_requeued_engine_job_resumes_not_reruns(self, store):
        # Pre-populate a job whose journal already has some settled units,
        # marked running (orphaned); recovery must resume, not redo.
        record = store.create(
            JobSpec(kind="engine-job", spec={"prefix": "res", "count": 5})
        )
        record.transition(RUNNING)
        store.save(record)
        engine = CampaignEngine(
            _double, EnginePolicy(jobs=1),
            journal=store.job_dir(record.id) / "journal.jsonl",
            progress=None, spec_fingerprint="engine-job:res",
            encode=lambda r: r, decode=lambda r: r,
        )
        engine.run([WorkUnit(key=f"res-{i}", payload=i) for i in range(2)])

        executed = []

        def counting_run(spec, ctx):
            result = run_engine_job(spec, ctx)
            executed.append(spec["prefix"])
            return result

        register_job_kind("engine-job", counting_run)
        scheduler = Scheduler(store, workers=1).start()
        try:
            final = _wait_state(scheduler, record.id, DONE)
        finally:
            scheduler.stop()
        assert final.result == {"results": [0, 2, 4, 6, 8]}
        state = load_journal(store.job_dir(record.id) / "journal.jsonl")
        assert state.completed_keys() == {f"res-{i}" for i in range(5)}


class TestProgressSaves:
    def test_one_run_job_never_rewrites_identical_state(self, store):
        # campaign_finished repeats the done/total of the last
        # task_finished; saving it again would rewrite state.json with
        # the same bytes.  A one-run job saves at running, at each
        # progress change (0/1, 1/1) and at done.
        saved = []
        save = store.save

        def recording_save(record):
            save(record)
            saved.append((store.job_dir(record.id) / "state.json").read_bytes())

        store.save = recording_save
        scheduler = Scheduler(store, workers=1, max_jobs=1).start()
        try:
            record = scheduler.submit(
                JobSpec(kind="campaign", spec={"scenarios": ["nominal"], "seed_count": 1})
            )
            _wait_state(scheduler, record.id, DONE, timeout=60.0)
        finally:
            scheduler.stop()
        final = (store.job_dir(record.id) / "state.json").read_bytes()
        assert len(saved) == 4
        assert all(a != b for a, b in zip(saved, saved[1:]))
        assert final == saved[-1]
        assert json.loads(final)["progress"] == {"done": 1, "total": 1}
