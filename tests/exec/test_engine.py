"""Tests for the campaign execution engine: determinism, fault tolerance,
timeout enforcement, checkpoint/resume and telemetry."""

import json
import os
import time

import pytest

from repro.exec import (
    CampaignEngine,
    CampaignExecutionError,
    EnginePolicy,
    WorkUnit,
    load_journal,
)
from repro.exec.engine import _fork_available
from repro.exec.progress import (
    CAMPAIGN_FINISHED,
    CAMPAIGN_STARTED,
    TASK_FINISHED,
    TASK_RETRY,
    StderrReporter,
)


# ----------------------------------------------------------------------
# module-level (picklable) task functions
# ----------------------------------------------------------------------
def square(payload):
    return payload * payload


def always_fail(payload):
    raise ValueError(f"bad unit {payload}")


def fail_or_square(payload):
    if payload == "poison":
        raise ValueError("bad unit poison")
    return payload * payload


def flaky(payload):
    """Fail until a file-backed counter reaches the configured threshold."""
    counter_path, fail_times = payload
    count = int(open(counter_path).read()) if os.path.exists(counter_path) else 0
    if count < fail_times:
        with open(counter_path, "w") as fh:
            fh.write(str(count + 1))
        raise RuntimeError(f"flaky failure #{count + 1}")
    return "recovered"


def hang(payload):
    time.sleep(payload)
    return "woke"


def die_once(payload):
    """Kill the worker process on first execution, succeed on retry."""
    sentinel, value = payload
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(13)  # simulate a segfaulting worker
    return value


def die_always(payload):
    os._exit(13)


def count_and_square(payload):
    """Track executions through a sentinel directory (survives fork)."""
    sentinel_dir, value = payload
    open(os.path.join(sentinel_dir, f"ran-{value}"), "w").close()
    return value * value


def _units(n):
    return [WorkUnit(key=f"k{i}", payload=i) for i in range(n)]


def policy(**kw):
    kw.setdefault("retry_backoff_s", 0.01)
    return EnginePolicy(**kw)


class TestSerialExecution:
    def test_results_in_unit_order(self):
        report = CampaignEngine(square, policy(), progress=None).run(_units(10))
        assert [r.result for r in report.records] == [i * i for i in range(10)]
        assert all(r.ok and r.attempts == 1 for r in report.records)
        assert report.summary.executed == 10
        assert report.summary.mode == "serial"

    def test_deterministic_across_runs(self):
        engine = CampaignEngine(square, policy(), progress=None)
        first = engine.run(_units(8))
        second = engine.run(_units(8))
        assert first.results() == second.results()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            EnginePolicy(jobs=0)
        with pytest.raises(ValueError):
            EnginePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            EnginePolicy(timeout_s=0.0)


class TestParallelMatchesSerial:
    def test_pool_equals_serial_field_for_field(self):
        units = _units(16)
        serial = CampaignEngine(square, policy(jobs=1), progress=None).run(units)
        parallel = CampaignEngine(square, policy(jobs=4), progress=None).run(units)
        assert serial.results() == parallel.results()
        assert [r.key for r in serial.records] == [r.key for r in parallel.records]
        assert parallel.summary.mode in ("process-pool", "serial")  # fork-less CI

    def test_pool_uses_multiple_workers_when_available(self):
        report = CampaignEngine(square, policy(jobs=2), progress=None).run(_units(12))
        if report.summary.mode == "process-pool":
            assert report.summary.jobs == 2
            assert all(r.worker and r.worker.startswith("pid") for r in report.records)


class TestFaultTolerance:
    def test_task_error_recorded_not_raised(self):
        units = [WorkUnit(key="good", payload=3), WorkUnit(key="bad", payload="poison")]
        report = CampaignEngine(
            fail_or_square, policy(max_retries=1), progress=None
        ).run(units)
        by_key = report.record_map()
        assert by_key["good"].ok and by_key["good"].result == 9
        bad = by_key["bad"]
        assert not bad.ok
        assert bad.error.error_type == "ValueError"
        assert "poison" in bad.error.message
        assert bad.attempts == 2  # 1 try + 1 retry
        assert report.summary.errors == 1
        assert report.summary.retries == 1

    def test_raise_on_error_surfaces_failures(self):
        report = CampaignEngine(
            always_fail, policy(max_retries=0), progress=None
        ).run(_units(2))
        with pytest.raises(CampaignExecutionError, match="2 task"):
            report.raise_on_error()

    def test_retry_then_recover(self, tmp_path):
        counter = tmp_path / "count"
        unit = WorkUnit(key="flaky", payload=(str(counter), 2))
        report = CampaignEngine(
            flaky, policy(max_retries=3), progress=None
        ).run([unit])
        record = report.records[0]
        assert record.ok and record.result == "recovered"
        assert record.attempts == 3
        assert report.summary.retries == 2

    def test_timeout_becomes_task_error(self):
        units = [WorkUnit(key="fast", payload=0.0), WorkUnit(key="slow", payload=30.0)]
        report = CampaignEngine(
            hang, policy(timeout_s=0.2, max_retries=0), progress=None
        ).run(units)
        by_key = report.record_map()
        assert by_key["fast"].ok
        slow = by_key["slow"]
        assert not slow.ok
        assert slow.error.error_type == "TaskTimeout"

    def test_timeout_in_pool_mode(self):
        units = [WorkUnit(key="fast", payload=0.0), WorkUnit(key="slow", payload=30.0)]
        report = CampaignEngine(
            hang, policy(jobs=2, timeout_s=0.2, max_retries=0), progress=None
        ).run(units)
        by_key = report.record_map()
        assert by_key["fast"].ok
        assert not by_key["slow"].ok
        assert by_key["slow"].error.error_type == "TaskTimeout"

    @pytest.mark.skipif(not _fork_available(), reason="needs forked worker pool")
    def test_dead_worker_pool_rebuilds_and_retries(self, tmp_path):
        sentinel = tmp_path / "died-once"
        benign = tmp_path / "already-died"
        benign.touch()  # pre-marked: these units never kill their worker
        units = [WorkUnit(key="die", payload=(str(sentinel), 42))] + [
            WorkUnit(key=f"ok{i}", payload=(str(benign), i)) for i in range(3)
        ]
        report = CampaignEngine(
            die_once, policy(jobs=2, max_retries=4), progress=None
        ).run(units)
        by_key = report.record_map()
        assert by_key["die"].ok and by_key["die"].result == 42
        for i in range(3):
            assert by_key[f"ok{i}"].ok and by_key[f"ok{i}"].result == i
        assert report.summary.mode == "process-pool"
        assert report.summary.retries >= 1

    @pytest.mark.skipif(not _fork_available(), reason="needs forked worker pool")
    def test_pool_broken_mid_submission_fails_over(self, monkeypatch):
        # A worker can die while later units are still being handed out;
        # the submit that finds the pool broken must not abort the run.
        from concurrent.futures.process import BrokenProcessPool

        from repro.exec import engine

        submits = []

        class BreaksOnSecondSubmit(engine.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died mid-submission")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        report = CampaignEngine(square, policy(jobs=2), progress=None).run(_units(4))
        assert report.results() == [i * i for i in range(4)]
        assert report.summary.errors == 0
        assert report.summary.retries >= 1

    @pytest.mark.skipif(not _fork_available(), reason="needs forked worker pool")
    def test_permanently_dying_worker_becomes_task_error(self):
        report = CampaignEngine(
            die_always, policy(jobs=2, max_retries=1), progress=None
        ).run([WorkUnit(key="die", payload=None)])
        record = report.records[0]
        assert not record.ok
        assert record.attempts == 2
        assert record.error.error_type == "BrokenProcessPool"


class TestCheckpointResume:
    def test_journal_written_and_resume_skips_done(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        sentinels = tmp_path / "first"
        sentinels.mkdir()
        units = [
            WorkUnit(key=f"k{i}", payload=(str(sentinels), i)) for i in range(6)
        ]
        first = CampaignEngine(
            count_and_square, policy(), journal=journal, progress=None
        ).run(units)
        assert first.summary.executed == 6
        assert load_journal(journal).completed_keys() == {u.key for u in units}

        # Simulate a mid-campaign kill: drop the last 3 task lines and
        # truncate what remains mid-line.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n" + lines[4][:25])

        sentinels2 = tmp_path / "second"
        sentinels2.mkdir()
        resumed_units = [
            WorkUnit(key=f"k{i}", payload=(str(sentinels2), i)) for i in range(6)
        ]
        second = CampaignEngine(
            count_and_square, policy(), journal=journal, resume=True, progress=None
        ).run(resumed_units)

        # Only the 3 missing tasks re-ran; the rest replayed from journal.
        assert sorted(os.listdir(sentinels2)) == ["ran-3", "ran-4", "ran-5"]
        assert second.summary.cached == 3
        assert second.summary.executed == 3
        assert [r.result for r in second.records] == [i * i for i in range(6)]
        cached_keys = {r.key for r in second.records if r.cached}
        assert cached_keys == {"k0", "k1", "k2"}
        # The journal is now complete again.
        assert load_journal(journal).completed_keys() == {u.key for u in units}

    def test_resume_with_complete_journal_runs_nothing(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        sentinels = tmp_path / "s1"
        sentinels.mkdir()
        units = [WorkUnit(key=f"k{i}", payload=(str(sentinels), i)) for i in range(4)]
        CampaignEngine(
            count_and_square, policy(), journal=journal, progress=None
        ).run(units)

        sentinels2 = tmp_path / "s2"
        sentinels2.mkdir()
        units2 = [WorkUnit(key=f"k{i}", payload=(str(sentinels2), i)) for i in range(4)]
        report = CampaignEngine(
            count_and_square, policy(), journal=journal, resume=True, progress=None
        ).run(units2)
        assert os.listdir(sentinels2) == []
        assert report.summary.cached == 4
        assert report.summary.executed == 0

    def test_fresh_run_overwrites_stale_journal(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        journal.write_text(
            json.dumps({"kind": "task", "key": "k0", "status": "ok", "result": 999})
            + "\n"
        )
        report = CampaignEngine(
            square, policy(), journal=journal, progress=None
        ).run(_units(2))
        assert report.results() == [0, 1]
        state = load_journal(journal)
        assert state.tasks["k0"]["result"] == 0  # not the stale 999

    def test_errors_are_journaled_and_retried_on_resume(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        CampaignEngine(
            always_fail, policy(max_retries=0), journal=journal, progress=None
        ).run(_units(2))
        state = load_journal(journal)
        assert state.completed_keys() == set()
        assert all(rec["status"] == "error" for rec in state.tasks.values())

        # Resume re-runs failed keys (with a now-working task function).
        report = CampaignEngine(
            square, policy(), journal=journal, resume=True, progress=None
        ).run(_units(2))
        assert report.summary.executed == 2
        assert report.results() == [0, 1]

    def test_resume_works_in_pool_mode(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        units = _units(8)
        CampaignEngine(square, policy(), journal=journal, progress=None).run(units[:5])
        report = CampaignEngine(
            square, policy(jobs=2), journal=journal, resume=True, progress=None
        ).run(units)
        assert report.summary.cached == 5
        assert report.results() == [i * i for i in range(8)]


class TestProgressAndSummary:
    def test_event_stream(self):
        events = []
        CampaignEngine(square, policy(), progress=events.append).run(_units(3))
        kinds = [e.kind for e in events]
        assert kinds[0] == CAMPAIGN_STARTED
        assert kinds[-1] == CAMPAIGN_FINISHED
        finished = [e for e in events if e.kind == TASK_FINISHED]
        assert len(finished) == 3
        assert finished[-1].done == 3 and finished[-1].total == 3

    def test_retry_events_emitted(self, tmp_path):
        counter = tmp_path / "count"
        events = []
        CampaignEngine(flaky, policy(max_retries=2), progress=events.append).run(
            [WorkUnit(key="f", payload=(str(counter), 1))]
        )
        assert [e.kind for e in events if e.kind == TASK_RETRY] == [TASK_RETRY]

    def test_summary_telemetry(self):
        report = CampaignEngine(square, policy(), progress=None).run(_units(5))
        summary = report.summary
        assert summary.total == 5
        assert summary.succeeded == 5
        assert summary.wall_time_s > 0
        assert summary.per_worker_tasks == {"main": 5}
        assert 0.0 <= summary.utilization <= 1.0
        text = summary.render()
        assert "5 tasks" in text and "jobs=1" in text

    def test_stderr_reporter_renders(self):
        import io

        stream = io.StringIO()
        reporter = StderrReporter(stream=stream, min_interval_s=0.0)
        CampaignEngine(square, policy(), progress=reporter).run(_units(4))
        out = stream.getvalue()
        assert "4/4" in out and "runs/s" in out

    def test_non_tty_reporter_emits_plain_lines(self):
        import io

        stream = io.StringIO()  # no isatty -> non-TTY path
        reporter = StderrReporter(stream=stream, non_tty_interval_s=0.0)
        assert not reporter.is_tty
        CampaignEngine(square, policy(), progress=reporter).run(_units(3))
        out = stream.getvalue()
        # Whole newline-terminated lines, never carriage-return rewrites.
        assert "\r" not in out
        assert out.endswith("\n")
        assert "[exec] finished 3/3 runs" in out

    def test_non_tty_reporter_rate_limited(self):
        import io

        stream = io.StringIO()
        reporter = StderrReporter(stream=stream, non_tty_interval_s=3600.0)
        CampaignEngine(square, policy(), progress=reporter).run(_units(5))
        lines = [l for l in stream.getvalue().splitlines() if l]
        # Interval far above the campaign duration: intermediate tasks are
        # suppressed; the final task (done == total bypasses the limit)
        # and the summary always land.
        for done in (2, 3, 4):
            assert not any(f"{done}/5 runs" in l and "eta" in l for l in lines)
        assert any("5/5 runs" in l and "eta" in l for l in lines)
        assert lines[-1].startswith("[exec] finished 5/5 runs")

    def test_tty_reporter_uses_carriage_returns(self):
        import io

        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        reporter = StderrReporter(stream=stream, min_interval_s=0.0)
        assert reporter.is_tty
        CampaignEngine(square, policy(), progress=reporter).run(_units(3))
        assert "\r" in stream.getvalue()
