"""End-to-end tests of the built-in job kinds against the real engines.

These run real (small) campaigns/searches, so they carry the ``slow``
marker; the scheduler/API mechanics are covered by the fast fakes in
the sibling modules.
"""

import json

import pytest

from repro.service import DONE, FAILED, JobSpec, JobStore, Scheduler

from .test_scheduler import _wait_state

#: The search tests' known-falsifying configuration (pedestrian family,
#: seed 0 finds counterexamples within a budget of 12).
FALSIFY_CONFIG = {"family": "pedestrian", "mode": "falsify", "seed": 0, "budget": 12}


@pytest.mark.slow
def test_falsify_then_replay_by_job_id(tmp_path):
    store = JobStore(tmp_path / "root")
    scheduler = Scheduler(store, workers=2, max_jobs=2).start()
    try:
        falsify = scheduler.submit(
            JobSpec(kind="falsify", spec={"config": FALSIFY_CONFIG}, jobs=2)
        )
        final = _wait_state(scheduler, falsify.id, DONE, timeout=300.0)
        assert final.result["evaluations"] >= FALSIFY_CONFIG["budget"]
        assert final.result["counterexamples"] >= 1
        assert final.result["best_robustness"] < 0

        job_dir = store.job_dir(falsify.id)
        assert (job_dir / "search" / "corpus.jsonl").exists()
        assert (job_dir / "search" / "summary.json").exists()
        summary = json.loads((job_dir / "search" / "summary.json").read_text())
        assert summary["counterexamples"] == final.result["counterexamples"]

        # Replay the found counterexample through a second job that
        # resolves the corpus via the falsify job's id.
        replay = scheduler.submit(
            JobSpec(kind="replay", spec={"job": falsify.id, "index": 0})
        )
        replay_final = _wait_state(scheduler, replay.id, DONE, timeout=120.0)
        assert replay_final.result["drift"] <= 1e-9
        report = json.loads(
            (store.job_dir(replay.id) / "report.json").read_text()
        )
        assert report["kind"] == "replay_report"
        assert report["robustness"] == replay_final.result["robustness"]
    finally:
        scheduler.stop()


@pytest.mark.slow
def test_campaign_job_with_seed_list(tmp_path):
    store = JobStore(tmp_path / "root")
    scheduler = Scheduler(store, workers=1, max_jobs=1).start()
    try:
        record = scheduler.submit(
            JobSpec(
                kind="campaign",
                spec={"scenarios": ["nominal"], "seeds": [0, 3]},
            )
        )
        final = _wait_state(scheduler, record.id, DONE, timeout=120.0)
        assert final.result["total_runs"] == 2
        job_dir = store.job_dir(record.id)
        report = json.loads((job_dir / "report.json").read_text())
        seeds = [r["seed"] for r in report["scenarios"]["nominal"]["runs"]]
        assert seeds == [0, 3]
        # The job's trace dir holds the runs' traces and nothing else.
        assert [p.name for p in (job_dir / "trace").iterdir()] == ["units"]
        assert len(list((job_dir / "trace" / "units").iterdir())) == 2
        # Progress made it into the persisted record.
        assert final.progress_total == 2
        assert final.progress_done == 2
    finally:
        scheduler.stop()


#: Job specs written before a field was retired, and the error naming it.
RETIRED_SPECS = [
    pytest.param(
        JobSpec(kind="falsify", spec={"config": dict(FALSIFY_CONFIG, block_size=4)}),
        "unknown SearchConfig field(s) ['block_size']",
        id="falsify-block_size",
    ),
    pytest.param(
        JobSpec(kind="falsify", spec={"config": dict(FALSIFY_CONFIG, backend="local")}),
        "unknown SearchConfig field(s) ['backend']",
        id="falsify-backend",
    ),
    pytest.param(
        JobSpec(
            kind="campaign",
            spec={"scenarios": ["nominal"], "seed_count": 1, "profile": True},
        ),
        "unknown campaign spec field(s) ['profile']",
        id="campaign-profile",
    ),
]


@pytest.mark.parametrize("old_spec, message", RETIRED_SPECS)
class TestRetiredSpecFields:
    """Specs carrying a retired field are refused, loudly."""

    def test_submit_refuses_the_field(self, tmp_path, old_spec, message):
        scheduler = Scheduler(JobStore(tmp_path / "root"), workers=1)
        with pytest.raises(ValueError) as refused:
            scheduler.submit(old_spec)
        assert message in str(refused.value)
        assert scheduler.jobs() == []

    def test_stored_job_fails_and_the_queue_moves_on(self, tmp_path, old_spec, message):
        # Queued by an older server, so never validated by this one.
        store = JobStore(tmp_path / "root")
        old = store.create(old_spec)
        behind = store.create(
            JobSpec(kind="campaign", spec={"scenarios": ["nominal"], "seed_count": 1})
        )
        scheduler = Scheduler(store, workers=1, max_jobs=1).start()
        try:
            failed = _wait_state(scheduler, old.id, FAILED)
            done = _wait_state(scheduler, behind.id, DONE, timeout=120.0)
        finally:
            scheduler.stop()
        assert message in failed.error
        assert done.result["total_runs"] == 1
