"""Determinism and resume tests for the engine-backed campaign harness.

The ISSUE-level guarantee: ``run_suite(jobs=N)`` must equal
``run_suite(jobs=1)`` field-for-field (wall-clock aside), and an
interrupted journaled campaign must resume by executing only its missing
runs.
"""

import dataclasses

import pytest

from repro.exec import load_journal
from repro.experiments import DEFAULT_SEEDS, execute_suite, run_once, run_suite
from repro.experiments.campaign import options_digest, unit_key
from repro.experiments.campaign import CampaignOptions
from repro.obs.cli import render_summary, summarize_path
from repro.obs.trace import ENGINE_TRACE_NAME, MANIFEST_NAME
from repro.sim import ScenarioType

SCENARIOS = (ScenarioType.NOMINAL, ScenarioType.CONGESTED)
SEEDS = (0, 1)


def _strip_wall_time(results):
    return {
        scenario: [dataclasses.replace(o, wall_time_s=0.0) for o in outcomes]
        for scenario, outcomes in results.items()
    }


class TestDeterminism:
    def test_run_once_is_reproducible(self):
        a = run_once(ScenarioType.CONFLICTING, 5)
        b = run_once(ScenarioType.CONFLICTING, 5)
        assert dataclasses.replace(a, wall_time_s=0.0) == dataclasses.replace(
            b, wall_time_s=0.0
        )

    def test_parallel_suite_equals_serial_field_for_field(self):
        serial = run_suite(SCENARIOS, SEEDS, jobs=1, progress=None)
        parallel = run_suite(SCENARIOS, SEEDS, jobs=4, progress=None)
        assert _strip_wall_time(serial) == _strip_wall_time(parallel)

    def test_default_seeds_is_the_papers_15(self):
        assert DEFAULT_SEEDS == tuple(range(15))

    @pytest.mark.parametrize(
        "retired",
        ["hosts", "timeout_s", "max_retries", "backend", "spool", "telemetry"],
    )
    def test_retired_keyword_is_refused(self, retired):
        with pytest.raises(TypeError, match=retired):
            execute_suite([ScenarioType.NOMINAL], SEEDS, **{retired: 1})


class TestUnitIdentity:
    def test_unit_key_stable(self):
        assert unit_key(ScenarioType.NOMINAL, 3) == unit_key(ScenarioType.NOMINAL, 3)

    def test_unit_key_distinguishes_options(self):
        with_rec = unit_key(ScenarioType.NOMINAL, 3, CampaignOptions(use_recovery=True))
        without = unit_key(ScenarioType.NOMINAL, 3, CampaignOptions(use_recovery=False))
        assert with_rec != without

    def test_none_options_digest_matches_defaults(self):
        assert options_digest(None) == options_digest(CampaignOptions())


class TestJournalledCampaign:
    def test_journal_covers_every_run(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        results, report = execute_suite(
            SCENARIOS, SEEDS, jobs=1, journal=journal, progress=None
        )
        state = load_journal(journal)
        expected = {
            unit_key(scenario, seed)
            for scenario in SCENARIOS
            for seed in SEEDS
        }
        assert state.completed_keys() == expected
        assert report.summary.executed == len(expected)

    def test_resume_runs_only_missing_tasks(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        full, _ = execute_suite(
            SCENARIOS, SEEDS, jobs=1, journal=journal, progress=None
        )

        # Interrupt: keep the header and the first two task lines only,
        # truncating the third mid-line as a kill -9 would.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n" + lines[3][:20])

        resumed, report = execute_suite(
            SCENARIOS, SEEDS, jobs=1, journal=journal, resume=True, progress=None
        )
        assert report.summary.cached == 2
        assert report.summary.executed == 2
        assert _strip_wall_time(resumed) == _strip_wall_time(full)
        # Journaled (cached) outcomes replay bit-identically, including
        # their original wall-clock.
        cached = [r for r in report.records if r.cached]
        assert len(cached) == 2

    def test_traced_campaign_self_certifies(self, tmp_path):
        trace_dir = tmp_path / "traces"
        results, _ = execute_suite(
            SCENARIOS, SEEDS, jobs=1, trace=trace_dir, progress=None
        )
        assert (trace_dir / ENGINE_TRACE_NAME).exists()
        assert (trace_dir / MANIFEST_NAME).exists()
        outcomes = [o for group in results.values() for o in group]
        # Every outcome records where its trace landed.
        assert all(
            o.trace_file and o.trace_file.startswith(str(trace_dir / "units"))
            for o in outcomes
        )
        summary = summarize_path(trace_dir)
        assert summary["mismatches"] == []
        assert summary["consistent_traces"] == summary["checked_traces"] == len(outcomes)
        # Counts in the rendered summary are recomputed from raw events,
        # yet land exactly on what DependabilityMetrics reported.
        counts = summary["counts"]
        assert counts["runs"] == len(outcomes)
        assert counts["iterations_completed"] == sum(o.iterations for o in outcomes)
        assert counts["recovery_activations"] == sum(
            o.recovery_activations for o in outcomes
        )

    def test_traced_parallel_summary_matches_serial_byte_for_byte(self, tmp_path):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        execute_suite(SCENARIOS, SEEDS, jobs=1, trace=serial_dir, progress=None)
        execute_suite(SCENARIOS, SEEDS, jobs=2, trace=parallel_dir, progress=None)
        serial = render_summary(summarize_path(serial_dir), timing=False)
        parallel = render_summary(summarize_path(parallel_dir), timing=False)
        assert serial == parallel
        # Same per-unit trace files regardless of worker count.
        assert sorted(p.name for p in (serial_dir / "units").iterdir()) == sorted(
            p.name for p in (parallel_dir / "units").iterdir()
        )

    def test_resume_under_parallel_execution(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        full, _ = execute_suite(
            SCENARIOS, SEEDS, jobs=1, journal=journal, progress=None
        )
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")

        resumed, report = execute_suite(
            SCENARIOS, SEEDS, jobs=2, journal=journal, resume=True, progress=None
        )
        assert report.summary.cached == 1
        assert _strip_wall_time(resumed) == _strip_wall_time(full)
