"""Tests for the remaining experiment artifact generators."""

import dataclasses

import pytest

from repro.exec import load_journal
from repro.experiments import recovery, runner, table1
from repro.experiments.campaign import CampaignOptions, unit_key
from repro.experiments.recovery import CounterfactualPair
from repro.sim import ScenarioType


class TestTable1:
    def test_renders_all_eight_channels(self):
        text = table1.generate(seed=0)
        for channel in table1.PAPER_TABLE1:
            assert channel in text
        assert "Live rendering" in text

    def test_deterministic(self):
        assert table1.generate(seed=1) == table1.generate(seed=1)

    def test_examples_are_live(self):
        # The rendering column carries actual values, not placeholders.
        text = table1.generate(seed=0)
        assert "m/s" in text


class TestRecoveryCounterfactuals:
    @pytest.fixture(scope="class")
    def pairs(self):
        return recovery.measure(
            scenarios=(ScenarioType.CONFLICTING,), seeds=(2, 3)
        )

    def test_pair_structure(self, pairs):
        assert len(pairs) == 2
        for pair in pairs:
            assert pair.with_recovery.seed == pair.without_recovery.seed
            assert pair.without_recovery.recovery_activations == 0

    def test_prevented_semantics(self):
        from repro.experiments.campaign import RunOutcome

        def outcome(collision, recoveries):
            return RunOutcome(
                scenario="x", seed=0, monitor_flagged=True, safety_flag_count=1,
                collision=collision, clearance_time=None, gridlocked=False,
                timed_out=False, recovery_activations=recoveries, faults_injected=0,
                comfort_violations=0, performance_flags=0, iterations=1, wall_time_s=0.0,
            )

        saved = CounterfactualPair(
            ScenarioType.NOMINAL, 0, outcome(False, 3), outcome(True, 0)
        )
        assert saved.prevented and not saved.failed
        failed = CounterfactualPair(
            ScenarioType.NOMINAL, 0, outcome(True, 3), outcome(True, 0)
        )
        assert failed.failed and not failed.prevented
        idle = CounterfactualPair(
            ScenarioType.NOMINAL, 0, outcome(False, 0), outcome(False, 0)
        )
        assert not idle.prevented and not idle.recovery_engaged

    def test_options_reach_both_arms(self, tmp_path):
        options = CampaignOptions(breaker=True, recovery_strategy="replan")
        journal = tmp_path / "journal.jsonl"
        recovery.measure(
            scenarios=(ScenarioType.NOMINAL,), seeds=(0,), options=options,
            journal=journal,
        )
        assert list(load_journal(journal).tasks) == [
            unit_key(ScenarioType.NOMINAL, 0, dataclasses.replace(options, use_recovery=arm))
            for arm in (True, False)
        ]

    def test_generate_renders(self, pairs):
        text = recovery.generate(
            scenarios=(ScenarioType.CONFLICTING,), pairs=pairs
        )
        assert "Recovery effectiveness" in text
        assert "prevention rate" in text


class TestRunner:
    def test_full_runner_small(self, tmp_path):
        report = runner.run_evaluation(seeds=(0,), out_dir=tmp_path)
        assert "Table II" in report
        assert "Fig. 4" in report
        assert "Gridlock" in report
        assert "Per-run averages" in report
        assert (tmp_path / "evaluation.txt").read_text() == report
