"""Tests for ExecutionOptions: its validation and the engine run it owns."""

import pytest

from repro.exec import ExecutionOptions, WorkUnit, load_journal


def square(payload):
    return payload * payload


def _units(n):
    return [WorkUnit(key=f"k{i}", payload=i) for i in range(n)]


class TestValidation:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"jobs": 0}, "--jobs must be >= 1"),
            ({"resume": True}, "--resume requires --journal"),
        ],
        ids=["jobs", "resume"],
    )
    def test_invalid_combination_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExecutionOptions(**fields)


class TestRun:
    def test_run_settles_every_unit_on_one_engine(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        report = ExecutionOptions(jobs=2, journal=journal).run(
            square, _units(4), progress=None
        )
        assert report.results() == [0, 1, 4, 9]
        assert (report.summary.mode, report.summary.jobs) in (
            ("process-pool", 2),
            ("serial", 1),  # fork-less platforms
        )
        assert load_journal(journal).completed_keys() == {"k0", "k1", "k2", "k3"}
