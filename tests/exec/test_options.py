"""Tests for ExecutionOptions: its validation and the engine run it owns."""

import json

import pytest

from repro.exec import ExecutionOptions, WorkUnit

from ..dist.dist_tasks import square


def _units(n):
    return [WorkUnit(key=f"k{i}", payload=i) for i in range(n)]


class TestValidation:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"jobs": 0}, "--jobs must be >= 1"),
            ({"resume": True}, "--resume requires --journal"),
            ({"backend": "carrier-pigeon"}, "unknown executor backend"),
            ({"spool": "spool"}, "--spool requires --backend queue"),
        ],
        ids=["jobs", "resume", "backend", "spool"],
    )
    def test_invalid_combination_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExecutionOptions(**fields)


class TestRun:
    def test_queue_backend_gets_one_host_per_job_and_is_closed(self, tmp_path):
        spool = tmp_path / "spool"
        report = ExecutionOptions(jobs=3, backend="queue", spool=spool).run(
            square, _units(4), progress=None
        )
        assert report.results() == [0, 1, 4, 9]
        assert json.loads((spool / "spool.json").read_text())["hosts"] == 3
        assert (spool / "stop").exists()
