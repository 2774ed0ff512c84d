"""Tests for campaign-outcome export/import."""

import csv

from repro.analysis.export import FIELDS, load_jsonl, to_csv, to_jsonl
from repro.experiments.campaign import RunOutcome
from repro.sim import ScenarioType


def outcome(seed=0, **overrides):
    base = dict(
        scenario="nominal",
        seed=seed,
        monitor_flagged=True,
        safety_flag_count=2,
        collision=False,
        clearance_time=8.5,
        gridlocked=False,
        timed_out=False,
        recovery_activations=1,
        faults_injected=0,
        comfort_violations=3,
        performance_flags=0,
        iterations=90,
        wall_time_s=0.2,
    )
    base.update(overrides)
    return RunOutcome(**base)


class TestExport:
    def test_csv_round_trippable_columns(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = to_csv([outcome(0), outcome(1, clearance_time=None)], path)
        assert rows == 2
        with path.open() as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == FIELDS
            records = list(reader)
        assert records[0]["scenario"] == "nominal"
        assert records[1]["clearance_time"] == ""

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        original = [outcome(0), outcome(1, collision=True, clearance_time=None)]
        assert to_jsonl(original, path) == 2
        restored = load_jsonl(path)
        assert restored == original

    def test_dict_results_flattened(self, tmp_path):
        results = {
            ScenarioType.NOMINAL: [outcome(0)],
            ScenarioType.CONGESTED: [outcome(1, scenario="congested")],
        }
        path = tmp_path / "suite.jsonl"
        assert to_jsonl(results, path) == 2
        scenarios = {o.scenario for o in load_jsonl(path)}
        assert scenarios == {"nominal", "congested"}
