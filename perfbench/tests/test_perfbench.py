"""The benchmark's own tests: result-line shape, output checks, determinism.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs at ``--size tiny`` (a few runs, evaluations or jobs)
in a subprocess, exactly as the full benchmark is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run as perfbench  # noqa: E402
from spans import attributed_seconds, layer_metrics  # noqa: E402
from worker import Service  # noqa: E402

#: Count metrics that must repeat exactly across two traced runs.
EXACT_COUNTS = (
    "core.ticks",
    "exec.units",
    "exec.cached",
    "exec.retries",
    "exec.failed",
    "exec.journal.appends",
    "search.evaluations",
    "obs.trace.records",
    "sim.route_point_at.per_tick",
    "geom.footprint_gap.per_tick.env",
    "geom.footprint_gap.per_tick.roles",
    "geom.footprint_gap.per_tick.sim",
    "roles.predict_min_separation.per_tick",
)


def bench(*args: str, cwd: Path = ROOT) -> "tuple[int, list[str]]":
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--size", "tiny", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )
    return process.returncode, process.stdout.splitlines()


def result_of(lines: "list[str]") -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(perfbench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(perfbench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(perfbench.PER_LAYER)


@pytest.mark.parametrize("workload", perfbench.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload: str) -> None:
    code, lines = bench("--workload", workload, "--trace", "0")
    assert code == 0
    result = result_of(lines)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(
        perfbench.END_TO_END
    )
    assert all(m["value"] > 0 for m in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name, _ in perfbench.END_TO_END:
        assert f"  {name} " in table and "(n=" in table
    if workload == "service":
        assert "job_p50_ms" in table and "job_p90_ms" in table


@pytest.mark.parametrize("workload", perfbench.WORKLOADS)
def test_traced_counts_repeat_exactly(workload: str) -> None:
    runs = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--trace", "1")
        assert code == 0
        result = result_of(lines)
        assert result["correct"] is True
        assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(
            perfbench.PER_LAYER
        )
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
    first, second = runs
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["core.ticks"] > 0 and first["exec.units"] > 0
    if workload == "falsify":
        assert first["search.evaluations"] > 0
    if workload == "service":
        assert first["obs.trace.records"] > 0 and first["exec.journal.appends"] > 0


@pytest.mark.parametrize(
    "workload, tamper, failed, attempted",
    [
        ("paper", ("paper", "rows", "nominal:0"), 1, 4),
        ("service", ("paper", "rows", "pedestrian_crossing:1"), 1, 4),
        # A search's artifacts are checked as a whole: all its evaluations fail.
        ("falsify", ("falsify", "tiny", "crossing", "digest"), 2, 2),
    ],
)
def test_tampered_digest_fails_the_operation_not_the_run(
    workload: str, tamper: tuple, failed: int, attempted: int, tmp_path: Path
) -> None:
    expected = json.loads((BENCH / "expected.json").read_text())
    node = expected
    for key in tamper[:-1]:
        node = node[key]
    node[tamper[-1]] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    code, lines = bench("--workload", workload, "--trace", "0", "--expected", str(tampered))
    assert code == 0
    result = result_of(lines)
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (failed, attempted)


def test_without_the_program_source_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, lines = bench("--workload", "paper", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_install_wraps_each_lookup_site_once_and_uninstall_restores() -> None:
    # A fresh interpreter where repro.search is first imported by install().
    script = """
import sys
sys.path[:0] = ["src", "perfbench"]
import repro.experiments.campaign as campaign
from spans import Tracer
original = campaign.build_controller
tracer = Tracer().install()
import repro.search.objective as objective
for wrapped in (campaign.build_controller, objective.build_controller):
    assert wrapped.__wrapped__ is original, "wrapped twice"
tracer.uninstall()
assert campaign.build_controller is original and objective.build_controller is original
"""
    process = subprocess.run([sys.executable, "-c", script], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=120)
    assert process.returncode == 0, process.stderr


def test_self_time_subtracts_child_spans() -> None:
    dump = {
        "spans": [
            ["core.run", 0.0, 10.0, -1, "a"],
            ["env.observe", 1.0, 3.0, 0, "a"],
            ["roles.Generator", 3.0, 7.0, 0, "a"],
            ["llm.plan", 4.0, 6.0, 2, "a"],
            ["env.advance", 7.0, 8.0, 0, "a"],
        ],
        "counts": {"sim.route_point_at": 10},
        "engine": {},
    }
    metrics = layer_metrics(dump)
    assert metrics["core.self_s"] == pytest.approx(3.0)
    assert metrics["roles.Generator.busy_s"] == pytest.approx(2.0)
    assert metrics["llm.plan.busy_s"] == pytest.approx(2.0)
    assert metrics["core.ticks"] == 1
    assert metrics["core.tick_p50_us"] == pytest.approx(7.0e6)
    assert metrics["sim.route_point_at.per_tick"] == 10


def test_work_outside_layer_spans_lowers_the_attributed_time() -> None:
    def dump(run_once_body: float) -> dict:
        # run_once does ``run_once_body`` seconds of work itself (an
        # unwrapped function) before the wrapped core loop starts.
        start = 1.0 + run_once_body
        return {
            "spans": [
                ["experiments.execute_suite", 0.0, start + 9.0, -1, None],
                ["experiments.run_once", 0.5, start + 8.5, 0, "nominal:0"],
                ["core.run", start, start + 8.0, 1, "nominal:0"],
                ["env.observe", start + 1.0, start + 3.0, 2, "nominal:0"],
            ],
            "counts": {},
            "engine": {},
        }

    def attributed_frac(traced: dict) -> float:
        _, start, end, *_ = traced["spans"][0]
        return attributed_seconds(traced) / (end - start)

    assert attributed_seconds(dump(0.0)) == attributed_seconds(dump(2.0)) == pytest.approx(8.0)
    assert attributed_frac(dump(0.0)) == pytest.approx(8.0 / 10.0)
    assert attributed_frac(dump(2.0)) == pytest.approx(8.0 / 12.0)
    # The service's figure counts only spans inside a job.
    ungrouped = dump(0.0)
    ungrouped["spans"][3][4] = None
    assert attributed_seconds(ungrouped, grouped_only=True) == pytest.approx(6.0)


def test_cold_starts_are_spread_around_the_passes() -> None:
    assert perfbench.schedule(1, 1) == [True]
    assert perfbench.schedule(2, 1) == [True, True]
    assert perfbench.schedule(1, 7) == [False] * 3 + [True] + [False] * 3
    assert perfbench.schedule(2, 7) == [False, True, False, False, True, False, False]


def test_every_seed_runs_the_same_service_jobs(tmp_path: Path) -> None:
    lists = [Service(seed, "full", tmp_path, {}).job_list() for seed in (0, 1, 7)]
    assert len(lists[0]) == 100 and lists[1] != lists[0]
    assert sorted(lists[0]) == sorted(lists[1]) == sorted(lists[2])


def test_reference_seconds_weighs_each_moment_by_the_cpu_speed() -> None:
    ref = probe.REFERENCE_S
    # Sample k stands for the moments from 0.02 k to 0.02 (k + 1).
    steady = [((k + 0.5) * 0.02, ref) for k in range(100)]
    assert probe.reference_seconds(steady, 0.3, 1.3) == pytest.approx(1.0)
    # Half speed for the first second, full speed after it.
    mixed = [((k + 0.5) * 0.02, 2 * ref if k < 50 else ref) for k in range(100)]
    assert probe.reference_seconds(mixed, 0.0, 2.0) == pytest.approx(1.5)
    assert probe.speed(mixed, 0.0, 1.0) == pytest.approx(0.5)
    # The first and last samples stand for the time outside the probe's run.
    assert probe.reference_seconds(steady, -1.0, 0.0) == pytest.approx(1.0)
    # One stray sample does not move the figure: the running median drops it.
    spiked = list(steady)
    spiked[40] = (spiked[40][0], 10 * ref)
    assert probe.reference_seconds(spiked, 0.0, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        probe.reference_seconds([], 0.0, 1.0)
