"""The repository benchmark: ``paper``, ``falsify`` and ``service`` workloads.

One workload, as ``BENCHMARK.json`` runs it (the last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Every workload in turn, with a table of every metric, its unit and its
sample count::

    python3 perfbench/run.py

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` adds a separate traced pass and reports the per-layer
metrics (see ``perfbench/README.md``).  A run pins itself and every
process it starts to one CPU, where ``probe.py`` samples the CPU's speed
throughout; the end-to-end times are the measured intervals at the
reference speed (see ``probe.py``).  Each run appends its full record,
including the plain wall-clock times and the host calibration taken
before and after it, to ``perfbench/_work/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from probe import reference_seconds, speed
from spans import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("paper", "falsify", "service")
#: Nominal length of one measured pass on the reference host (2 vCPU;
#: a pass takes 0.7x-1.2x this as the host's speed swings).  ``--seconds S``
#: buys ``max(1, S // PASS_SECONDS)`` passes, so the two commits of a
#: comparison do the same work however fast the host is that day.
PASS_SECONDS = {"paper": 30, "falsify": 20, "service": 30}
#: Cold starts per full-size run; ``setup_s`` is their median.
SETUPS = 7
#: A run's deadline: this long per cold start, plus this many times the
#: nominal length of each pass (the traced one included).  Past it, the
#: run's worker processes are stopped and the run fails.
COLD_START_ALLOWANCE_S = 10.0
PASS_ALLOWANCE = 2.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("experiments.build_controller.busy_s", "s"),
    ("exec.engine.self_s", "s"),
    ("exec.units", "count"),
    ("exec.cached", "count"),
    ("exec.retries", "count"),
    ("exec.failed", "count"),
    ("exec.journal.appends", "count"),
    ("core.ticks", "count"),
    ("core.self_s", "s"),
    ("core.tick_p50_us", "us"),
    ("core.tick_p99_us", "us"),
    ("env.observe.busy_s", "s"),
    ("env.apply_action.busy_s", "s"),
    ("env.advance.busy_s", "s"),
    ("roles.Generator.busy_s", "s"),
    ("roles.SafetyMonitor.busy_s", "s"),
    ("roles.SecurityAssessor.busy_s", "s"),
    ("roles.FaultInjector.busy_s", "s"),
    ("roles.PerformanceOracle.busy_s", "s"),
    ("roles.RecoveryPlanner.busy_s", "s"),
    ("llm.plan.busy_s", "s"),
    ("sim.route_point_at.per_tick", "1/tick"),
    ("geom.footprint_gap.per_tick.env", "1/tick"),
    ("geom.footprint_gap.per_tick.roles", "1/tick"),
    ("geom.footprint_gap.per_tick.sim", "1/tick"),
    ("roles.predict_min_separation.per_tick", "1/tick"),
    ("stl.safety_robustness.busy_s", "s"),
    ("obs.trace.records", "count"),
    ("obs.trace.bytes", "bytes"),
    ("search.evaluations", "count"),
    ("search.falsified_frac", "frac"),
    ("service.polls_per_job", "1/job"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.attributed_frac", "frac"),
    ("host.calib_ms", "ms"),
)


def calibrate(samples: int = 5) -> List[float]:
    """Milliseconds per run of a fixed pure-Python loop (host speed probe)."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1000.0)
    return times


class WorkerError(RuntimeError):
    pass


class Worker:
    """One ``worker.py`` process, stopped (and waited for) on exit."""

    def __init__(self, argv: List[str], env: Dict[str, str], deadline: float) -> None:
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv,
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        )
        self.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), self.stop)
        self.watchdog.daemon = True
        self.watchdog.start()

    def ready(self) -> Tuple[float, Dict[str, Any]]:
        """When (``time.monotonic``) the worker was ready, and its READY payload."""
        for line in self.process.stdout:
            if line.startswith("READY "):
                return time.monotonic(), json.loads(line[6:])
        raise WorkerError(f"worker exited with code {self.process.wait()} before it was ready")

    def finish(self) -> Optional[Dict[str, Any]]:
        """Wait for a clean exit; return the RESULT payload, if one was printed."""
        result = None
        for line in self.process.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = self.process.wait()
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
        return result

    def stop(self) -> None:
        """SIGTERM (the worker then stops its server), then SIGKILL."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.watchdog.cancel()
        self.stop()
        self.process.stdout.close()


class Probe:
    """The ``probe.py`` process sampling the CPU's speed during a run."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--out", str(out)],
            stdout=subprocess.PIPE, text=True,
        )
        if self.process.stdout.readline().strip() != "READY":
            self.close()
            raise WorkerError("the speed probe did not start")

    def samples(self) -> List[Tuple[float, float]]:
        """Stop the probe and return its ``(time.monotonic, CPU seconds)`` samples."""
        self.close()
        return [tuple(sample) for sample in json.loads(self.out.read_text())]

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def schedule(passes: int, setups: int) -> List[bool]:
    """The run's worker processes in order: True runs a measured pass.

    Every worker is a cold start.  The set-up-only ones are spread evenly
    over the gaps before, between and after the pass workers, so the
    median of all cold starts samples the host across the whole run, not
    one moment of it.
    """
    extra = max(0, setups - passes)
    gaps = passes + 1
    order: List[bool] = []
    for gap in range(gaps):
        order += [False] * (extra * (gap + 1) // gaps - extra * gap // gaps)
        if gap < passes:
            order.append(True)
    return order


def measure(
    workload: str, seed: int, seconds: int, trace: int, size: str,
    expected: Optional[Path],
) -> Dict[str, Any]:
    """One benchmark run: cold starts, measured passes, checks, a record."""
    # Every run keeps its output in a directory of its own, and nothing
    # here deletes it: deleting an earlier run's output slowed the disk for
    # the runs after it (see README "Noise").  Remove ``_work`` by hand.
    work = WORK / workload / f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    # A traced run measures one untraced pass, then the traced pass.
    passes = 1 if trace else max(1, seconds // PASS_SECONDS[workload])
    setups = SETUPS if size == "full" and not trace else 1
    order = schedule(passes, setups)
    base = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(trace)]
    if expected is not None:
        base += ["--expected", str(expected)]

    calib_before = calibrate()
    deadline = time.monotonic() + (
        COLD_START_ALLOWANCE_S * len(order)
        + PASS_ALLOWANCE * PASS_SECONDS[workload] * (passes + trace)
    )
    cold_starts: List[Tuple[float, float]] = []
    problems: List[str] = []
    results: List[Dict[str, Any]] = []
    # Pin this process, and so everything it starts, to one CPU.
    affinity = os.sched_getaffinity(0)
    cpu = max(affinity)
    os.sched_setaffinity(0, {cpu})
    try:
        with Probe(work / "probe.json") as probe:
            for index, measured in enumerate(order):
                argv = base + ["--work", str(work / f"w{index}")]
                if not measured:
                    argv.append("--setup-only")
                with Worker(argv, env, deadline) as worker:
                    ready_at, ready = worker.ready()
                    outcome = worker.finish()
                cold_starts.append((worker.started, ready_at))
                problems.extend(ready["problems"])
                if measured:
                    if outcome is None:
                        raise WorkerError("worker printed no result")
                    results.append(outcome)
            samples = probe.samples()
    finally:
        os.sched_setaffinity(0, affinity)
    calib_after = calibrate()

    def at_reference_speed(start: float, end: float) -> float:
        return reference_seconds(samples, start, end)

    done = [result["pass"] for result in results]
    for outcome in done:
        problems += outcome["problems"]
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)
    setup_times = [at_reference_speed(*interval) for interval in cold_starts]
    wall = [at_reference_speed(p["started_at"], p["ended_at"]) for p in done]
    ticks = sum(p["ticks"] for p in done)
    end_to_end = {
        "setup_s": (statistics.median(setup_times), len(setup_times), "cold starts"),
        "wall_s": (statistics.median(wall), len(wall), "passes"),
        "ticks_per_s": (ticks / sum(wall), ticks, "ticks"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), len(results), "processes"),
    }
    clock_setup = [end - start for start, end in cold_starts]
    clock_wall = [p["wall_s"] for p in done]
    detail: Dict[str, Tuple[float, int, str]] = {
        "clock.setup_s": (statistics.median(clock_setup), len(clock_setup), "cold starts"),
        "clock.wall_s": (statistics.median(clock_wall), len(clock_wall), "passes"),
        "host.speed": (speed(samples, cold_starts[0][0], cold_starts[-1][1]),
                       len(samples), "probe samples"),
    }
    jobs = [job for p in done for job in p["extra"].get("jobs", [])]
    if jobs:
        latency = [j["latency_s"] * 1000.0 for j in jobs]
        detail["job_p50_ms"] = (statistics.median(latency), len(jobs), "jobs")
        detail["job_p90_ms"] = (percentile(latency, 0.9), len(jobs), "jobs")
        for part in ("submit", "queue_wait", "run", "notify_lag"):
            values = [j[f"{part}_s"] * 1000.0 for j in jobs]
            detail[f"service.{part}_p50_ms"] = (statistics.median(values), len(jobs), "jobs")
        detail["service.polls_per_job"] = (
            sum(j["polls"] for j in jobs) / len(jobs), len(jobs), "jobs")
        for part in ("append", "save"):
            detail[f"service.store.{part}_busy_s"] = (
                sum(p["extra"][f"store_{part}_busy_s"] for p in done), len(done), "passes")

    calib = calib_before + calib_after
    layers: Dict[str, float] = {}
    if trace:
        layers = dict(results[-1]["layers"]["metrics"])
        traced = results[-1]["layers"]["traced"]
        layers["bench.trace_overhead_frac"] = (
            at_reference_speed(traced["started_at"], traced["ended_at"]) / wall[-1] - 1.0
        )
        problems += traced["problems"]
        layers["search.evaluations"] = traced["attempted"] if workload == "falsify" else 0
        layers["search.falsified_frac"] = (
            traced["extra"]["falsified"] / traced["attempted"] if workload == "falsify" else 0.0
        )
        layers["service.polls_per_job"] = detail["service.polls_per_job"][0] if jobs else 0.0
        layers["host.calib_ms"] = statistics.median(calib)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "unix_time": time.time(), "cpu": cpu,
        "work": str(work.relative_to(ROOT)),
        "correct": not problems and failed == 0, "attempted": attempted,
        "failed": failed, "problems": problems[:20],
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "detail": {k: v[0] for k, v in detail.items()},
        "layers": layers, "setup_times_s": setup_times, "pass_walls_s": wall,
        "clock_setup_times_s": clock_setup, "clock_pass_walls_s": clock_wall,
        "cold_starts": cold_starts,
        "passes": [(p["started_at"], p["ended_at"]) for p in done],
        "host_calib_ms": {"before": calib_before, "after": calib_after},
    }
    with (WORK / "runs.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_table(record, end_to_end, detail)
    return record


def print_table(record: Dict[str, Any], end_to_end: Dict[str, Tuple[float, int, str]],
                detail: Dict[str, Tuple[float, int, str]]) -> None:
    units = dict(END_TO_END)
    verdict = "yes" if record["correct"] else "NO"
    print(f"{record['workload']}: seed {record['seed']}, attempted {record['attempted']}, "
          f"failed {record['failed']}, outputs correct: {verdict}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, (value, count, what) in list(end_to_end.items()) + list(detail.items()):
        unit = units.get(name) or ("ms" if name.endswith("_ms") else
                                   "s" if name.endswith("_s") else "")
        print(f"  {name:<32} {value:>12.4f} {unit:<4} (n={count} {what})")
    calib = record["host_calib_ms"]
    print(f"  {'host.calib_ms':<32} before {statistics.median(calib['before']):.2f}, "
          f"after {statistics.median(calib['after']):.2f} ms (not gated)")
    if record["layers"]:
        for name, value in sorted(record["layers"].items()):
            print(f"  {name:<40} {value:>14.6f}")


def result_line(record: Dict[str, Any], trace: int) -> str:
    names = PER_LAYER if trace else END_TO_END
    source = record["layers"] if trace else record["end_to_end"]
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in names}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the paper protocol's order")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measured time budget; buys whole passes")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1 adds a traced pass and reports per-layer metrics")
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: a few runs and no extra cold starts, "
                             "for the benchmark's own tests")
    parser.add_argument("--expected", type=Path, default=None,
                        help="pinned digests (default: perfbench/expected.json)")
    args = parser.parse_args(argv)

    # SIGTERM unwinds through the ``with`` blocks, so the probe and the
    # worker processes are stopped and waited for on that path too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, args.trace, args.size,
                             args.expected)
        except WorkerError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        lines.append(result_line(record, args.trace))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
