"""One benchmark process: set up a workload, measure it, check its outputs.

``perfbench/run.py`` starts this file in a fresh interpreter.  It prints
``READY <json>`` once set-up is done (imports, fixtures and one warm-up
on held-out inputs, whose outputs are checked too), then, unless
``--setup-only``, runs one measured pass (and with ``--trace 1`` the
traced pass after it) and prints ``RESULT <json>``.

The program is driven only through public entry points:
``repro.experiments.campaign.execute_suite``, ``repro.search.SearchDriver``
and ``python -m repro.service serve`` with
``repro.service.client.ServiceClient``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import queue
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Simulator seed of the held-out warm-up inputs (the protocol uses 0-14).
HELD_OUT_SEED = 15
#: Master seed of the held-out falsify warm-up (the measured search uses 0).
HELD_OUT_SEARCH_SEED = 1
#: Closed-loop client threads for ``service``.
SERVICE_CLIENTS = 2
SERVICE_JOBS = {"full": 100, "tiny": 4}
#: The falsify searches: (family, master seed, budget) per size.
FALSIFY_SEARCHES = {
    "full": (("crossing", 0, 24), ("pedestrian", 0, 24)),
    "tiny": (("crossing", 0, 2),),
}
FALSIFY_HELD_OUT = ("crossing", HELD_OUT_SEARCH_SEED, 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def row_digest(row: Dict[str, Any]) -> str:
    """Digest of one canonical report row (a run's deterministic fields)."""
    return sha256(json.dumps(row, sort_keys=True).encode("utf-8"))


@dataclass
class PassResult:
    """What one measured pass did and whether its outputs were right.

    ``started_at`` and ``ended_at`` are ``time.monotonic`` stamps, which
    on Linux share one clock across processes, so ``run.py`` can match
    them against its speed probe's samples.
    """

    started_at: float = 0.0
    ended_at: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ticks: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def stamp(self, started_at: float) -> None:
        """Close the pass, which started at ``started_at``, now."""
        self.started_at = started_at
        self.ended_at = time.monotonic()
        self.wall_s = self.ended_at - started_at


class Workload:
    """Shared plumbing: seeded inputs, a scratch directory, pinned digests."""

    name = ""

    def __init__(self, seed: int, size: str, work: Path, expected: Dict[str, Any]) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        self.expected = expected
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")

    def ordered(self, items: List[Any]) -> List[Any]:
        """``items`` in the seed's order; seed 0 keeps the canonical order."""
        items = list(items)
        if self.seed != 0:
            self.rng.shuffle(items)
        return items

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self) -> List[str]:
        """Imports, fixtures and the warm-up; returns output-check problems."""
        raise NotImplementedError

    def run_pass(self, label: str) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# paper: the 90-run protocol, serial and untraced
# ----------------------------------------------------------------------
class Paper(Workload):
    """6 scenario types x seeds 0-14 through ``execute_suite``.

    The workload seed only shuffles the order the runs are submitted in
    (seed 0 keeps the protocol's order): the set of runs is the paper's,
    so every seed does the same work and the canonical report has one
    pinned digest.
    """

    name = "paper"

    def setup(self) -> List[str]:
        from repro.experiments.campaign import execute_suite, write_campaign_report
        from repro.sim.scenario import ScenarioType

        self.execute_suite = execute_suite
        self.write_campaign_report = write_campaign_report
        self.scenario_types = list(ScenarioType)
        if self.size == "tiny":
            self.scenario_types = [ScenarioType.NOMINAL, ScenarioType.PEDESTRIAN]
        self.seeds = list(range(15) if self.size == "full" else range(2))
        self.order = (self.ordered(self.scenario_types), self.ordered(self.seeds))

        results, _ = execute_suite([ScenarioType.NOMINAL], [HELD_OUT_SEED], progress=None)
        path = write_campaign_report(results, self.fresh_dir("heldout") / "report.json")
        if sha256(path.read_bytes()) != self.expected["paper"]["report"]["heldout"]:
            return ["paper: held-out report digest mismatch"]
        return []

    def run_pass(self, label: str) -> PassResult:
        started = time.monotonic()
        scenario_types, seeds = self.order
        results, _ = self.execute_suite(scenario_types, seeds, progress=None)
        canonical = {
            st: sorted(results[st], key=lambda o: o.seed)
            for st in self.scenario_types
        }
        path = self.write_campaign_report(canonical, self.fresh_dir(label) / "report.json")
        outcome = check_report(path.read_bytes(), self.expected, self.size)
        outcome.ticks = sum(o.iterations for runs in results.values() for o in runs)
        outcome.stamp(started)
        return outcome


def check_report(blob: bytes, expected: Dict[str, Any], size: str) -> PassResult:
    """Each run's row against its pinned digest, then the whole report."""
    pinned = expected["paper"]
    report = json.loads(blob)
    outcome = PassResult()
    for scenario, block in sorted(report["scenarios"].items()):
        for row in block["runs"]:
            outcome.attempted += 1
            key = f"{scenario}:{row['seed']}"
            if row_digest(row) != pinned["rows"].get(key):
                outcome.failed += 1
                outcome.problems.append(f"paper: row {key} differs from its pinned digest")
    if sha256(blob) != pinned["report"][size]:
        outcome.problems.append("paper: canonical report digest mismatch")
    return outcome


# ----------------------------------------------------------------------
# falsify: SearchDriver, serial, journaled
# ----------------------------------------------------------------------
def run_search(family: str, seed: int, budget: int, out: Path) -> Any:
    """One falsify-mode search (the CLI's defaults otherwise) into ``out``."""
    from repro.experiments.campaign import CampaignOptions
    from repro.search import SearchConfig, SearchDriver

    config = SearchConfig(family=family, mode="falsify", seed=seed, budget=budget)
    return SearchDriver(config, CampaignOptions(), out_dir=out, progress=None).run()


def search_digest(out_dir: Path) -> str:
    from repro.search.driver import CORPUS_FILE_NAME, SUMMARY_FILE_NAME

    return sha256((out_dir / CORPUS_FILE_NAME).read_bytes()
                  + (out_dir / SUMMARY_FILE_NAME).read_bytes())


class Falsify(Workload):
    """Falsify-mode searches over ``crossing`` and ``pedestrian``.

    The master seed stays 0 (the CLI default); the workload seed only
    picks which family runs first, so every seed does the same work.
    """

    name = "falsify"

    def setup(self) -> List[str]:
        self.searches = self.ordered(FALSIFY_SEARCHES[self.size])
        out = self.fresh_dir("heldout")
        run_search(*FALSIFY_HELD_OUT, out)
        if search_digest(out) != self.expected["falsify"]["heldout"]:
            return ["falsify: held-out corpus/summary digest mismatch"]
        return []

    def run_pass(self, label: str) -> PassResult:
        started = time.monotonic()
        outcome = PassResult()
        falsified = 0
        pass_dir = self.fresh_dir(label)
        for family, seed, budget in self.searches:
            out = pass_dir / family
            result = run_search(family, seed, budget, out)
            evaluations = len(result.evaluations)
            falsified += sum(e.falsified for e in result.evaluations)
            pinned = self.expected["falsify"][self.size][family]
            outcome.attempted += evaluations
            outcome.ticks += sum(e.iterations for e in result.evaluations)
            if search_digest(out) != pinned["digest"] or evaluations != pinned["evaluations"]:
                outcome.failed += evaluations
                outcome.problems.append(f"falsify: {family} corpus/summary digest mismatch")
        outcome.extra["falsified"] = falsified
        outcome.stamp(started)
        return outcome


# ----------------------------------------------------------------------
# service: closed loop against one `repro.service serve --workers 2`
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro.service serve`` process (optionally traced)."""

    def __init__(self, root: Path, spans: Optional[Path] = None) -> None:
        from repro.service.client import ServiceClient, ServiceError

        command = ["serve", "--root", str(root), "--port", "0", "--workers", "2",
                   "--log-level", "WARNING"]
        if spans is None:
            argv = [sys.executable, "-m", "repro.service"] + command
        else:
            argv = [sys.executable, str(HERE / "serve.py"), "--spans", str(spans)] + command
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(root.parent / f"{root.name}.log", "wb")
        self.process = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdout=self.log, stderr=subprocess.STDOUT
        )
        info = root / "service.json"
        deadline = time.monotonic() + 60.0
        while True:
            if self.process.poll() is not None:
                self.close()
                raise RuntimeError(f"service exited early; see {self.log.name}")
            if info.exists() and info.read_text().endswith("\n"):
                try:
                    self.url = json.loads(info.read_text())["url"]
                    ServiceClient(self.url, timeout=5.0).health()
                    break
                except ServiceError:
                    pass
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("service did not answer /healthz within 60 s")
            time.sleep(0.01)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


@dataclass
class JobSample:
    """One job as the client saw it.

    ``latency_s`` runs from sending the submit request until ``watch``
    sees the job settled.  The four parts split it on the wall clock at
    the server's transition stamps: submit (request sent -> job queued),
    queue wait (queued -> running), run (running -> done) and notify lag
    (done -> the client sees it).  They add up to ``latency_s`` by
    construction: a breakdown, not a check.
    """

    scenario: str
    seed: int
    latency_s: float
    submit_s: float
    queue_wait_s: float
    run_s: float
    notify_lag_s: float
    polls: int
    ticks: int


class Service(Workload):
    """Single-run campaign jobs, two closed-loop clients, one server.

    Jobs cycle over ``nominal`` and ``pedestrian_crossing`` x seeds 0-14,
    cut to the job count in that canonical order; the workload seed then
    shuffles the whole list (seed 0 keeps it in order), so every seed
    runs the same jobs.  Jobs are traced and journaled (the service's
    defaults).  Every job's report row is checked against the pinned
    ``paper`` row for the same (scenario, seed).
    """

    name = "service"

    def setup(self) -> List[str]:
        from repro.obs.metrics import parse_exposition
        from repro.service.client import ServiceClient

        class CountingClient(ServiceClient):
            """Counts event polls; ``watch`` detects completion through them."""

            polls = 0

            def events(self, *args: Any, **kwargs: Any) -> Any:
                self.polls += 1
                return super().events(*args, **kwargs)

        self.client_type = CountingClient
        self.parse_exposition = parse_exposition
        self.jobs = self.job_list()
        self.server: Optional[Server] = None
        self.start_server(spans=None)
        ok, _ = self._job(self.client_type(self.server.url), "nominal", HELD_OUT_SEED)
        return [] if ok else ["service: held-out warm-up job failed its check"]

    def job_list(self) -> List[Tuple[str, int]]:
        """The pass's (scenario, seed) jobs, in the seed's order."""
        pairs = [(scenario, seed) for scenario in ("nominal", "pedestrian_crossing")
                 for seed in range(15 if self.size == "full" else 2)]
        count = SERVICE_JOBS[self.size]
        cycles = -(-count // len(pairs))
        return self.ordered((pairs * cycles)[:count])

    def start_server(self, spans: Optional[Path]) -> None:
        self.close()
        root = self.fresh_dir("traced-root" if spans else "root")
        self.server = Server(root, spans)

    def _job(self, client: Any, scenario: str, seed: int) -> Tuple[bool, Optional[JobSample]]:
        """Submit one single-run job, follow its events, check its row."""
        polls = client.polls
        started = time.perf_counter()
        sent_unix = time.time()
        job_id = client.submit("campaign", {"scenarios": [scenario], "seeds": [seed]})["id"]
        for _ in client.watch(job_id, wait=15.0):
            pass
        seen = time.perf_counter()
        seen_unix = time.time()
        body = client.results(job_id)
        at = {t["state"]: t["at"] for t in body["job"]["transitions"]}
        runs = body.get("report", {}).get("scenarios", {}).get(scenario, {}).get("runs", [])
        ok = (
            body["job"]["state"] == "done"
            and len(runs) == 1
            and row_digest(runs[0]) == self.expected["paper"]["rows"].get(f"{scenario}:{seed}")
        )
        sample = JobSample(
            scenario=scenario,
            seed=seed,
            latency_s=seen - started,
            submit_s=at.get("queued", sent_unix) - sent_unix,
            queue_wait_s=at.get("running", 0.0) - at.get("queued", 0.0),
            run_s=at.get("done", 0.0) - at.get("running", 0.0),
            notify_lag_s=seen_unix - at.get("done", seen_unix),
            polls=client.polls - polls,
            ticks=runs[0]["iterations"] if runs else 0,
        )
        return ok, sample

    def store_busy(self) -> Dict[str, float]:
        text = self.client_type(self.server.url).metrics()
        values = {name: value for name, _, value in self.parse_exposition(text)}
        return {
            "append": values.get("repro_store_append_s_sum", 0.0),
            "save": values.get("repro_store_save_s_sum", 0.0),
        }

    def run_pass(self, label: str) -> PassResult:
        pending: "queue.Queue[Tuple[str, int]]" = queue.Queue()
        for job in self.jobs:
            pending.put(job)
        samples: List[JobSample] = []
        problems: List[str] = []
        lock = threading.Lock()
        url = self.server.url

        def client_loop() -> None:
            client = self.client_type(url)
            while True:
                try:
                    scenario, seed = pending.get_nowait()
                except queue.Empty:
                    return
                try:
                    ok, sample = self._job(client, scenario, seed)
                except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                    ok, sample = False, None
                    detail = f"{type(exc).__name__}: {exc}"
                else:
                    detail = "report row differs from the pinned paper row"
                with lock:
                    if sample is not None:
                        samples.append(sample)
                    if not ok:
                        problems.append(f"service: job {scenario}:{seed}: {detail}")

        before = self.store_busy()
        started = time.monotonic()
        threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.monotonic()
        after = self.store_busy()
        outcome = PassResult(
            started_at=started,
            ended_at=ended,
            wall_s=ended - started,
            attempted=len(self.jobs),
            failed=len(problems),
            ticks=sum(s.ticks for s in samples),
            problems=problems,
        )
        outcome.extra = {
            "jobs": [s.__dict__ for s in samples],
            "store_append_busy_s": after["append"] - before["append"],
            "store_save_busy_s": after["save"] - before["save"],
        }
        return outcome

    def traced_pass(self, spans: Path) -> PassResult:
        """A pass against a fresh server whose layers are wrapped."""
        self.start_server(spans)
        outcome = self.run_pass("traced")
        self.close()
        return outcome

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.close()
            self.server = None


WORKLOADS = {"paper": Paper, "falsify": Falsify, "service": Service}


def trace_bytes(directory: Path) -> int:
    """Bytes of every trace file the program wrote under ``directory``."""
    return sum(
        path.stat().st_size
        for path in directory.rglob("*")
        if path.is_file()
        and ("trace" in path.relative_to(directory).parts[:-1]
             or path.name.endswith(".trace.jsonl"))
    )


def layer_report(workload: Workload) -> Dict[str, Any]:
    """The traced pass and its per-layer metrics.

    ``run.py`` adds ``bench.trace_overhead_frac`` from this pass's stamps
    and the untraced pass's, both at the reference speed.

    ``bench.attributed_frac`` is the layer spans' self time (entry points
    excluded) over the time traced: the traced pass's wall time for the
    in-process workloads, and for ``service`` the jobs' run phases
    (running -> done, from the job records), covered by the spans of each
    job inside the server.
    """
    from spans import Tracer, attributed_seconds, layer_metrics

    spans_path = workload.work / "spans.json"
    if isinstance(workload, Service):
        traced = workload.traced_pass(spans_path)
        dump = json.loads(spans_path.read_text())
        trace_dir = workload.work / "traced-root"
    else:
        tracer = Tracer().install()
        try:
            traced = workload.run_pass("traced")
        finally:
            tracer.uninstall()
        dump = tracer.dump()
        spans_path.write_text(json.dumps(dump))
        trace_dir = workload.work / "traced"
    metrics = layer_metrics(dump)
    if isinstance(workload, Service):
        run_s = sum(job["run_s"] for job in traced.extra["jobs"])
        covered = attributed_seconds(dump, grouped_only=True)
        metrics["bench.attributed_frac"] = covered / run_s if run_s else 0.0
    else:
        metrics["bench.attributed_frac"] = attributed_seconds(dump) / traced.wall_s
    metrics["obs.trace.bytes"] = trace_bytes(trace_dir)
    return {"metrics": metrics, "traced": dataclasses.asdict(traced)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    args = parser.parse_args(argv)

    # SIGTERM (the runner's deadline) unwinds through ``finally`` so the
    # service's server process is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    expected = json.loads(args.expected.read_text())
    workload = WORKLOADS[args.workload](args.seed, args.size, args.work, expected)
    try:
        problems = workload.setup()
        print("READY " + json.dumps({"problems": problems}), flush=True)
        if args.setup_only:
            return 0
        measured = workload.run_pass("pass")
        result: Dict[str, Any] = {"pass": dataclasses.asdict(measured)}
        if args.trace:
            result["layers"] = layer_report(workload)
    finally:
        workload.close()
    # The service's work happens in the server process (a waited-for child).
    who = resource.RUSAGE_CHILDREN if args.workload == "service" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
