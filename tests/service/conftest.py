"""Service test fixtures: fast fake job kinds, scheduler, HTTP server.

The real kinds run multi-second campaigns; unit tests register cheap
fakes through the public kind registry instead, so scheduler/API
behaviour is exercised in milliseconds.  The registry is global, so
every fake is unregistered at teardown.
"""

import threading
import time

import pytest

from repro.exec import CampaignCancelled
from repro.service import (
    JobStore,
    Scheduler,
    register_job_kind,
    unregister_job_kind,
)
from repro.service.api import serve


@pytest.fixture
def fake_kinds():
    """Register cheap job kinds: ok / boom / slow / blocker.

    ``blocker`` holds until its per-spec ``gate`` event is set (or the
    job is cancelled), letting tests freeze a job mid-run without
    sleeping.  ``gates`` maps gate names to threading.Events.
    """
    gates = {}
    started = {}

    def run_ok(spec, ctx):
        (ctx.job_dir / "out.txt").write_text("done")
        return {"echo": spec.get("x")}

    def run_boom(spec, ctx):
        raise RuntimeError(spec.get("message", "boom"))

    def run_blocker(spec, ctx):
        name = spec["gate"]
        started[name] = time.monotonic()
        gates.setdefault(name, threading.Event())
        gates[f"{name}.running"].set()
        while not gates[name].wait(timeout=0.01):
            if ctx.cancel is not None and ctx.cancel():
                raise CampaignCancelled("cancelled")
        return {"gate": name}

    def validate_needs_x(spec):
        if "x" not in spec:
            raise ValueError("spec needs 'x'")

    register_job_kind("ok", run_ok, validate_needs_x)
    register_job_kind("boom", run_boom)
    register_job_kind("blocker", run_blocker)
    try:
        yield {"gates": gates, "started": started}
    finally:
        for name in ("ok", "boom", "blocker"):
            unregister_job_kind(name)


def make_gate(fake_kinds, name):
    """Prepare a blocker gate; returns (spec, release, wait_running)."""
    fake_kinds["gates"][name] = threading.Event()
    fake_kinds["gates"][f"{name}.running"] = threading.Event()

    def release():
        fake_kinds["gates"][name].set()

    def wait_running(timeout=5.0):
        assert fake_kinds["gates"][f"{name}.running"].wait(timeout), (
            f"blocker {name} never started"
        )

    return {"gate": name}, release, wait_running


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "root")


@pytest.fixture
def scheduler(store, fake_kinds):
    sched = Scheduler(store, workers=2, max_jobs=4).start()
    yield sched
    sched.stop(wait=True, timeout=5.0)


@pytest.fixture
def api(scheduler):
    server, thread = serve(scheduler)
    yield server
    server.shutdown()
    server.server_close()
