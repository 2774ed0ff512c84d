"""The live dashboard: service frames, batch frames, URL resolution."""

import io
import json
import time

import pytest

from repro.experiments.campaign import execute_suite
from repro.obs.top import (
    SERVICE_FILE_NAME,
    TopError,
    TopView,
    resolve_service_url,
    run_top,
    service_snapshot,
)
from repro.sim.scenario import ScenarioType


@pytest.fixture
def served(tmp_path):
    """A tiny live service with one instant job kind."""
    from repro.service import (
        JobStore,
        Scheduler,
        register_job_kind,
        unregister_job_kind,
    )
    from repro.service.api import serve

    def run_ok(spec, ctx):
        return {"ok": True}

    register_job_kind("instant", run_ok)
    store = JobStore(tmp_path / "root")
    scheduler = Scheduler(store, workers=2, max_jobs=4).start()
    server, _thread = serve(scheduler)
    try:
        yield server, scheduler
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop(wait=True, timeout=5.0)
        unregister_job_kind("instant")


class TestResolveUrl:
    def test_explicit_url_wins(self, tmp_path):
        assert resolve_service_url("http://x:1/", tmp_path) == "http://x:1"

    def test_reads_service_json_from_root(self, tmp_path):
        (tmp_path / SERVICE_FILE_NAME).write_text(
            json.dumps({"url": "http://127.0.0.1:9999/"})
        )
        assert resolve_service_url(None, tmp_path) == "http://127.0.0.1:9999"

    def test_missing_everything_raises(self, tmp_path):
        with pytest.raises(TopError):
            resolve_service_url(None, None)
        with pytest.raises(TopError):
            resolve_service_url(None, tmp_path)  # no service.json


class TestServiceView:
    def test_snapshot_and_frame(self, served):
        server, scheduler = served
        from repro.service import ServiceClient

        client = ServiceClient(server.url, timeout=10.0)
        record = client.submit("instant", {})
        assert client.wait(record["id"], timeout=10.0)["state"] == "done"

        snapshot = service_snapshot(server.url)
        assert snapshot["stats"]["workers"] == 2
        assert any(j["id"] == record["id"] for j in snapshot["jobs"])

        frame = TopView().render_service(snapshot)
        assert "repro service v" in frame
        assert "slots [" in frame
        assert "done=1" in frame

    def test_frame_reads_stats_and_jobs_only(self, served):
        server, scheduler = served
        from repro.service import ServiceClient

        client = ServiceClient(server.url, timeout=10.0)
        record = client.submit("instant", {})
        assert client.wait(record["id"], timeout=10.0)["state"] == "done"
        frame = TopView().render_service(service_snapshot(server.url))
        assert "job latency  wait n=1 " in frame

        # Each request is counted once per route after its response is
        # sent; wait until the frame's two reads have been counted.
        counters = scheduler.telemetry.counters
        expected = ("http.requests.GET /v1/stats", "http.requests.GET /v1/jobs")
        deadline = time.monotonic() + 5.0
        while any(
            name not in counters or counters[name].value < 1 for name in expected
        ):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        routes = {name for name in counters if name.startswith("http.requests.")}
        assert "http.requests.GET /v1/stats" in routes
        assert "http.requests.GET /v1/metrics" not in routes

    def test_run_top_non_tty_blocks(self, served):
        server, _scheduler = served
        out = io.StringIO()  # not a TTY: frames separated by blank lines
        code = run_top(url=server.url, iterations=2, interval_s=0.01, stream=out)
        assert code == 0
        text = out.getvalue()
        assert "\x1b[" not in text
        assert text.count("repro service v") == 2

    def test_unreachable_service_exits_nonzero(self, capsys):
        code = run_top(url="http://127.0.0.1:1", iterations=1, interval_s=0.01,
                       stream=io.StringIO())
        assert code == 1
        assert "top:" in capsys.readouterr().err


class TestBatchView:
    def test_batch_frame_over_traces(self, tmp_path):
        trace = tmp_path / "trace"
        execute_suite(
            (ScenarioType.NOMINAL, ScenarioType.PEDESTRIAN),
            (0,),
            jobs=1,
            progress=None,
            trace=trace,
        )
        frame = TopView().render_batch(trace)
        assert "runs 2" in frame
        assert "nominal" in frame and "pedestrian_crossing" in frame
        assert "rho_min" in frame

    def test_batch_frame_empty_dir(self, tmp_path):
        frame = TopView().render_batch(tmp_path)
        assert "(no run traces found)" in frame

    def test_cli_top_once(self, tmp_path, capsys):
        from repro.obs.cli import main

        trace = tmp_path / "trace"
        execute_suite(
            (ScenarioType.NOMINAL,), (0,), jobs=1, progress=None, trace=trace
        )
        assert main(["top", "--dir", str(trace), "--once"]) == 0
        assert "runs 1" in capsys.readouterr().out

    def test_cli_top_requires_a_source(self, capsys):
        from repro.obs.cli import main

        assert main(["top"]) != 0
