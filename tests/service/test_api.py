"""Tests for the HTTP/JSON API, exercised over real sockets with the
stdlib client."""

import json
import time
import urllib.request

import pytest

from repro.service import ServiceClient, ServiceError

from .conftest import make_gate


@pytest.fixture
def client(api):
    return ServiceClient(api.url, timeout=10.0)


def _wait_done(client, job_id, timeout=10.0):
    record = client.wait(job_id, timeout=timeout)
    assert record["state"] == "done", record
    return record


class TestBasics:
    def test_healthz(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert "campaign" in body["kinds"]

    def test_stats(self, client):
        stats = client.stats()
        assert stats["workers"] == 2
        assert "telemetry" in stats

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/v1/nonsense")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("j424242")
        assert excinfo.value.status == 404


class TestSubmitAndQuery:
    def test_submit_runs_to_done(self, client):
        record = client.submit("ok", {"x": 3})
        assert record["state"] == "queued"
        final = _wait_done(client, record["id"])
        assert final["result"] == {"echo": 3}

    def test_submit_bad_kind_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("mystery", {})
        assert excinfo.value.status == 400
        assert "unknown job kind" in excinfo.value.message

    def test_submit_invalid_spec_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit("ok", {})  # validator requires 'x'
        assert excinfo.value.status == 400

    def test_submit_malformed_json_400(self, api):
        request = urllib.request.Request(
            api.url + "/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_job_listing(self, client):
        a = client.submit("ok", {"x": 1})
        b = client.submit("ok", {"x": 2})
        ids = [r["id"] for r in client.jobs()]
        assert ids == sorted([a["id"], b["id"]])


class TestResults:
    def test_results_409_until_done(self, client, fake_kinds):
        spec, release, wait_running = make_gate(fake_kinds, "api-gate")
        record = client.submit("blocker", spec)
        wait_running()
        with pytest.raises(ServiceError) as excinfo:
            client.results(record["id"])
        assert excinfo.value.status == 409
        release()
        _wait_done(client, record["id"])
        body = client.results(record["id"])
        assert body["result"] == {"gate": "api-gate"}

    def test_results_of_failed_job_carry_traceback(self, client):
        record = client.submit("boom", {"message": "zap"})
        final = client.wait(record["id"], timeout=10.0)
        assert final["state"] == "failed"
        body = client.results(record["id"])
        assert "zap" in body["error"]
        assert "RuntimeError" in body["traceback"]


class TestCancel:
    def test_cancel_running_job(self, client, fake_kinds):
        spec, _release, wait_running = make_gate(fake_kinds, "api-cancel")
        record = client.submit("blocker", spec)
        wait_running()
        client.cancel(record["id"])
        final = client.wait(record["id"], timeout=10.0)
        assert final["state"] == "cancelled"


class TestEvents:
    def test_event_stream_with_offsets(self, client):
        record = client.submit("ok", {"x": 1})
        _wait_done(client, record["id"])
        events, offset, state = client.events(record["id"])
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "job_queued"
        assert kinds[-1] == "job_done"
        assert state == "done"
        # Cursor past the end: empty, returns immediately (terminal).
        again, offset2, state = client.events(record["id"], offset=offset, wait=5.0)
        assert again == []
        assert offset2 == offset
        assert state == "done"

    @pytest.mark.parametrize(
        "query",
        [
            # NaN passes min()/max() unchanged, so the long-poll deadline
            # would never pass; a negative offset reaches seek().
            "offset=0&wait=nan",
            "offset=-1&wait=0",
        ],
    )
    def test_bad_poll_parameter_is_400(self, client, query):
        record = client.submit("ok", {"x": 1})
        _wait_done(client, record["id"])
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{record['id']}/events?{query}")
        assert excinfo.value.status == 400
        assert "bad query parameter" in excinfo.value.message

    def test_watch_terminates(self, client):
        record = client.submit("ok", {"x": 1})
        started = time.monotonic()
        events = list(client.watch(record["id"], wait=2.0))
        assert time.monotonic() - started < 20.0
        assert [e["kind"] for e in events][-1] == "job_done"

    def test_long_poll_delivers_new_events(self, client, fake_kinds):
        spec, release, wait_running = make_gate(fake_kinds, "api-poll")
        record = client.submit("blocker", spec)
        wait_running()
        events, offset, _ = client.events(record["id"])
        import threading

        threading.Timer(0.3, release).start()
        # Long-poll should return the job_done event without a full wait.
        deadline = time.monotonic() + 10.0
        got = []
        while time.monotonic() < deadline:
            new, offset, state = client.events(record["id"], offset=offset, wait=5.0)
            got.extend(e["kind"] for e in new)
            if state == "done" and not new:
                break
        assert "job_done" in got

    def test_watch_sees_job_done_when_the_job_settles_mid_poll(
        self, client, scheduler, fake_kinds, monkeypatch
    ):
        spec, release, wait_running = make_gate(fake_kinds, "api-settle")
        job_id = client.submit("blocker", spec)["id"]
        wait_running()
        read_events = scheduler.store.read_events

        def settle_after_read(read_id, offset=0):
            # Once the stream is drained, the job appends job_done and
            # settles between this read and the handler's state test.
            lines, next_offset = read_events(read_id, offset)
            if not lines and not scheduler.job(read_id).terminal:
                release()
                deadline = time.monotonic() + 10.0
                while scheduler.job(read_id).state != "done":
                    assert time.monotonic() < deadline, "job never settled"
                    time.sleep(0.01)
            return lines, next_offset

        monkeypatch.setattr(scheduler.store, "read_events", settle_after_read)
        polls = []
        poll = client.events

        def recording_poll(poll_id, offset=0, wait=0.0):
            polls.append(poll(poll_id, offset=offset, wait=wait))
            return polls[-1]

        monkeypatch.setattr(client, "events", recording_poll)
        kinds = [event["kind"] for event in client.watch(job_id, wait=5.0)]
        assert kinds[-1] == "job_done"
        # A terminal X-Job-State comes with or after the terminal event.
        delivered = []
        for events, _, state in polls:
            delivered.extend(event["kind"] for event in events)
            assert state != "done" or "job_done" in delivered
