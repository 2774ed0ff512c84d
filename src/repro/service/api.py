"""The HTTP/JSON API over the scheduler — stdlib ``http.server`` only.

Endpoints (all JSON unless noted)::

    GET  /healthz                      liveness probe
    GET  /v1/stats                     scheduler + telemetry snapshot
    GET  /v1/metrics                   Prometheus text exposition
    POST /v1/jobs                      submit {kind, spec, priority, jobs}
    GET  /v1/jobs                      list all job records
    GET  /v1/jobs/<id>                 one job record
    POST /v1/jobs/<id>/cancel          cancel (queued or running)
    GET  /v1/jobs/<id>/results         record + report.json (409 until done)
    GET  /v1/jobs/<id>/events          NDJSON event stream (long-poll)

The events endpoint is a byte-offset cursor over the job's append-only
``events.jsonl``: ``?offset=N`` resumes where the last poll stopped,
``?wait=S`` long-polls up to S seconds (at most 30) for new lines, and
the response carries ``X-Next-Offset`` (feed it back) and
``X-Job-State`` headers; a negative offset or a NaN wait is a 400.
Polling a terminal job returns immediately, so a ``watch`` client
terminates cleanly.

:class:`ThreadingHTTPServer` gives one thread per request — long-polls
do not block submissions.  The handler never touches scheduler internals
beyond its public methods, so everything the API can do, tests can do
in-process without sockets.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..jsonutil import dumps as strict_dumps
from ..obs.metrics import EXPOSITION_CONTENT_TYPE, render_exposition
from .jobs import DONE, REPORT_NAME, TERMINAL_STATES, JobSpec, known_job_kinds
from .scheduler import Scheduler
from .store import UnknownJob

logger = logging.getLogger(__name__)

#: Cap on a single long-poll, whatever the client asked for.
MAX_EVENT_WAIT_S = 30.0


class ApiError(Exception):
    """An error with an HTTP status (maps to a JSON error body)."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the owning server's scheduler."""

    protocol_version = "HTTP/1.1"
    server: "ServiceServer"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:  # quiet by default
        logger.debug("%s - %s", self.address_string(), fmt % args)

    def _send_json(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        blob = (strict_dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        blob = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _send_ndjson(self, lines: "list[str]", headers: Dict[str, str]) -> None:
        blob = ("".join(line + "\n" for line in lines)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise ApiError(400, "request body must be a JSON object")
        return data

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def _handle(self, method: str) -> None:
        telemetry = self.server.telemetry
        self._route_label = f"{method} (unmatched)"
        start = time.perf_counter()
        try:
            self._route(method)
        except ApiError as exc:
            telemetry.counter("service.http_errors").inc()
            self._send_json(exc.status, {"error": exc.message})
        except UnknownJob as exc:
            telemetry.counter("service.http_errors").inc()
            self._send_json(404, {"error": str(exc.args[0])})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 - handler must answer
            telemetry.counter("service.http_errors").inc()
            logger.exception("unhandled API error")
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            # Per-route series use the *pattern* (job ids normalized to
            # ``{id}``) so cardinality stays bounded by the route table.
            telemetry.counter(f"http.requests.{self._route_label}").inc()
            telemetry.histogram(f"http.request_s.{self._route_label}").record(
                time.perf_counter() - start
            )

    def _route(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
        scheduler = self.server.scheduler

        def label(pattern: str) -> None:
            self._route_label = f"{method} {pattern}"

        if method == "GET" and parts == ["healthz"]:
            label("/healthz")
            self._send_json(200, {"status": "ok", "kinds": known_job_kinds()})
            return
        if method == "GET" and parts == ["v1", "stats"]:
            label("/v1/stats")
            self._send_json(200, scheduler.stats())
            return
        if method == "GET" and parts == ["v1", "metrics"]:
            label("/v1/metrics")
            self._send_text(
                200, render_exposition(scheduler.collect()), EXPOSITION_CONTENT_TYPE
            )
            return
        if parts[:2] == ["v1", "jobs"]:
            if method == "POST" and len(parts) == 2:
                label("/v1/jobs")
                self._submit()
                return
            if method == "GET" and len(parts) == 2:
                label("/v1/jobs")
                self._send_json(
                    200, {"jobs": [r.to_dict() for r in scheduler.jobs()]}
                )
                return
            if len(parts) >= 3:
                job_id = parts[2]
                if method == "GET" and len(parts) == 3:
                    label("/v1/jobs/{id}")
                    self._send_json(200, scheduler.job(job_id).to_dict())
                    return
                if method == "POST" and parts[3:] == ["cancel"]:
                    label("/v1/jobs/{id}/cancel")
                    record = scheduler.cancel(job_id)
                    self._send_json(200, record.to_dict())
                    return
                if method == "GET" and parts[3:] == ["results"]:
                    label("/v1/jobs/{id}/results")
                    self._results(job_id)
                    return
                if method == "GET" and parts[3:] == ["events"]:
                    label("/v1/jobs/{id}/events")
                    self._events(job_id, query)
                    return
        raise ApiError(404, f"no route for {method} {parsed.path}")

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _submit(self) -> None:
        body = self._read_body()
        try:
            spec = JobSpec.from_dict(body)
            record = self.server.scheduler.submit(spec)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc
        self._send_json(201, record.to_dict())

    def _results(self, job_id: str) -> None:
        scheduler = self.server.scheduler
        record = scheduler.job(job_id)
        if record.state != DONE:
            status = 409 if not record.terminal else 200
            body: Dict[str, Any] = {"job": record.to_dict()}
            if record.state != DONE and record.terminal:
                body["error"] = record.error
                error_text = scheduler.store.read_error(job_id)
                if error_text:
                    body["traceback"] = error_text
            if status == 409:
                body["error"] = f"job {job_id} is {record.state}, not done"
            self._send_json(status, body)
            return
        body = {"job": record.to_dict(), "result": record.result}
        report_path = scheduler.store.job_dir(job_id) / REPORT_NAME
        if report_path.exists():
            body["report"] = json.loads(report_path.read_text())
        self._send_json(200, body)

    def _events(self, job_id: str, query: Dict[str, str]) -> None:
        scheduler = self.server.scheduler
        try:
            offset = int(query.get("offset", 0))
            wait_s = float(query.get("wait", 0.0))
            if offset < 0:
                raise ValueError(f"offset must be >= 0, got {offset}")
            if math.isnan(wait_s):
                raise ValueError("wait must be a number of seconds, got nan")
        except ValueError as exc:
            raise ApiError(400, f"bad query parameter: {exc}") from exc
        deadline = time.monotonic() + min(max(wait_s, 0.0), MAX_EVENT_WAIT_S)
        while True:
            # The state before the read: every terminal transition appends
            # its event first, so a terminal state here means the read sees
            # the whole stream.  The live record may settle after the read.
            state = scheduler.job(job_id).state
            lines, next_offset = scheduler.store.read_events(job_id, offset)
            # Return when there is something to deliver, the job can no
            # longer produce events, or the long-poll window is spent.
            if lines or state in TERMINAL_STATES:
                break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        self._send_ndjson(
            lines,
            {
                "X-Next-Offset": str(next_offset),
                "X-Job-State": state,
            },
        )


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one scheduler instance."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], scheduler: Scheduler) -> None:
        super().__init__(address, ServiceHandler)
        self.scheduler = scheduler
        self.telemetry = scheduler.telemetry

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    scheduler: Scheduler,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[ServiceServer, threading.Thread]:
    """Start the API server on a background thread; returns (server, thread).

    ``port=0`` binds an ephemeral port — read the actual address from
    ``server.url``.  The scheduler must already be started.
    """
    server = ServiceServer((host, port), scheduler)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="service-http",
        daemon=True,
    )
    thread.start()
    return server, thread
