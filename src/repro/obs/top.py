"""Live fleet dashboard: ``python -m repro.obs top``.

A polling view over a running assurance service — slot occupancy,
queue, per-job progress and throughput, job wait/run latency — or, in
batch mode, over a directory of traces (violation, fault and robustness
counts per scenario) via the :mod:`repro.obs.index` query engine.

Two deliberate constraints:

* **no service import** — like the rest of :mod:`repro.obs`, this module
  talks to the service only over its public HTTP API (``/v1/stats`` and
  ``/v1/jobs``) through :mod:`urllib`, so the obs CLI works against any
  server speaking the API, not just an in-process one;
* **non-TTY safe** — on a terminal each refresh redraws in place (ANSI
  home+clear); on a pipe or CI log each refresh is a plain
  ``\\n``-separated block, so redirected output stays readable.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Optional

from .index import group_rows, index_rows, refresh_index
from .telemetry import TelemetryRegistry

#: Written by ``python -m repro.service serve`` next to the job store
#: (name duplicated from the service CLI: obs never imports it).
SERVICE_FILE_NAME = "service.json"

#: States whose jobs the dashboard lists individually.
_ACTIVE_STATES = ("running", "queued")


class TopError(Exception):
    """The dashboard cannot reach or interpret its source."""


def resolve_service_url(url: Optional[str], root: "str | Path | None") -> str:
    """Explicit ``--url`` wins; otherwise read ``<root>/service.json``."""
    if url:
        return url.rstrip("/")
    if root is None:
        raise TopError("need --url or --root to find the service")
    service_file = Path(root) / SERVICE_FILE_NAME
    try:
        return str(json.loads(service_file.read_text())["url"]).rstrip("/")
    except (OSError, ValueError, KeyError) as exc:
        raise TopError(
            f"cannot read service url from {service_file}: {exc}"
        ) from exc


def _fetch(url: str, timeout: float = 10.0) -> bytes:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise TopError(f"cannot reach {url}: {exc}") from exc


def service_snapshot(base_url: str) -> Dict[str, Any]:
    """One poll of the service: stats (with its registry) + job table."""
    stats = json.loads(_fetch(base_url + "/v1/stats"))
    jobs = json.loads(_fetch(base_url + "/v1/jobs")).get("jobs", [])
    return {"stats": stats, "jobs": jobs}


def _bar(busy: float, total: float, width: int = 20) -> str:
    total = max(total, 1.0)
    filled = int(round(width * min(busy / total, 1.0)))
    return "#" * filled + "." * (width - filled)


class TopView:
    """Stateful renderer: remembers the last poll to derive throughput."""

    def __init__(self) -> None:
        self._last_progress: Dict[str, int] = {}
        self._last_time: Optional[float] = None

    # ------------------------------------------------------------------
    def render_service(self, snapshot: Dict[str, Any]) -> str:
        stats = snapshot.get("stats") or {}
        jobs = snapshot.get("jobs") or []
        now = time.monotonic()
        dt = (now - self._last_time) if self._last_time is not None else None
        self._last_time = now

        workers = int(stats.get("workers") or 0)
        free = int(stats.get("free_slots") or 0)
        busy = workers - free
        queued = stats.get("queued") or []
        running = stats.get("running") or []
        telemetry = TelemetryRegistry.from_snapshot(stats.get("telemetry") or {})

        lines = [
            f"repro service v{stats.get('version', '?')}"
            f"  schema {stats.get('schema', '?')}"
            f"  uptime {float(stats.get('uptime_s') or 0.0):.1f}s",
            f"slots [{_bar(busy, workers)}] {busy}/{workers} busy"
            f"  queue {len(queued)}  running {len(running)}"
            f"  max_jobs {stats.get('max_jobs', '?')}",
        ]

        by_state: Dict[str, int] = {}
        for record in jobs:
            state = record.get("state") or "?"
            by_state[state] = by_state.get(state, 0) + 1
        lines.append(
            "jobs  "
            + "  ".join(f"{s}={by_state.get(s, 0)}" for s in
                        ("queued", "running", "done", "failed", "cancelled"))
        )

        active = [r for r in jobs if r.get("state") in _ACTIVE_STATES]
        if active:
            lines.append("")
            lines.append(f"{'JOB':<10}{'KIND':<10}{'STATE':<9}{'PROGRESS':<12}RATE")
            for record in sorted(active, key=lambda r: (r.get("state") or "", r.get("id") or "")):
                job_id = record.get("id") or "?"
                progress = record.get("progress") or {}
                done = int(progress.get("done") or 0)
                total = int(progress.get("total") or 0)
                rate = ""
                if dt and dt > 0 and job_id in self._last_progress:
                    delta = done - self._last_progress[job_id]
                    if delta >= 0:
                        rate = f"{delta / dt:.2f}/s"
                self._last_progress[job_id] = done
                spec = record.get("spec") or {}
                lines.append(
                    f"{job_id:<10}{str(spec.get('kind') or '?'):<10}"
                    f"{str(record.get('state')):<9}"
                    f"{f'{done}/{total}' if total else '-':<12}{rate}"
                )

        latency_lines = []
        for label, name in (("wait", "jobs.wait_s"), ("run", "jobs.run_s")):
            hist = telemetry.histograms.get(name)
            if hist is not None and hist.count:
                summary = hist.summary()
                latency_lines.append(
                    f"{label} n={int(summary['count'])} mean={summary['mean']:.3f}s"
                    f" p90={summary['p90']:.3f}s max={summary['max']:.3f}s"
                )
        if latency_lines:
            lines.append("")
            lines.append("job latency  " + "   ".join(latency_lines))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def render_batch(self, root: "str | Path") -> str:
        """Dashboard over a trace tree: indexed rows, no server needed."""
        index = refresh_index(root, write=False)
        rows = index_rows(index)
        lines = [f"repro traces @ {root}  runs {len(rows)}"]
        if not rows:
            lines.append("(no run traces found)")
            return "\n".join(lines)
        rhos = [r["rho"] for r in rows if isinstance(r.get("rho"), (int, float))]
        lines.append(
            f"violations {sum(r.get('violations') or 0 for r in rows)}"
            f"  faults {sum(r.get('faults') or 0 for r in rows)}"
            f"  recoveries {sum(r.get('recoveries') or 0 for r in rows)}"
            + (
                f"  rho_min {min(rhos):+.4f}  rho_mean {sum(rhos) / len(rhos):+.4f}"
                if rhos
                else ""
            )
        )
        groups = group_rows(rows, "scenario")
        width = max(
            [len("SCENARIO")]
            + [len(str(g.get("scenario") or "?")) for g in groups]
        )
        lines.append("")
        lines.append(
            f"{'SCENARIO':<{width}}{'RUNS':>6}{'VIOL':>7}{'FAULTS':>8}{'RHO_MIN':>10}"
        )
        for group in groups:
            rho_min = group.get("rho_min")
            rho_cell = (
                f"{rho_min:+.4f}" if isinstance(rho_min, (int, float)) else "-"
            )
            lines.append(
                f"{str(group.get('scenario') or '?'):<{width}}"
                f"{group['runs']:>6}{group['violations']:>7}{group['faults']:>8}"
                f"{rho_cell:>10}"
            )
        return "\n".join(lines)


def run_top(
    *,
    url: Optional[str] = None,
    root: "str | Path | None" = None,
    trace_dir: "str | Path | None" = None,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    stream=None,
) -> int:
    """Drive the dashboard loop; returns a process exit code.

    ``iterations=None`` polls until interrupted; tests (and ``--once``)
    pass a finite count.  Batch mode (``trace_dir``) needs no server.
    """
    stream = stream if stream is not None else sys.stdout
    try:
        is_tty = bool(stream.isatty())
    except (AttributeError, ValueError):
        is_tty = False
    view = TopView()
    base_url: Optional[str] = None
    if trace_dir is None:
        base_url = resolve_service_url(url, root)
    count = 0
    while True:
        try:
            if trace_dir is not None:
                frame = view.render_batch(trace_dir)
            else:
                assert base_url is not None
                frame = view.render_service(service_snapshot(base_url))
        except TopError as exc:
            print(f"top: {exc}", file=sys.stderr)
            return 1
        if is_tty:
            stream.write("\x1b[H\x1b[2J" + frame + "\n")
        else:
            if count:
                stream.write("\n")
            stream.write(frame + "\n")
        stream.flush()
        count += 1
        if iterations is not None and count >= iterations:
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0
