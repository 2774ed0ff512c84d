"""The assurance service CLI: ``python -m repro.service <command>``.

``serve``
    Run the durable campaign server: HTTP/JSON API over a priority
    scheduler, every job in its own directory under ``--root``.  Kill it
    any way you like — a restart re-queues in-flight jobs and resumes
    them from their engine journals.
``submit``
    Submit a job (``campaign`` / ``falsify`` / ``replay``) and print its
    id; ``--wait`` blocks until it settles.
``status``
    One job's record, or the whole job table.
``results``
    A finished job's result summary (and canonical report, if any).
``watch``
    Stream a job's NDJSON event feed until it settles.
``cancel``
    Cancel a queued or running job.

Client commands find the server through ``--url``, or through
``<root>/service.json`` (written by ``serve``) via ``--root``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..dist import BACKEND_CHOICES
from ..jsonutil import dumps as strict_dumps
from .api import serve
from .client import ServiceClient, ServiceError
from .jobs import CANCELLED, DONE, FAILED, QUEUED, known_job_kinds
from .scheduler import Scheduler
from .store import JobStore

#: Written next to the job store so client commands can find the server.
SERVICE_FILE = "service.json"


def cmd_serve(args: argparse.Namespace) -> int:
    from ..obs import configure_logging

    configure_logging(args.log_level)
    root = Path(args.root)
    root.mkdir(parents=True, exist_ok=True)
    store = JobStore(root)
    scheduler = Scheduler(
        store, workers=args.workers, max_jobs=args.max_jobs, backend=args.backend
    ).start()
    server, thread = serve(scheduler, host=args.host, port=args.port)
    import os

    (root / SERVICE_FILE).write_text(
        strict_dumps({"url": server.url, "pid": os.getpid()}, sort_keys=True) + "\n"
    )
    print(f"serving on {server.url} (root: {root})", flush=True)

    stop = threading.Event()

    def _signal(_signum: int, _frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _signal)
    signal.signal(signal.SIGINT, _signal)
    stop.wait()
    print("shutting down...", file=sys.stderr, flush=True)
    server.shutdown()
    scheduler.stop(wait=True)
    return 0


def _client(args: argparse.Namespace) -> ServiceClient:
    url: Optional[str] = getattr(args, "url", None)
    if url is None:
        root = Path(getattr(args, "root", None) or "service-root")
        service_file = root / SERVICE_FILE
        if not service_file.exists():
            raise SystemExit(
                f"no --url given and {service_file} not found — is a server "
                f"running with --root {root}?"
            )
        url = json.loads(service_file.read_text())["url"]
    return ServiceClient(url)


def _load_spec(arg: Optional[str]) -> Dict[str, Any]:
    if not arg:
        return {}
    if arg.startswith("@"):
        text = Path(arg[1:]).read_text()
    else:
        text = arg
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise SystemExit("--spec must decode to a JSON object")
    return spec


def _print_record(record: Dict[str, Any]) -> None:
    progress = record.get("progress") or {}
    line = f"{record['id']}  {record['spec']['kind']:<9} {record['state']:<9}"
    if progress.get("total"):
        line += f" {progress.get('done', 0)}/{progress['total']}"
    if record.get("error"):
        line += f"  {record['error']}"
    print(line)


def cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        record = client.submit(
            args.kind,
            _load_spec(args.spec),
            priority=args.priority,
            jobs=args.jobs,
        )
    except ServiceError as exc:
        print(f"submit failed: {exc.message}", file=sys.stderr)
        return 1
    print(record["id"])
    if not args.wait:
        return 0
    final = client.wait(record["id"], timeout=args.timeout)
    _print_record(final)
    return _exit_code(final["state"])


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.job_id:
        _print_record(client.job(args.job_id))
    else:
        for record in client.jobs():
            _print_record(record)
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    client = _client(args)
    try:
        body = client.results(args.job_id)
    except ServiceError as exc:
        print(f"results unavailable: {exc.message}", file=sys.stderr)
        return 1
    print(strict_dumps(body, indent=2, sort_keys=True))
    return 0


def _report_queue_position(
    client: ServiceClient, job_id: str, poll_s: float = 0.5
) -> None:
    """While the job is queued, print its position in the dispatch line.

    A bare ``queued`` tells a tenant nothing about how long the wait is;
    the position (and the line length) comes from the scheduler's
    priority-ordered ``queued`` list in ``/v1/stats``.  Returns as soon
    as the job leaves the queue; prints only when the position moves.
    """
    import time

    last = None
    while client.job(job_id)["state"] == QUEUED:
        queued = client.stats().get("queued") or []
        if job_id in queued:
            position = queued.index(job_id) + 1
            if position != last:
                print(
                    f"{job_id}  queued  position {position}/{len(queued)}",
                    file=sys.stderr,
                    flush=True,
                )
                last = position
        time.sleep(poll_s)


def cmd_watch(args: argparse.Namespace) -> int:
    client = _client(args)
    _report_queue_position(client, args.job_id)
    for event in client.watch(args.job_id):
        print(strict_dumps(event, sort_keys=True), flush=True)
    return _exit_code(client.job(args.job_id)["state"])


def cmd_cancel(args: argparse.Namespace) -> int:
    client = _client(args)
    _print_record(client.cancel(args.job_id))
    return 0


def _exit_code(state: str) -> int:
    if state == DONE:
        return 0
    if state == FAILED:
        return 3
    if state == CANCELLED:
        return 4
    return 0


def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url", default=None, help="service URL (e.g. http://127.0.0.1:8642)"
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help=f"service root; reads the URL from <root>/{SERVICE_FILE}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the assurance job server")
    p.add_argument(
        "--root", type=Path, default=Path("service-root"),
        help="job store root directory (created if missing)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    p.add_argument(
        "--workers", type=int, default=2,
        help="global engine worker-slot budget shared by all running jobs",
    )
    p.add_argument(
        "--max-jobs", type=int, default=4,
        help="maximum concurrently running jobs",
    )
    p.add_argument(
        "--backend", default="local", choices=BACKEND_CHOICES,
        help="engine executor backend: 'local' (in-process pool) or "
        "'queue' (each job shards over its slot allocation as spooled "
        "host workers under <job_dir>/spool)",
    )
    p.add_argument(
        "--log-level", default="INFO",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit a job")
    _add_client_arguments(p)
    p.add_argument("--kind", required=True, choices=known_job_kinds())
    p.add_argument(
        "--spec", default=None,
        help="kind-specific JSON payload, inline or @file.json",
    )
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="requested engine fan-out")
    p.add_argument("--wait", action="store_true", help="block until the job settles")
    p.add_argument("--timeout", type=float, default=3600.0)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="job table, or one job's record")
    _add_client_arguments(p)
    p.add_argument("job_id", nargs="?", default=None)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("results", help="a finished job's results")
    _add_client_arguments(p)
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_results)

    p = sub.add_parser("watch", help="stream a job's events until it settles")
    _add_client_arguments(p)
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_client_arguments(p)
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_cancel)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
