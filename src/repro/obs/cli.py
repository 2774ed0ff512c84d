"""The observability CLI:
``python -m repro.obs {summarize,tail,diff,query,top}``.

``summarize``
    Recompute violation/fault/recovery/iteration counts from a trace's
    *records* (its event records and each tick record's milestones, never
    the recorded summary), cross-check them against the metrics summary
    each run recorded in its footer, and report per-role latency
    percentiles recomputed from the tick records' role latencies.
    The count section is deterministic for a deterministic campaign:
    summarizing a ``--jobs 4`` trace directory with ``--no-timing``
    yields byte-identical output to the serial run.
``tail``
    Human-readable record stream (last N lines), for eyeballing what a
    run actually did: one line per event record and one per tick, the
    tick's line after the events written during it (``--event
    iteration`` keeps only tick lines).  ``--follow`` keeps polling for
    new records (for watching a live campaign); Ctrl-C exits cleanly.
``diff``
    Compare two traces or campaign trace directories: count deltas and
    per-role latency deltas — serial vs parallel, before vs after a
    change.  Exits 0 when counts are identical, 2 on drift, 1 when A
    or B names no trace.
``query``
    The cross-run trace query engine: scan a trace tree (or a whole
    service root) into a schema-versioned index — one row per run with
    scenario, seed, iterations, violations by role, faults, recoveries
    and STL robustness — then filter (``--where rho<0``), group
    (``--group-by scenario``) and format (``table|json|csv``).
    ``--verify`` recomputes every indexed row from the raw traces and
    exits 2 on drift, same contract as ``summarize``.
``top``
    Live fleet dashboard over a running service (``--root``/``--url``:
    queue, slots, per-job progress and throughput, rolling violation
    counts) or over a trace directory in batch mode (``--dir``).

``summarize``, ``tail``, ``diff`` and ``query`` given a path that names
no trace file or directory print an error and exit 1; ``tail --follow``
waits for the path to appear instead.  ``summarize``, ``tail`` and
``diff`` also exit 1 on a directory that holds no trace.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..jsonutil import dumps as strict_dumps
from .telemetry import TelemetryRegistry
from .trace import (
    TRACE_SCHEMA_VERSION,
    TraceData,
    aggregate_counts,
    aggregate_search_counts,
    discover_traces,
    load_trace,
    verify_search_trace,
    verify_trace,
)


# ----------------------------------------------------------------------
# shared aggregation
# ----------------------------------------------------------------------
def latency_registry(traces: Sequence[TraceData]) -> TelemetryRegistry:
    """Per-role latency histograms recomputed from each tick's roles (and
    a v1 trace's role spans)."""
    registry = TelemetryRegistry()
    for trace in traces:
        for tick in trace.ticks:
            for name, _verdict, latency in tick["roles"] or ():
                registry.histogram(f"role_latency_s.{name}").record(max(float(latency), 0.0))
        for span in trace.spans:
            if span.get("span_kind") == "role":
                registry.histogram(f"role_latency_s.{span['name']}").record(
                    max(float(span.get("duration_s", 0.0)), 0.0)
                )
    return registry


def summarize_path(path: "str | Path") -> Dict[str, Any]:
    """Everything ``summarize``/``diff`` need, as one JSON-friendly dict.

    Raises:
        FileNotFoundError: when ``path`` holds no trace.
    """
    path = Path(path)
    found = discover_traces(path)
    if not found:
        raise FileNotFoundError(f"no trace under {path}")
    all_traces = [load_trace(p) for p in found]
    runs = sorted(
        (t for t in all_traces if t.trace_kind == "run"), key=lambda t: t.trace_id
    )
    searches = sorted(
        (t for t in all_traces if t.trace_kind == "search"),
        key=lambda t: t.trace_id,
    )
    counts = aggregate_counts(runs)
    verified = [verify_trace(t) for t in runs]
    search_verified = [verify_search_trace(t) for t in searches]
    mismatches = [
        f"{t.trace_id}: {problem}"
        for t, (ok, problems) in zip(runs, verified)
        for problem in problems
    ] + [
        f"{t.trace_id}: {problem}"
        for t, (ok, problems) in zip(searches, search_verified)
        for problem in problems
    ]
    latencies = latency_registry(runs)
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "counts": counts,
        "search": aggregate_search_counts(searches) if searches else None,
        "consistent_traces": sum(1 for ok, _ in verified if ok)
        + sum(1 for ok, _ in search_verified if ok),
        "checked_traces": len(runs) + len(searches),
        "mismatches": mismatches,
        "corrupt_lines": sum(t.corrupt_lines for t in all_traces),
        "latency": {
            name: latencies.histograms[name].summary()
            for name in sorted(latencies.histograms)
        },
    }


def _format_violations(violation_counts: Dict[str, int]) -> str:
    if not violation_counts:
        return "none"
    parts = ", ".join(f"{k}={v}" for k, v in sorted(violation_counts.items()))
    return f"{parts} (total {sum(violation_counts.values())})"


def render_summary(summary: Dict[str, Any], timing: bool = True) -> str:
    counts = summary["counts"]
    title = f"trace summary (schema v{summary['schema']})"
    lines = [title, "=" * len(title)]
    lines.append(f"runs        : {counts['runs']}")
    lines.append(f"iterations  : {counts['iterations_completed']}")
    lines.append(f"violations  : {_format_violations(counts['violation_counts'])}")
    lines.append(f"faults      : {counts['fault_count']}")
    lines.append(f"recoveries  : {counts['recovery_activations']}")
    events = counts.get("events", {})
    resilience_parts = [
        f"{label}={events[name]}"
        for name, label in (
            ("degraded_mode_entered", "degraded_entered"),
            ("degraded_mode_exited", "degraded_exited"),
            ("action_held", "holds"),
            ("deadline_exceeded", "deadline_overruns"),
            ("role_retried", "retries"),
        )
        if events.get(name)
    ]
    if resilience_parts:
        lines.append(f"resilience  : {', '.join(resilience_parts)}")
    search = summary.get("search")
    if search:
        lines.append(
            f"search      : candidates={search['candidates']} "
            f"evaluations={search['evaluations']} "
            f"counterexamples={search['counterexamples']} "
            f"minimization_steps={search['minimization_steps']} "
            f"({search['traces']} search trace(s))"
        )
    checked = summary["checked_traces"]
    if checked:
        lines.append(
            f"consistency : {summary['consistent_traces']}/{checked} traces match "
            "their recorded metrics summaries"
        )
        for mismatch in summary["mismatches"]:
            lines.append(f"  MISMATCH {mismatch}")
    if summary["corrupt_lines"]:
        lines.append(f"corrupt     : {summary['corrupt_lines']} unparseable line(s) skipped")
    if counts["events"]:
        lines.append("events:")
        for name in sorted(counts["events"]):
            lines.append(f"  {name:<28} {counts['events'][name]}")
    if timing and summary["latency"]:
        lines.append("")
        lines.append("latency (s, recomputed from records):")
        lines.append(
            f"  {'name':<36} {'count':>6} {'mean':>9} {'p50':>9} "
            f"{'p90':>9} {'p99':>9} {'max':>9}"
        )
        for name, s in summary["latency"].items():
            lines.append(
                f"  {name:<36} {int(s['count']):>6} {s['mean']:>9.6f} {s['p50']:>9.6f} "
                f"{s['p90']:>9.6f} {s['p99']:>9.6f} {s['max']:>9.6f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize_path(args.path)
    if args.json:
        print(strict_dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary, timing=not args.no_timing))
    return 1 if summary["mismatches"] else 0


def _format_record(record: Dict[str, Any], trace_id: Optional[str] = None) -> str:
    """One ``tail`` line: an event, or a tick with its end sim time (or
    ``unfinished``), its roles as ``name:verdict:latency`` in execution
    order (``none`` if it stopped before its state update) and its
    action and source."""
    prefix = f"{trace_id} " if trace_id else ""
    if record["kind"] == "iteration":
        start, end = record["time"]
        roles = record["roles"]
        if roles is None:
            listed = "none"
        else:
            listed = ",".join(f"{name}:{verdict}:{latency}s" for name, verdict, latency in roles)
        line = (
            f"{prefix}[it {record['iteration']} t={start:.1f}s] iteration  "
            f"end={'unfinished' if end is None else f'{end:.1f}s'} roles={listed or '-'}"
        )
        if record["action"] is not None:
            action, source = record["action"]
            line += f" action={action} source={source}"
        return line
    role = f" role={record['role']}" if record.get("role") else ""
    payload = record.get("payload") or {}
    extras = " ".join(
        f"{k}={payload[k]}" for k in sorted(payload) if not isinstance(payload[k], dict)
    )
    return (
        f"{prefix}[it {record.get('iteration', 0)} t={record.get('time', 0.0):.1f}s] "
        f"{record.get('event', '?')}{role}"
        + (f"  {extras}" if extras else "")
    )


def _discover_safely(path: Path) -> List[Path]:
    """discover_traces, but tolerant of a path that does not exist *yet*
    (``tail --follow`` may start before the campaign creates it)."""
    try:
        return discover_traces(path)
    except OSError:
        return []


class _FollowedTrace:
    """One trace file read incrementally by the parser :func:`load_trace`
    uses.

    Reads are offset-based and byte-oriented: only complete lines are
    consumed, so a writer caught mid-line just means the record shows up
    on the next poll.  The parser keeps its state across reads but not
    the records a read has returned.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.offset = 0
        self.data = TraceData(path)

    @property
    def trace_id(self) -> str:
        return self.data.trace_id

    def read(self) -> List[Dict[str, Any]]:
        """The event and tick records completed since the last read, in
        file order."""
        try:
            with self.path.open("rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
        except OSError:
            return []
        complete, sep, _partial = chunk.rpartition(b"\n")
        if not sep:
            return []
        self.offset += len(complete) + len(sep)
        records = []
        for raw in complete.splitlines():
            record = self.data.feed(raw.decode("utf-8", "replace"))
            if record is not None and record["kind"] in ("event", "iteration"):
                records.append(record)
        data = self.data
        data.events, data.ticks, data.spans = [], [], []
        return records


def cmd_tail(args: argparse.Namespace) -> int:
    """Print the last ``-n`` lines of the traces under the path; with
    ``--follow``, then poll for new records until Ctrl-C.

    Traces are read in trace id order, then as they grow; new trace
    files (a campaign spawning more units) are picked up on every cycle.
    A path that does not exist yet is fine for ``--follow``: it waits.
    The poll interval is clamped to 100 ms — like the progress reporter,
    following must never become the load.
    """
    path = Path(args.path)
    discover = _discover_safely if args.follow else discover_traces
    followed: Dict[Path, _FollowedTrace] = {}
    with_records: set = set()

    def poll() -> List[Tuple[_FollowedTrace, List[Dict[str, Any]]]]:
        batches = []
        for p in discover(path):
            trace = followed.get(p)
            if trace is None:
                trace = followed[p] = _FollowedTrace(p)
            records = trace.read()
            if records:
                with_records.add(p)
                batches.append((trace, records))
        return batches

    def rows(batches: List[Tuple[_FollowedTrace, List[Dict[str, Any]]]]) -> List[str]:
        label = len(with_records) > 1
        return [
            _format_record(record, trace.trace_id if label else None)
            for trace, records in batches
            for record in records
            if not args.event
            or args.event == ("iteration" if record["kind"] == "iteration" else record.get("event"))
        ]

    first = rows(sorted(poll(), key=lambda batch: batch[0].trace_id))
    if not with_records and not args.follow:
        print("no traces found", file=sys.stderr)
        return 1
    for row in first[-args.lines:] if args.lines else []:
        print(row, flush=True)
    if not args.follow:
        return 0
    interval = max(args.interval, 0.1)
    try:
        while True:
            time.sleep(interval)
            for row in rows(poll()):
                print(row, flush=True)
    except KeyboardInterrupt:
        return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .index import (
        DETERMINISTIC_FIELDS,
        GROUP_FIELDS,
        TIMING_FIELDS,
        check_field,
        filter_rows,
        format_rows,
        group_rows,
        index_rows,
        parse_where,
        refresh_index,
        sort_rows,
        verify_index,
    )

    if args.verify:
        ok, problems = verify_index(args.path, args.index)
        for problem in problems:
            print(f"DRIFT {problem}", file=sys.stderr)
        if ok:
            print("index verified: every row matches its raw trace")
            return 0
        print(f"index verification FAILED ({len(problems)} problem(s))")
        return 2

    try:
        clauses = [parse_where(expr) for expr in args.where]
        if args.group_by:
            check_field(args.group_by)
        if args.sort:
            check_field(args.sort.lstrip("-"), GROUP_FIELDS if args.group_by else ())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    index = refresh_index(args.path, args.index, write=not args.no_save)
    rows = filter_rows(index_rows(index), clauses)
    columns: Optional[List[str]] = None
    if args.group_by:
        rows = group_rows(rows, args.group_by)
    else:
        # The default column set excludes timing/provenance fields, so
        # query output over a deterministic campaign is byte-identical
        # whatever --jobs produced the traces; --timing opts back in.
        columns = list(DETERMINISTIC_FIELDS)
        if args.timing:
            columns += list(TIMING_FIELDS)
        rows = [{c: row.get(c) for c in columns} for row in rows]
    rows = sort_rows(rows, args.sort)
    if args.limit is not None:
        rows = rows[: args.limit]
    print(format_rows(rows, args.format, columns))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .top import TopError, run_top

    if not (args.url or args.root or args.dir):
        print("top: need --url or --root (service) or --dir (batch)", file=sys.stderr)
        return 1
    iterations = 1 if args.once else args.iterations
    try:
        return run_top(
            url=args.url,
            root=args.root,
            trace_dir=args.dir,
            interval_s=args.interval,
            iterations=iterations,
        )
    except TopError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


def _diff_number(label: str, a: Any, b: Any) -> str:
    delta = (b or 0) - (a or 0)
    sign = "+" if delta > 0 else ""
    return f"{label:<28} {a!s:>10} -> {b!s:>10}  ({sign}{delta})"


def cmd_diff(args: argparse.Namespace) -> int:
    left = summarize_path(args.a)
    right = summarize_path(args.b)
    lc, rc = left["counts"], right["counts"]
    lines = [f"trace diff: {args.a} -> {args.b}", ""]
    lines.append(_diff_number("runs", lc["runs"], rc["runs"]))
    lines.append(
        _diff_number(
            "iterations", lc["iterations_completed"], rc["iterations_completed"]
        )
    )
    categories = sorted(set(lc["violation_counts"]) | set(rc["violation_counts"]))
    for category in categories:
        lines.append(
            _diff_number(
                f"violations.{category}",
                lc["violation_counts"].get(category, 0),
                rc["violation_counts"].get(category, 0),
            )
        )
    lines.append(_diff_number("faults", lc["fault_count"], rc["fault_count"]))
    lines.append(
        _diff_number(
            "recoveries", lc["recovery_activations"], rc["recovery_activations"]
        )
    )
    identical_counts = (
        lc["violation_counts"] == rc["violation_counts"]
        and lc["iterations_completed"] == rc["iterations_completed"]
        and lc["fault_count"] == rc["fault_count"]
        and lc["recovery_activations"] == rc["recovery_activations"]
    )
    lines.append("")
    lines.append(
        "counts identical" if identical_counts else "counts DIFFER"
    )
    if not args.no_timing:
        names = sorted(set(left["latency"]) | set(right["latency"]))
        if names:
            lines.append("")
            lines.append("latency p50 (s):")
            for name in names:
                a = left["latency"].get(name, {}).get("p50", 0.0)
                b = right["latency"].get(name, {}).get("p50", 0.0)
                lines.append(f"  {name:<36} {a:>9.6f} -> {b:>9.6f}  ({b - a:+.6f})")
    print("\n".join(lines))
    return 0 if identical_counts else 2


# ----------------------------------------------------------------------
def _at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _seconds(text: str) -> float:
    """argparse type: a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="recompute and cross-check trace counts")
    p.add_argument("path", type=Path, help="trace file or campaign trace directory")
    p.add_argument(
        "--no-timing", action="store_true",
        help="omit latency sections (deterministic, byte-comparable output)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("tail", help="human-readable event and tick stream")
    p.add_argument("path", type=Path)
    p.add_argument("-n", "--lines", type=_at_least(0), default=40, help="lines to show")
    p.add_argument(
        "--event", default=None,
        help="only this event kind ('iteration': only tick lines)",
    )
    p.add_argument(
        "-f", "--follow", action="store_true",
        help="keep polling for new records until Ctrl-C (exits 0)",
    )
    p.add_argument(
        "--interval", type=_seconds, default=0.5,
        help="poll interval in seconds for --follow (> 0; clamped to >= 0.1)",
    )
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser(
        "diff", help="compare two traces or trace directories",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  counts identical between A and B (clean)\n"
            "  1  A or B names no trace file or directory\n"
            "  2  count drift — iterations, violations, faults, or recoveries "
            "differ\n"
            "Timing deltas are informational only and never affect the exit "
            "code;\n--no-timing omits them for byte-comparable output."
        ),
    )
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "query", help="query the cross-run trace index",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  query trace-out --where scenario=pedestrian --where 'rho<0'\n"
            "  query service-root --group-by scenario --format csv\n"
            "  query service-root --sort rho --limit 10   # worst robustness\n"
            "  query trace-out --verify                   # exits 2 on drift"
        ),
    )
    p.add_argument(
        "path", type=Path,
        help="trace file/dir, a job dir, or a whole service root",
    )
    p.add_argument(
        "--where", action="append", default=[], metavar="FIELD<OP>VALUE",
        help="row filter (=, !=, <, <=, >, >=); repeatable, ANDed",
    )
    p.add_argument(
        "--group-by", default=None, metavar="FIELD",
        help="aggregate rows by a field (runs, violations, rho_min, ...)",
    )
    p.add_argument(
        "--sort", default=None, metavar="[-]FIELD",
        help="sort rows by a field; leading '-' descends",
    )
    p.add_argument("--limit", type=_at_least(0), default=None, help="keep the first N rows")
    p.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p.add_argument(
        "--timing", action="store_true",
        help="include wall-time columns (non-deterministic across runs)",
    )
    p.add_argument(
        "--index", type=Path, default=None,
        help="index file location (default: <path>/obs-index.json)",
    )
    p.add_argument(
        "--no-save", action="store_true",
        help="do not write the refreshed index back to disk",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="recompute every indexed row from raw traces; exit 2 on drift",
    )
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser(
        "top", help="live dashboard over a service (or trace dir in batch mode)"
    )
    p.add_argument("--url", default=None, help="service URL")
    p.add_argument(
        "--root", type=Path, default=None,
        help="service root; reads the URL from <root>/service.json",
    )
    p.add_argument(
        "--dir", type=Path, default=None,
        help="batch mode: dashboard over a trace directory, no server",
    )
    p.add_argument(
        "--interval", type=_seconds, default=2.0, help="refresh interval seconds (> 0)"
    )
    p.add_argument("--once", action="store_true", help="print one frame and exit")
    p.add_argument(
        "--iterations", type=_at_least(1), default=None,
        help="stop after N >= 1 refreshes (default: until Ctrl-C)",
    )
    p.set_defaults(fn=cmd_top)
    return parser


def _join_descending_sort(argv: Sequence[str]) -> List[str]:
    """``--sort -FIELD`` as ``--sort=-FIELD``: argparse would read the
    ``-FIELD`` that descends as an option of its own."""
    joined: List[str] = []
    for arg in argv:
        if joined and joined[-1] == "--sort" and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] = f"--sort={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_descending_sort(argv))
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        # Raised by trace/source discovery for a path that does not exist.
        print(f"obs: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; exit quietly
        # (replace stdout with devnull so interpreter teardown stays silent).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
