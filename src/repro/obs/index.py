"""Cross-run trace index: the governed, queryable corpus of evidence.

Every traced run already certifies itself (``obs summarize``), but the
evidence is only inspectable one run/job directory at a time.  This
module scans run and service-job trace trees into one compact,
schema-versioned index so "the 10 worst-robustness runs across all
service jobs this week" is a query, not an archaeology session:

* :func:`refresh_index` — incremental scan keyed on file **size +
  mtime**: an unchanged trace file is never re-parsed, so refreshing a
  ten-thousand-job root touches only what moved;
* one **row per run trace** — scenario, seed, iterations, violation
  counts (total and by role), faults, recoveries, STL robustness,
  event/span counts, plus timing fields (run/role wall seconds) that
  are excluded from deterministic output;
* **robustness join** — search (falsify) evaluation runs record their
  robustness in the driver's search trace, not the run footer; the
  index joins ``candidate_evaluated`` events back onto run rows by
  trace id so falsify jobs rank alongside campaign jobs;
* :func:`verify_index` — the self-certification contract: every indexed
  row is recomputed from the raw trace file and compared field by
  field; drift (a tampered index *or* a tampered trace) is a non-zero
  exit from ``obs query --verify``, same as ``obs summarize``.

Row ordering and the deterministic field subset are stable across
``--jobs`` values: indexing a ``--jobs 4`` campaign yields byte-identical
query output to the serial run (pinned by test).
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..jsonutil import dumps as strict_dumps
from .trace import (
    JOB_FILE_NAME,
    TraceData,
    discover_traces,
    load_trace,
    recompute_counts,
    verify_search_trace,
    verify_trace,
)

#: Version stamp of the index file layout.
INDEX_SCHEMA_VERSION = 1

#: Index file name written at the scanned root.
INDEX_FILE_NAME = "obs-index.json"

#: Service-root job directory (see :mod:`repro.service.store`; name
#: duplicated so obs never imports the service package).
_JOBS_DIR_NAME = "jobs"

#: Row fields that are deterministic for a deterministic campaign —
#: identical for any ``--jobs``.  Query output is restricted to these
#: unless ``--timing`` asks for the rest.
DETERMINISTIC_FIELDS: Tuple[str, ...] = (
    "job",
    "trace_id",
    "scenario",
    "seed",
    "iterations",
    "violations",
    "violations_by_role",
    "faults",
    "recoveries",
    "rho",
    "events",
)

#: Timing / provenance fields (vary run to run; opt-in via ``--timing``).
TIMING_FIELDS: Tuple[str, ...] = ("wall_s", "role_s", "spans", "file")

#: Field aliases accepted by ``--where`` / ``--sort`` / ``--group-by``.
FIELD_ALIASES: Dict[str, str] = {
    "robustness": "rho",
    "stl_robustness": "rho",
    "scenario_name": "scenario",
}


class IndexError_(Exception):
    """An index that cannot be used (bad schema, unreadable file)."""


# ----------------------------------------------------------------------
# row construction
# ----------------------------------------------------------------------
def build_row(trace: TraceData, *, job: Optional[str] = None, file: str = "") -> Dict[str, Any]:
    """One index row recomputed from a parsed run trace.

    Counts come from raw event records (never the footer summary); the
    only footer-sourced fields are ``rho`` (recorded STL robustness,
    which needs the world-state frames the trace does not carry) and the
    span/event totals used for timing.
    """
    counts = recompute_counts(trace)
    by_role: Dict[str, int] = {}
    for event in trace.events:
        if event.get("event") == "violation_detected":
            role = event.get("role") or "unattributed"
            by_role[role] = by_role.get(role, 0) + 1
    meta = (trace.header or {}).get("meta") or {}
    wall_s = 0.0
    role_s = 0.0
    for span in trace.spans:
        kind = span.get("span_kind")
        duration = max(float(span.get("duration_s", 0.0)), 0.0)
        if kind == "run":
            wall_s = max(wall_s, duration)
        elif kind == "role":
            role_s += duration
    rho = (trace.footer or {}).get("stl_robustness")
    return {
        "job": job,
        "trace_id": trace.trace_id,
        "scenario": meta.get("scenario"),
        "seed": meta.get("seed"),
        "iterations": counts["iterations_completed"],
        "violations": sum(counts["violation_counts"].values()),
        "violations_by_role": {k: by_role[k] for k in sorted(by_role)},
        "faults": counts["fault_count"],
        "recoveries": counts["recovery_activations"],
        "rho": rho if isinstance(rho, (int, float)) else None,
        "events": len(trace.events),
        "wall_s": round(wall_s, 9),
        "role_s": round(role_s, 9),
        "spans": len(trace.spans),
        "file": file,
    }


def _search_robustness(trace: TraceData) -> Dict[str, float]:
    """``candidate key -> robustness`` from a search trace's events."""
    out: Dict[str, float] = {}
    for event in trace.events:
        if event.get("event") != "candidate_evaluated":
            continue
        payload = event.get("payload") or {}
        key = payload.get("key")
        rho = payload.get("robustness")
        if isinstance(key, str) and isinstance(rho, (int, float)):
            out[key] = float(rho)
    return out


def _file_entry(path: Path, rel: str, job: Optional[str]) -> Dict[str, Any]:
    """Parse one trace file into its index entry (kind-dispatched)."""
    return _trace_entry(load_trace(path), rel, job)


def _trace_entry(trace: TraceData, rel: str, job: Optional[str]) -> Dict[str, Any]:
    kind = trace.trace_kind
    if kind == "run":
        return {"kind": "run", "row": build_row(trace, job=job, file=rel)}
    if kind == "search":
        return {"kind": "search", "robustness": _search_robustness(trace)}
    return {"kind": kind or "other"}


# ----------------------------------------------------------------------
# source discovery
# ----------------------------------------------------------------------
def _is_service_root(path: Path) -> bool:
    jobs = path / _JOBS_DIR_NAME
    return jobs.is_dir() and any(
        (child / JOB_FILE_NAME).exists() for child in jobs.iterdir() if child.is_dir()
    )


def discover_sources(root: "str | Path") -> List[Tuple[str, Path, Optional[str]]]:
    """``(relative_name, path, job_id)`` for every trace file under root.

    A service root fans out across its ``jobs/jNNNNNN`` directories (job
    id attached to each file); a job directory or plain trace tree uses
    :func:`~repro.obs.trace.discover_traces` unchanged.
    """
    root = Path(root)
    if root.is_file():
        return [(root.name, root, None)]
    if not root.is_dir():
        raise FileNotFoundError(f"no trace file or directory at {root}")
    sources: List[Tuple[str, Path, Optional[str]]] = []
    if _is_service_root(root):
        for job_dir in sorted((root / _JOBS_DIR_NAME).iterdir()):
            if not (job_dir / JOB_FILE_NAME).exists():
                continue
            for path in discover_traces(job_dir):
                rel = f"{_JOBS_DIR_NAME}/{job_dir.name}/{path.relative_to(job_dir)}"
                sources.append((rel, path, job_dir.name))
        return sources
    job: Optional[str] = None
    if (root / JOB_FILE_NAME).exists():
        job = root.name
    for path in discover_traces(root):
        sources.append((str(path.relative_to(root)), path, job))
    return sources


# ----------------------------------------------------------------------
# the index proper
# ----------------------------------------------------------------------
def default_index_path(root: "str | Path") -> Path:
    root = Path(root)
    return (root if root.is_dir() else root.parent) / INDEX_FILE_NAME


def load_index(path: "str | Path") -> Dict[str, Any]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise IndexError_(f"cannot read index {path}: {exc}") from exc
    if data.get("schema") != INDEX_SCHEMA_VERSION:
        raise IndexError_(
            f"index schema {data.get('schema')!r} != {INDEX_SCHEMA_VERSION} "
            f"at {path} (delete it to rebuild)"
        )
    return data


def refresh_index(
    root: "str | Path",
    index_path: "str | Path | None" = None,
    *,
    write: bool = True,
) -> Dict[str, Any]:
    """Build or incrementally refresh the index for ``root``.

    Previously-indexed files whose ``(size, mtime_ns)`` are unchanged
    are reused without re-parsing; removed files drop out; new or
    changed files are parsed fresh.  The refreshed index is written back
    (atomically) unless ``write=False``.
    """
    root = Path(root)
    index_path = Path(index_path) if index_path is not None else default_index_path(root)
    previous: Dict[str, Any] = {}
    if index_path.exists():
        try:
            previous = load_index(index_path).get("files", {})
        except IndexError_:
            previous = {}  # unreadable or wrong schema: full rebuild
    files: Dict[str, Any] = {}
    parsed = 0
    for rel, path, job in discover_sources(root):
        try:
            stat = path.stat()
        except OSError:
            continue
        stamp = {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}
        old = previous.get(rel)
        if (
            old is not None
            and old.get("size") == stamp["size"]
            and old.get("mtime_ns") == stamp["mtime_ns"]
            and old.get("job") == job
        ):
            files[rel] = old
            continue
        entry = _file_entry(path, rel, job)
        entry.update(stamp)
        entry["job"] = job
        files[rel] = entry
        parsed += 1
    index = {
        "kind": "trace_index",
        "schema": INDEX_SCHEMA_VERSION,
        "files": files,
        "stats": {"files": len(files), "parsed": parsed},
    }
    if write:
        index_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = index_path.with_name(index_path.name + ".tmp")
        tmp.write_text(strict_dumps(index, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, index_path)
    return index


def _row_sort_key(row: Dict[str, Any]) -> Tuple:
    return (
        row.get("job") or "",
        row.get("scenario") or "",
        row.get("seed") if isinstance(row.get("seed"), (int, float)) else -1,
        row.get("trace_id") or "",
        row.get("file") or "",
    )


def index_rows(index: Dict[str, Any]) -> List[Dict[str, Any]]:
    """All run rows, robustness-joined and deterministically ordered."""
    robustness: Dict[str, float] = {}
    for entry in index.get("files", {}).values():
        if entry.get("kind") == "search":
            robustness.update(entry.get("robustness") or {})
    rows: List[Dict[str, Any]] = []
    for rel in sorted(index.get("files", {})):
        entry = index["files"][rel]
        if entry.get("kind") != "run":
            continue
        row = dict(entry["row"])
        if row.get("rho") is None and row.get("trace_id") in robustness:
            row["rho"] = robustness[row["trace_id"]]
        rows.append(row)
    rows.sort(key=_row_sort_key)
    return rows


def verify_index(
    root: "str | Path", index_path: "str | Path | None" = None
) -> Tuple[bool, List[str]]:
    """Recompute every indexed row from its raw trace file.

    Returns ``(ok, problems)``.  Any divergence — a row that does not
    match its recomputation, a trace whose records disagree with its own
    footer, a file the index lists but the tree lacks, a file the tree
    holds but the index missed — is a problem; callers exit non-zero,
    mirroring the ``obs summarize`` contract.
    """
    root = Path(root)
    # A missing root raises FileNotFoundError here, before the index
    # next to it is looked up: a mistyped path is not index drift.
    on_disk = {rel: (path, job) for rel, path, job in discover_sources(root)}
    index_path = Path(index_path) if index_path is not None else default_index_path(root)
    if not index_path.exists():
        return False, [f"no index at {index_path} (run `obs query` first)"]
    try:
        index = load_index(index_path)
    except IndexError_ as exc:
        return False, [str(exc)]
    indexed = index.get("files", {})
    problems: List[str] = []
    for rel in sorted(set(indexed) | set(on_disk)):
        if rel not in indexed:
            problems.append(f"{rel}: on disk but not indexed (index is stale)")
            continue
        if rel not in on_disk:
            problems.append(f"{rel}: indexed but missing from the tree")
            continue
        path, job = on_disk[rel]
        entry = indexed[rel]
        trace = load_trace(path)
        fresh = _trace_entry(trace, rel, job)
        for field in ("kind", "row", "robustness"):
            if entry.get(field) != fresh.get(field):
                problems.append(
                    f"{rel}: indexed {field} diverges from recomputation "
                    f"({entry.get(field)!r} != {fresh.get(field)!r})"
                )
        # The raw records must also agree with their own footer, as
        # ``obs summarize`` checks.
        check = {"run": verify_trace, "search": verify_search_trace}.get(trace.trace_kind)
        if check is not None:
            problems.extend(f"{rel}: {problem}" for problem in check(trace)[1])
    return not problems, problems


# ----------------------------------------------------------------------
# query: filters, aggregation, formatting
# ----------------------------------------------------------------------
_WHERE = re.compile(
    r"^\s*(?P<field>[A-Za-z_][A-Za-z0-9_.]*)\s*"
    r"(?P<op><=|>=|!=|==|=|<|>)\s*(?P<value>.*?)\s*$"
)

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def parse_where(expr: str) -> Tuple[str, str, str]:
    """Parse ``field<op>value`` (e.g. ``scenario=pedestrian``, ``rho<0``)."""
    match = _WHERE.match(expr)
    if match is None:
        raise ValueError(
            f"bad --where {expr!r} (expected FIELD{{=,!=,<,<=,>,>=}}VALUE)"
        )
    field = match.group("field")
    field = FIELD_ALIASES.get(field, field)
    return field, match.group("op"), match.group("value")


def row_field(row: Dict[str, Any], field: str) -> Any:
    """Resolve a (possibly dotted) field against a row."""
    field = FIELD_ALIASES.get(field, field)
    value: Any = row
    for part in field.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def _match(row: Dict[str, Any], clause: Tuple[str, str, str]) -> bool:
    field, op, raw = clause
    value = row_field(row, field)
    compare = _OPS[op]
    try:
        wanted: Any = float(raw)
        have = float(value) if value is not None else None
    except (TypeError, ValueError):
        wanted = raw
        have = "" if value is None else str(value)
    if have is None:
        # Ordered comparison against a missing number is undefined —
        # the row simply does not match (equality against "" above
        # still lets `--where rho=` find null rows as strings).
        return False
    try:
        return compare(have, wanted)
    except TypeError:
        return False


def filter_rows(
    rows: Iterable[Dict[str, Any]], clauses: Sequence[Tuple[str, str, str]]
) -> List[Dict[str, Any]]:
    return [row for row in rows if all(_match(row, c) for c in clauses)]


def group_rows(rows: Sequence[Dict[str, Any]], by: str) -> List[Dict[str, Any]]:
    """Aggregate rows by a field: counts, sums, and robustness envelope."""
    by = FIELD_ALIASES.get(by, by)
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for row in rows:
        key = row_field(row, by)
        groups.setdefault("" if key is None else key, []).append(row)
    out: List[Dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: (str(type(k).__name__), str(k))):
        members = groups[key]
        rhos = [r["rho"] for r in members if isinstance(r.get("rho"), (int, float))]
        out.append(
            {
                by: key,
                "runs": len(members),
                "iterations": sum(r.get("iterations") or 0 for r in members),
                "violations": sum(r.get("violations") or 0 for r in members),
                "faults": sum(r.get("faults") or 0 for r in members),
                "recoveries": sum(r.get("recoveries") or 0 for r in members),
                "rho_min": round(min(rhos), 9) if rhos else None,
                "rho_mean": round(sum(rhos) / len(rhos), 9) if rhos else None,
            }
        )
    return out


def sort_rows(rows: List[Dict[str, Any]], spec: Optional[str]) -> List[Dict[str, Any]]:
    """Stable sort by ``spec`` (``-field`` descends); None keeps the
    deterministic default order."""
    if not spec:
        return rows
    descending = spec.startswith("-")
    field = spec[1:] if descending else spec

    def key(row: Dict[str, Any]) -> Tuple[int, Any]:
        value = row_field(row, field)
        if isinstance(value, (int, float)):
            return (0, value)
        return (1, "" if value is None else str(value))

    return sorted(rows, key=key, reverse=descending)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:+.6f}" if abs(value) < 1000 else f"{value:.3f}"
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in sorted(value.items())) or "-"
    return str(value)


def format_rows(
    rows: Sequence[Dict[str, Any]],
    fmt: str = "table",
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render rows as an aligned table, JSON, or CSV."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else list(DETERMINISTIC_FIELDS)
    if fmt == "json":
        return strict_dumps(
            [{c: row.get(c) for c in columns} for row in rows],
            indent=2,
            sort_keys=True,
        )
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
        return buffer.getvalue().rstrip("\n")
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r} (table, json, csv)")
    cells = [[_cell(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(str(columns[i])), *(len(r[i]) for r in cells)) if cells else len(str(columns[i]))
        for i in range(len(columns))
    ]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths).rstrip())
    for row_cells in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)).rstrip())
    if not cells:
        lines.append("(no rows)")
    return "\n".join(lines)
