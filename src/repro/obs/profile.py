"""Phase profiling: attribute wall/CPU time to orchestration and engine phases.

Dependability evidence (:mod:`repro.obs.trace`) answers *what happened*;
this module answers *where the time went*.  A :class:`PhaseProfiler` is a
picklable, mergeable registry of :class:`PhaseStat` instruments — one per
named phase — each carrying call count, summed wall seconds, summed CPU
(process) seconds, and a log-linear histogram of per-call wall samples so
latency percentiles survive worker→parent merging exactly like
:class:`~repro.obs.telemetry.TelemetryRegistry` histograms do.

Phase taxonomy (see DESIGN.md §7a):

* orchestration phases (recorded by the controller when armed):
  ``sim.observe``, ``role.<RoleName>``, ``orchestrator.decide``,
  ``orchestrator.resilience``, ``sim.apply_action``, ``sim.step``,
  ``orchestrator.snapshot``;
* trace-I/O phase (recorded by an armed :class:`TraceRecorder`):
  ``trace.io``;
* engine phases (recorded by a profiling
  :class:`~repro.exec.engine.CampaignEngine`): ``engine.dispatch``,
  ``engine.pickle``, ``engine.worker_run``, ``engine.retry_wait``.

Arming is strictly opt-in: the controller and engine hold
``profiler = None`` by default and pay one ``is not None`` check per
phase site — a disarmed profiler records nothing, writes nothing, and
changes no byte of existing trace or summarize output.

Optional per-work-unit hotspot capture wraps a task in :mod:`cProfile`
and extracts the top-N functions by cumulative time into plain JSON
(:func:`capture_hotspots`) — no binary ``.prof`` file is needed to read
the results, and hotspot rows merge across workers by function identity.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time as wall_clock
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..jsonutil import dumps as strict_dumps
from .telemetry import Histogram

#: Version stamp of the profile JSON layout.
PROFILE_SCHEMA_VERSION = 1

#: File name suffix every per-unit profile file carries.
PROFILE_SUFFIX = ".profile.json"

#: Engine (dispatch-side) profile file name inside a profile dir.
ENGINE_PROFILE_NAME = "engine" + PROFILE_SUFFIX

#: Merged campaign profile file name inside a profile dir.
MERGED_PROFILE_NAME = "profile.json"

#: Default hotspot rows kept per unit and in the merged profile.
DEFAULT_HOTSPOT_TOP_N = 25


def unit_profile_path(profile_dir: "str | Path", key: str) -> Path:
    """Where a work unit's phase profile lives under ``profile_dir``."""
    from .trace import safe_trace_name, TRACE_SUFFIX

    name = safe_trace_name(key)[: -len(TRACE_SUFFIX)] + PROFILE_SUFFIX
    return Path(profile_dir) / "units" / name


class PhaseStat:
    """One phase's accumulated timing: count, wall, CPU, wall histogram."""

    __slots__ = ("count", "wall_s", "cpu_s", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.hist = Histogram()

    def add(self, wall_s: float, cpu_s: float = 0.0) -> None:
        self.count += 1
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.hist.record(max(wall_s, 0.0))

    def merge(self, other: "PhaseStat") -> None:
        self.count += other.count
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.hist.merge(other.hist)


class _PhaseTimer:
    """Context manager measuring one phase interval (wall + process CPU)."""

    __slots__ = ("_stat", "_wall0", "_cpu0")

    def __init__(self, stat: PhaseStat) -> None:
        self._stat = stat

    def __enter__(self) -> "_PhaseTimer":
        self._wall0 = wall_clock.perf_counter()
        self._cpu0 = wall_clock.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stat.add(
            wall_clock.perf_counter() - self._wall0,
            wall_clock.process_time() - self._cpu0,
        )


class PhaseProfiler:
    """Named phase instruments behind one picklable, mergeable registry."""

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseStat] = {}

    # ------------------------------------------------------------------
    def stat(self, name: str) -> PhaseStat:
        instrument = self.phases.get(name)
        if instrument is None:
            instrument = self.phases[name] = PhaseStat()
        return instrument

    def phase(self, name: str) -> _PhaseTimer:
        """``with profiler.phase("sim.step"): ...`` times the block."""
        return _PhaseTimer(self.stat(name))

    def record(self, name: str, wall_s: float, cpu_s: float = 0.0) -> None:
        """Attribute an externally measured interval to ``name``."""
        self.stat(name).add(wall_s, cpu_s)

    # ------------------------------------------------------------------
    # aggregation (worker -> parent, exactly like TelemetryRegistry)
    # ------------------------------------------------------------------
    def merge(self, other: "PhaseProfiler") -> "PhaseProfiler":
        for name, stat in other.phases.items():
            self.stat(name).merge(stat)
        return self

    @staticmethod
    def merged(profilers: Iterable["PhaseProfiler"]) -> "PhaseProfiler":
        out = PhaseProfiler()
        for profiler in profilers:
            out.merge(profiler)
        return out

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump, stable key order (sorted phase names)."""
        return {
            name: {
                "count": stat.count,
                "wall_s": stat.wall_s,
                "cpu_s": stat.cpu_s,
                "hist": {
                    "count": stat.hist.count,
                    "sum": stat.hist.total,
                    "min": stat.hist.min,
                    "max": stat.hist.max,
                    "zeros": stat.hist.zeros,
                    "buckets": {str(i): stat.hist.buckets[i] for i in sorted(stat.hist.buckets)},
                },
            }
            for name, stat in ((n, self.phases[n]) for n in sorted(self.phases))
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "PhaseProfiler":
        profiler = cls()
        for name, dump in (data or {}).items():
            stat = profiler.stat(name)
            stat.count = int(dump.get("count", 0))
            stat.wall_s = float(dump.get("wall_s", 0.0))
            stat.cpu_s = float(dump.get("cpu_s", 0.0))
            hist = dump.get("hist") or {}
            stat.hist.count = int(hist.get("count", 0))
            stat.hist.total = float(hist.get("sum", 0.0))
            stat.hist.min = hist.get("min")
            stat.hist.max = hist.get("max")
            stat.hist.zeros = int(hist.get("zeros", 0))
            stat.hist.buckets = {
                int(i): int(n) for i, n in (hist.get("buckets") or {}).items()
            }
        return profiler

    # ------------------------------------------------------------------
    def count_snapshot(self) -> Dict[str, int]:
        """Phase -> call count only: the deterministic section.

        For a deterministic campaign this dict is identical for
        ``jobs=1`` and ``jobs=N`` (wall/CPU obviously are not).
        """
        return {name: self.phases[name].count for name in sorted(self.phases)}

    def render_lines(self, timing: bool = True) -> List[str]:
        """Plain-text digest; ``timing=False`` keeps counts only."""
        if not self.phases:
            return ["no phases recorded"]
        lines: List[str] = []
        if timing:
            total_wall = sum(s.wall_s for s in self.phases.values())
            lines.append(
                f"  {'phase':<32} {'count':>8} {'wall s':>10} {'cpu s':>10} "
                f"{'share':>6} {'p50 ms':>9} {'p99 ms':>9}"
            )
            for name in sorted(self.phases):
                stat = self.phases[name]
                share = stat.wall_s / total_wall if total_wall > 0 else 0.0
                lines.append(
                    f"  {name:<32} {stat.count:>8} {stat.wall_s:>10.4f} "
                    f"{stat.cpu_s:>10.4f} {share:>5.1%} "
                    f"{stat.hist.percentile(50.0) * 1e3:>9.3f} "
                    f"{stat.hist.percentile(99.0) * 1e3:>9.3f}"
                )
        else:
            lines.append(f"  {'phase':<32} {'count':>8}")
            for name in sorted(self.phases):
                lines.append(f"  {name:<32} {self.phases[name].count:>8}")
        return lines


# ----------------------------------------------------------------------
# per-work-unit cProfile hotspot capture
# ----------------------------------------------------------------------
def capture_hotspots(
    fn: Callable[..., Any],
    *args: Any,
    top_n: int = DEFAULT_HOTSPOT_TOP_N,
) -> "Tuple[Any, List[Dict[str, Any]]]":
    """Run ``fn(*args)`` under :mod:`cProfile`; return (result, top rows).

    Rows are plain JSON dicts sorted by cumulative time —
    ``{"function", "calls", "tottime_s", "cumtime_s"}`` — so profile
    output never requires a binary ``.prof`` file to read.
    """
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args)
    stats = pstats.Stats(profile)
    rows: List[Dict[str, Any]] = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": f"{Path(filename).name}:{lineno}({func})",
                "calls": int(nc),
                "tottime_s": float(tt),
                "cumtime_s": float(ct),
            }
        )
    rows.sort(key=lambda r: (-r["cumtime_s"], r["function"]))
    return result, rows[: max(top_n, 0)]


def merge_hotspots(
    rows_lists: Iterable[List[Dict[str, Any]]],
    top_n: int = DEFAULT_HOTSPOT_TOP_N,
) -> List[Dict[str, Any]]:
    """Fold per-unit hotspot rows by function identity; keep the top N."""
    merged: Dict[str, Dict[str, Any]] = {}
    for rows in rows_lists:
        for row in rows or []:
            entry = merged.setdefault(
                row["function"],
                {"function": row["function"], "calls": 0, "tottime_s": 0.0, "cumtime_s": 0.0},
            )
            entry["calls"] += int(row.get("calls", 0))
            entry["tottime_s"] += float(row.get("tottime_s", 0.0))
            entry["cumtime_s"] += float(row.get("cumtime_s", 0.0))
    out = sorted(merged.values(), key=lambda r: (-r["cumtime_s"], r["function"]))
    return out[: max(top_n, 0)]


# ----------------------------------------------------------------------
# profile files (the worker -> parent hand-off)
# ----------------------------------------------------------------------
def write_profile(
    path: "str | Path",
    profiler: PhaseProfiler,
    *,
    key: str = "run",
    kind: str = "unit",
    hotspots: Optional[List[Dict[str, Any]]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one profile JSON file (unit, engine, or merged)."""
    payload: Dict[str, Any] = {
        "schema": PROFILE_SCHEMA_VERSION,
        "kind": kind,
        "key": key,
        "phases": profiler.snapshot(),
    }
    if hotspots is not None:
        payload["hotspots"] = hotspots
    if extra:
        payload.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(strict_dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_profile(path: "str | Path") -> Dict[str, Any]:
    """Parse one profile JSON file."""
    return json.loads(Path(path).read_text())


def merge_profile_dir(profile_dir: "str | Path") -> Path:
    """Merge a campaign profile directory into ``<dir>/profile.json``.

    Unit profiles under ``units/`` merge phase-by-phase into the
    ``phases`` section — deterministically, sorted by file name,
    independent of settle order or worker count, so the count sub-fields
    are byte-identical for ``jobs=1`` and ``jobs=N``.  The engine profile,
    whose phase set legitimately depends on the execution mode (a serial
    campaign never dispatches or pickles), lands in a separate
    ``engine_phases`` section.  Hotspot rows fold by function identity.
    """
    profile_dir = Path(profile_dir)
    merged = PhaseProfiler()
    hotspot_lists: List[List[Dict[str, Any]]] = []
    units = 0
    units_dir = profile_dir / "units"
    if units_dir.is_dir():
        for path in sorted(units_dir.glob("*" + PROFILE_SUFFIX)):
            data = load_profile(path)
            merged.merge(PhaseProfiler.from_snapshot(data.get("phases") or {}))
            if data.get("hotspots"):
                hotspot_lists.append(data["hotspots"])
            if data.get("kind") != "hotspots":
                units += 1
    extra: Dict[str, Any] = {"units": units}
    engine_path = profile_dir / ENGINE_PROFILE_NAME
    if engine_path.exists():
        extra["engine_phases"] = load_profile(engine_path).get("phases") or {}
    return write_profile(
        profile_dir / MERGED_PROFILE_NAME,
        merged,
        key="campaign",
        kind="merged",
        hotspots=merge_hotspots(hotspot_lists) if hotspot_lists else None,
        extra=extra,
    )


def render_profile(data: Dict[str, Any], timing: bool = True) -> str:
    """Human-readable digest of one profile JSON payload."""
    profiler = PhaseProfiler.from_snapshot(data.get("phases") or {})
    kind = data.get("kind", "unit")
    title = f"phase profile (schema v{data.get('schema', '?')}, {kind})"
    lines = [title, "=" * len(title)]
    if data.get("units") is not None:
        lines.append(f"units merged: {data['units']}")
    lines.append("phases:" if profiler.phases else "phases: none recorded")
    lines.extend(profiler.render_lines(timing=timing))
    engine_phases = data.get("engine_phases") or {}
    if engine_phases:
        lines.append("engine phases:")
        lines.extend(
            PhaseProfiler.from_snapshot(engine_phases).render_lines(timing=timing)
        )
    hotspots = data.get("hotspots") or []
    if hotspots and timing:
        lines.append("")
        lines.append("hotspots (by cumulative time):")
        lines.append(f"  {'function':<56} {'calls':>9} {'tottime s':>10} {'cumtime s':>10}")
        for row in hotspots:
            lines.append(
                f"  {row['function']:<56} {row['calls']:>9} "
                f"{row['tottime_s']:>10.4f} {row['cumtime_s']:>10.4f}"
            )
    return "\n".join(lines)
