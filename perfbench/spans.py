"""Outside-in tracing: spans and counts around each layer's public callables.

The benchmark never edits ``src/``.  :meth:`Tracer.install` replaces
public functions and methods with thin wrappers and
:meth:`Tracer.uninstall` puts the originals back.  A *span* wrapper
records ``[name, start, end, parent, group]`` in memory; a *count*
wrapper only increments a per-thread counter (used for the geometry and
route helpers, which run ~100 times per tick and would otherwise
dominate the trace's own cost).  All spans of one run, evaluation or
job share a group: ``scenario:seed``, the candidate key, or the job id.

Placement covers every place a name is looked up: a function imported by
name into several modules (``footprint_gap``, ``predict_min_separation``,
``build_controller``, ``safety_robustness``) is wrapped in each of them.

A span's *self time* is its duration minus the time its child spans
cover; self times therefore partition the traced time among spans.  The
entry-point spans (:data:`ENTRY_SPANS`) name no layer, so their self time
counts as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The six roles of the paper's use-case stack, by the campaign's names.
ROLE_NAMES = (
    "Generator",
    "SafetyMonitor",
    "SecurityAssessor",
    "FaultInjector",
    "PerformanceOracle",
    "RecoveryPlanner",
)

#: Module-level functions: (module, attribute, span name or ``count:`` name).
_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.campaign", "execute_suite", "experiments.execute_suite"),
    ("repro.experiments.campaign", "run_once", "experiments.run_once"),
    ("repro.experiments.campaign", "build_controller", "experiments.build_controller"),
    ("repro.search.objective", "build_controller", "experiments.build_controller"),
    ("repro.search.objective", "evaluate_spec", "search.evaluate_spec"),
    ("repro.analysis.trace_checks", "safety_robustness", "stl.safety_robustness"),
    ("repro.search.objective", "safety_robustness", "stl.safety_robustness"),
    ("repro.env.sim_interface", "footprint_gap", "count:geom.footprint_gap.env"),
    ("repro.roles.geometry_checks", "footprint_gap", "count:geom.footprint_gap.roles"),
    ("repro.sim.world", "footprint_gap", "count:geom.footprint_gap.sim"),
    ("repro.roles.geometry_checks", "predict_min_separation",
     "count:roles.predict_min_separation"),
    ("repro.roles.safety_monitor", "predict_min_separation",
     "count:roles.predict_min_separation"),
    ("repro.roles.recovery_planner", "predict_min_separation",
     "count:roles.predict_min_separation"),
)

#: Methods: (module, class, method, span name or ``count:`` name).
#: ``roles.*`` spans take the role instance's name at call time.
_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.exec.engine", "CampaignEngine", "run", "exec.engine"),
    ("repro.exec.journal", "RunJournal", "append_task", "exec.journal.append"),
    ("repro.core.orchestrator", "OrchestrationController", "run", "core.run"),
    ("repro.env.sim_interface", "IntersectionSimInterface", "observe", "env.observe"),
    ("repro.env.sim_interface", "IntersectionSimInterface", "apply_action",
     "env.apply_action"),
    ("repro.env.sim_interface", "IntersectionSimInterface", "advance", "env.advance"),
    ("repro.roles.generator", "LLMGeneratorRole", "execute", "roles.*"),
    ("repro.roles.safety_monitor", "GeometricSafetyMonitor", "execute", "roles.*"),
    ("repro.roles.security_assessor", "ScriptedSecurityAssessor", "execute", "roles.*"),
    ("repro.roles.fault_injector", "FaultInjectorRole", "execute", "roles.*"),
    ("repro.roles.performance_oracle", "IntersectionPerformanceOracle", "execute",
     "roles.*"),
    ("repro.roles.recovery_planner", "EmergencyBrakeRecovery", "execute", "roles.*"),
    ("repro.llm.planner", "LLMPlanner", "plan", "llm.plan"),
    ("repro.sim.intersection", "Route", "point_at", "count:sim.route_point_at"),
    ("repro.obs.trace", "TraceWriter", "write", "obs.trace.write"),
    ("repro.search.driver", "SearchDriver", "run", "search.driver"),
    # The engine's progress hook writes job events and state through the
    # store; without these spans that I/O would count as engine self time.
    ("repro.service.store", "JobStore", "append_event", "service.store"),
    ("repro.service.store", "JobStore", "save", "service.store"),
)


def _run_group(args: tuple, kwargs: dict) -> str:
    """``run_once(scenario_type, seed, ...)`` -> ``"<scenario>:<seed>"``."""
    return f"{args[0].value}:{args[1]}"


def _suite_group(args: tuple, kwargs: dict) -> Optional[str]:
    """A service job's suite journals into its job directory: use the id."""
    journal = kwargs.get("journal")
    return Path(journal).parent.name if journal is not None else None


#: Entry-point spans: they mark where the program is called and open
#: span groups, but name no layer.  Their self time is program work that
#: no layer span covers, so it does not count as attributed.
ENTRY_SPANS = frozenset({
    "experiments.execute_suite",
    "experiments.run_once",
    "search.driver",
    "search.evaluate_spec",
})

#: Spans that open a new span group (one run, evaluation or job).
_GROUPS: Dict[str, Callable[[tuple, dict], Optional[str]]] = {
    "experiments.run_once": _run_group,
    "search.evaluate_spec": lambda args, kwargs: args[0] if args else kwargs["key"],
    "experiments.execute_suite": _suite_group,
}


class Tracer:
    """In-memory spans and per-thread counts; written out after the run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.engine_totals: Dict[str, int] = {
            "units": 0, "cached": 0, "retries": 0, "failed": 0,
        }
        self._local = threading.local()
        self._counters: List[Dict[str, int]] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.group = None
            local.counts = {}
            with self._lock:
                self._counters.append(local.counts)
        return local

    def span(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        clock = time.perf_counter
        state = self._state
        group_of = _GROUPS.get(name)
        dynamic = name == "roles.*"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = state()
            stack = local.stack
            outer_group = local.group
            if group_of is not None and outer_group is None:
                local.group = group_of(args, kwargs)
            label = "roles." + args[0].name if dynamic else name
            record = [label, clock(), 0.0, stack[-1] if stack else None, local.group]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                local.group = outer_group

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts = state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _engine_run(self, fn: Callable) -> Callable:
        """``CampaignEngine.run`` span that also tallies the engine's report."""
        traced = self.span("exec.engine", fn)
        totals = self.engine_totals

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            report = traced(*args, **kwargs)
            summary = report.summary
            with self._lock:
                totals["units"] += summary.executed
                totals["cached"] += summary.cached
                totals["retries"] += summary.retries
                totals["failed"] += summary.errors
            return report

        return wrapper

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        with self._lock:
            for counts in self._counters:
                for name, value in counts.items():
                    merged[name] = merged.get(name, 0) + value
        return merged

    # -- installation ---------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name.startswith("count:"):
            return self.count(name[len("count:"):], fn)
        if name == "exec.engine":
            return self._engine_run(fn)
        return self.span(name, fn)

    def install(self) -> "Tracer":
        """Wrap every layer boundary; :meth:`uninstall` restores them."""
        # Import everything first: a module first imported after a patch
        # would bind the wrapper by name, and be wrapped (counted) twice.
        modules = {name: importlib.import_module(name) for name, *_ in _FUNCTIONS + _METHODS}
        for module_name, attribute, name in _FUNCTIONS:
            module = modules[module_name]
            original = getattr(module, attribute)
            self._undo.append((module, attribute, original))
            setattr(module, attribute, self._wrap(name, original))
        for module_name, class_name, method, name in _METHODS:
            cls = getattr(modules[module_name], class_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Spans as plain rows (parent by index) plus counts and totals."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, start, end, index.get(id(parent), -1), group]
            for name, start, end, parent, group in self.spans
        ]
        return {
            "spans": rows,
            "counts": self.counts(),
            "engine": dict(self.engine_totals),
        }

    def write(self, path: "str | Path") -> None:
        Path(path).write_text(json.dumps(self.dump()))


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def attributed_seconds(dump: Dict[str, Any], grouped_only: bool = False) -> float:
    """Self time inside layer spans, entry points excluded.

    Divided by the wall time it was traced over, this is
    ``bench.attributed_frac``: work done directly in an entry point, in an
    unwrapped function it calls, or outside every span lowers it.  With
    ``grouped_only``, only spans inside a run, evaluation or job count.
    """
    spans = dump["spans"]
    return sum(
        own
        for (name, *_, group), own in zip(spans, self_times(spans))
        if name not in ENTRY_SPANS and (group is not None or not grouped_only)
    )


def layer_metrics(dump: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer self times, work counts and tick latencies from a dump."""
    spans = dump["spans"]
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    # One tick runs from the start of observe to the end of advance; the
    # two spans are siblings under the same core.run span.
    ticks: List[float] = []
    opened: Dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if name == "env.observe":
            opened[parent] = start
        elif name == "env.advance" and parent in opened:
            ticks.append(end - opened.pop(parent))

    counts = dump["counts"]
    tick_count = calls.get("env.advance", 0)

    def per_tick(name: str) -> float:
        return counts.get(name, 0) / tick_count if tick_count else 0.0

    def busy(name: str) -> float:
        return self_time.get(name, 0.0)

    metrics: Dict[str, float] = {
        "experiments.build_controller.busy_s": busy("experiments.build_controller"),
        "experiments.run_once.self_s": busy("experiments.run_once"),
        "experiments.execute_suite.self_s": busy("experiments.execute_suite"),
        "exec.engine.self_s": busy("exec.engine"),
        "exec.units": dump["engine"].get("units", 0),
        "exec.cached": dump["engine"].get("cached", 0),
        "exec.retries": dump["engine"].get("retries", 0),
        "exec.failed": dump["engine"].get("failed", 0),
        "exec.journal.appends": calls.get("exec.journal.append", 0),
        "exec.journal.busy_s": busy("exec.journal.append"),
        "core.ticks": tick_count,
        "core.self_s": busy("core.run"),
        "core.tick_p50_us": percentile(ticks, 0.5) * 1e6 if ticks else 0.0,
        "core.tick_p99_us": percentile(ticks, 0.99) * 1e6 if ticks else 0.0,
        "env.observe.busy_s": busy("env.observe"),
        "env.apply_action.busy_s": busy("env.apply_action"),
        "env.advance.busy_s": busy("env.advance"),
    }
    for role in ROLE_NAMES:
        metrics[f"roles.{role}.busy_s"] = busy(f"roles.{role}")
    metrics.update({
        "llm.plan.busy_s": busy("llm.plan"),
        "sim.route_point_at.per_tick": per_tick("sim.route_point_at"),
        "geom.footprint_gap.per_tick.env": per_tick("geom.footprint_gap.env"),
        "geom.footprint_gap.per_tick.roles": per_tick("geom.footprint_gap.roles"),
        "geom.footprint_gap.per_tick.sim": per_tick("geom.footprint_gap.sim"),
        "roles.predict_min_separation.per_tick": per_tick("roles.predict_min_separation"),
        "stl.safety_robustness.busy_s": busy("stl.safety_robustness"),
        "obs.trace.records": calls.get("obs.trace.write", 0),
        "obs.trace.busy_s": busy("obs.trace.write"),
        "search.evaluate_spec.self_s": busy("search.evaluate_spec"),
        "search.driver.self_s": busy("search.driver"),
        "service.store.traced_busy_s": busy("service.store"),
    })
    metrics["spans.groups"] = len({group for *_, group in spans if group is not None})
    return metrics

