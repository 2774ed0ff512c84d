"""Observability: end-to-end tracing and telemetry for the assurance loop.

A run's evidence lives in process memory — the events its
:class:`~repro.core.events.EventBus` fans out, its ``StateManager``
history and its :class:`~repro.core.metrics.DependabilityMetrics`.  This
package makes it durable and queryable across every layer:

* :mod:`repro.obs.trace` — JSONL run traces (one record per tick, plus
  the run's evidence events), written by :class:`TraceRecorder`: one file
  per orchestration run, one per work unit under ``DIR/units/`` for a
  campaign traced into ``DIR``.
* :mod:`repro.obs.telemetry` — a registry of counters, gauges and
  log-linear histograms: a run's (in its trace footer) and the job
  service's.
* :mod:`repro.obs.metrics` — Prometheus text exposition over the
  telemetry registry (rendering, parsing, validation); what
  ``GET /v1/metrics`` serves.
* :mod:`repro.obs.index` — the cross-run trace query engine: an
  incrementally refreshed, schema-versioned index over run/job trace
  trees, with filters, group-by aggregation and drift verification.
* :mod:`repro.obs.top` — the live fleet dashboard (``obs top``) over a
  running service or a trace directory.
* :mod:`repro.obs.cli` — the ``python -m repro.obs`` command
  (``summarize`` / ``tail`` / ``diff`` / ``query`` / ``top``):
  recomputes dependability counts from the raw event records and
  cross-checks them against each run's recorded metrics summary, making
  traced campaigns self-certifying.

Where a run's time goes is read from the same evidence: every tick
record carries each role's latency, and ``obs summarize`` prints their
distribution.  Layer-by-layer timing is the repository benchmark's job
(``perfbench/run.py --trace 1``), and per-function time comes from
``python -m cProfile`` over a ``--jobs 1`` campaign.

Library modules log under the ``repro.*`` logger hierarchy (the stdlib
:mod:`logging` module); :func:`configure_logging` is the one-call switch
CLI entry points expose via ``--log-level``.
"""

from __future__ import annotations

import logging
from typing import Optional

from .index import (
    INDEX_FILE_NAME,
    INDEX_SCHEMA_VERSION,
    build_row,
    index_rows,
    refresh_index,
    verify_index,
)
from .metrics import (
    EXPOSITION_CONTENT_TYPE,
    parse_exposition,
    render_exposition,
    validate_exposition,
)
from .telemetry import Counter, Gauge, Histogram, TelemetryRegistry
from .trace import (
    TRACE_SCHEMA_VERSION,
    TRACE_SUFFIX,
    TraceData,
    TraceRecorder,
    TraceWriter,
    aggregate_counts,
    discover_traces,
    load_run_traces,
    load_trace,
    recompute_counts,
    safe_trace_name,
    trace_controller,
    unit_trace_path,
    verify_trace,
)


def configure_logging(level: "int | str" = logging.INFO, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger hierarchy for CLI / script use.

    Library modules never configure logging themselves (standard library
    etiquette); entry points call this once.  Returns the root ``repro``
    logger.  Idempotent: an existing handler is re-leveled, not duplicated.
    """
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    else:
        for handler in logger.handlers:
            handler.setLevel(logging.NOTSET)
    return logger


__all__ = [
    "Counter",
    "EXPOSITION_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "INDEX_FILE_NAME",
    "INDEX_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TRACE_SUFFIX",
    "TelemetryRegistry",
    "TraceData",
    "TraceRecorder",
    "TraceWriter",
    "aggregate_counts",
    "build_row",
    "configure_logging",
    "discover_traces",
    "index_rows",
    "load_run_traces",
    "load_trace",
    "parse_exposition",
    "recompute_counts",
    "refresh_index",
    "render_exposition",
    "safe_trace_name",
    "trace_controller",
    "unit_trace_path",
    "validate_exposition",
    "verify_index",
    "verify_trace",
]
