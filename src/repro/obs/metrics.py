"""Prometheus text exposition over the telemetry registry.

The :class:`~repro.obs.telemetry.TelemetryRegistry` is the repo's one
aggregation substrate — runs, searches, the service scheduler and the
HTTP layer all feed it.  This module renders a registry into the
Prometheus *text exposition format* (version 0.0.4) so any scraper can
consume ``GET /v1/metrics``, and snapshots the same data to
``metrics.json`` inside job directories so batch CLIs see exactly what
the endpoint exposes.

Three invariants drive the implementation:

* **valid names, escaped labels** — free-form instrument names (which
  may embed role names, event kinds, routes like ``GET /v1/jobs/{id}``)
  are sanitized into ``[a-zA-Z_:][a-zA-Z0-9_:]*`` metric names, and
  dynamic name segments become *label values* (escaped per the spec)
  rather than exploding the metric namespace;
* **monotone histograms** — the log-linear buckets render as cumulative
  ``_bucket{le="..."}`` series (monotone by construction, terminated by
  ``le="+Inf"``) with exact ``_sum``/``_count``;
* **finite output** — a non-finite instrument value never reaches the
  wire: it renders as ``0`` and bumps
  ``<ns>_exposition_nonfinite_total`` so the corruption is visible
  instead of poisoning downstream rate() math (and so the CI grep-gate
  banning ``Infinity``/``NaN`` tokens holds for metrics artifacts too).

:func:`parse_exposition` and :func:`validate_exposition` are the
self-certification half: tests (and ``obs top``) round-trip the rendered
text back into samples instead of trusting the renderer.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..jsonutil import dumps as strict_dumps
from .telemetry import SUBBUCKETS, Histogram, TelemetryRegistry

#: Version stamp of the ``metrics.json`` snapshot layout.
METRICS_SCHEMA_VERSION = 1

#: Snapshot file name inside a service job directory.
METRICS_FILE_NAME = "metrics.json"

#: Content type of the text exposition format.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Instrument-name prefixes whose dynamic tail becomes a label value.
#: ``(prefix, family, label)`` — ``events.iteration_finished`` renders as
#: ``<ns>_events_total{kind="iteration_finished"}`` instead of minting a
#: new metric name per event kind.
_LABEL_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("events.", "events_total", "kind"),
    ("violations.", "violations_total", "category"),
    ("faults.", "faults_total", "fault"),
    ("verdicts.", "verdicts_total", "verdict"),
    ("resilience.", "resilience_events_total", "kind"),
    ("recovery.", "recovery_total", "kind"),
    ("search.", "search_events_total", "kind"),
    ("role_latency_s.", "role_latency_seconds", "role"),
    ("http.requests.", "http_requests_total", "route"),
    ("http.request_s.", "http_request_seconds", "route"),
    ("jobs.state.", "service_jobs", "state"),
)


def sanitize_metric_name(name: str) -> str:
    """Collapse a free-form instrument name into a legal metric name."""
    cleaned = _NAME_BAD.sub("_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition spec (backslash-first)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def split_instrument(name: str) -> Tuple[str, Dict[str, str]]:
    """Map an instrument name to ``(family, labels)``.

    Known dynamic prefixes (event kinds, roles, routes, job states)
    become labels; anything else sanitizes wholesale with no labels.
    """
    for prefix, family, label in _LABEL_RULES:
        if name.startswith(prefix) and len(name) > len(prefix):
            return family, {label: name[len(prefix):]}
    return sanitize_metric_name(name), {}


def _format_float(value: float) -> str:
    """Shortest exact decimal; integers render without the trailing .0."""
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _bucket_upper_bound(index: int) -> float:
    """Exclusive upper edge of a log-linear bucket (see Histogram)."""
    octave, slot = divmod(index, SUBBUCKETS)
    return (2.0 ** octave) * (1.0 + (slot + 1) / SUBBUCKETS)


class _Sample:
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def render(self) -> str:
        if self.labels:
            body = ",".join(
                f'{key}="{escape_label_value(self.labels[key])}"'
                for key in sorted(self.labels)
            )
            return f"{self.name}{{{body}}} {_format_value(self.value)}"
        return f"{self.name} {_format_value(self.value)}"


def _format_value(value: Any) -> str:
    if isinstance(value, str):  # pre-formatted (histogram le math)
        return value
    return _format_float(float(value))


def render_exposition(
    registry: TelemetryRegistry,
    *,
    namespace: str = "repro",
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a registry as Prometheus text exposition (version 0.0.4).

    ``extra_labels`` are attached to every sample (e.g. ``instance``).
    Families render sorted by name, samples sorted by labels, so two
    renders of equal registries are byte-identical.
    """
    ns = sanitize_metric_name(namespace).rstrip("_")
    nonfinite = 0

    def full(family: str) -> str:
        return f"{ns}_{family}" if ns else family

    # family -> (type, [Sample])
    families: Dict[str, Tuple[str, List[_Sample]]] = {}

    def add(family: str, kind: str, labels: Dict[str, str], value: float) -> None:
        nonlocal nonfinite
        if not math.isfinite(value):
            nonfinite += 1
            value = 0.0
        merged = dict(extra_labels or {})
        merged.update(labels)
        entry = families.setdefault(family, (kind, []))
        entry[1].append(_Sample(family, merged, value))

    for name in sorted(registry.counters):
        family, labels = split_instrument(name)
        if not family.endswith("_total"):
            family += "_total"
        add(full(family), "counter", labels, float(registry.counters[name].value))
    for name in sorted(registry.gauges):
        family, labels = split_instrument(name)
        add(full(family), "gauge", labels, registry.gauges[name].value)

    histogram_blocks: Dict[str, Tuple[str, List[str]]] = {}
    for name in sorted(registry.histograms):
        family, labels = split_instrument(name)
        family = full(family)
        merged = dict(extra_labels or {})
        merged.update(labels)
        lines = histogram_blocks.setdefault(family, ("histogram", []))[1]
        lines.extend(_render_histogram(family, merged, registry.histograms[name]))

    if nonfinite:
        add(full("exposition_nonfinite_total"), "counter", {}, float(nonfinite))

    out: List[str] = []
    for family in sorted(set(families) | set(histogram_blocks)):
        if family in families:
            kind, samples = families[family]
            out.append(f"# TYPE {family} {kind}")
            for sample in sorted(samples, key=lambda s: sorted(s.labels.items())):
                out.append(sample.render())
        if family in histogram_blocks:
            out.append(f"# TYPE {family} histogram")
            out.extend(histogram_blocks[family][1])
    return "\n".join(out) + "\n" if out else ""


def _render_histogram(
    family: str, labels: Dict[str, str], hist: Histogram
) -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` series for one histogram."""

    def with_le(le: str) -> str:
        merged = {**labels, "le": le}
        body = ",".join(
            f'{key}="{escape_label_value(merged[key])}"' for key in sorted(merged)
        )
        return f"{family}_bucket{{{body}}}"

    def plain(suffix: str) -> str:
        if labels:
            body = ",".join(
                f'{key}="{escape_label_value(labels[key])}"'
                for key in sorted(labels)
            )
            return f"{family}_{suffix}{{{body}}}"
        return f"{family}_{suffix}"

    lines: List[str] = []
    cumulative = hist.zeros
    for index in sorted(hist.buckets):
        cumulative += hist.buckets[index]
        lines.append(
            f"{with_le(_format_float(_bucket_upper_bound(index)))} {cumulative}"
        )
    lines.append(f'{with_le("+Inf")} {hist.count}')
    total = hist.total if math.isfinite(hist.total) else 0.0
    lines.append(f"{plain('sum')} {_format_float(total)}")
    lines.append(f"{plain('count')} {hist.count}")
    return lines


# ----------------------------------------------------------------------
# parsing (round-trip verification; also feeds `obs top`)
# ----------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR = re.compile(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*(?:,|$)')


def _unescape_label_value(raw: str) -> str:
    return (
        raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_exposition(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text into ``(name, labels, value)`` samples.

    Raises :class:`ValueError` on a malformed line — parsing is part of
    the validity contract, not a best-effort convenience.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(raw):
                labels[pair.group(1)] = _unescape_label_value(pair.group(2))
                consumed = pair.end()
            if consumed < len(raw.rstrip()):
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        samples.append((match.group("name"), labels, value))
    return samples


def validate_exposition(text: str) -> List[str]:
    """Exposition-validity problems (empty list == valid).

    Checks: every line parses, metric/label names are legal, sample
    values are finite (``le="+Inf"`` label values excepted), histogram
    bucket series are monotone non-decreasing and terminated by a
    ``+Inf`` bucket that equals the series ``_count``.
    """
    problems: List[str] = []
    try:
        samples = parse_exposition(text)
    except ValueError as exc:
        return [str(exc)]
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for name, labels, value in samples:
        if not _NAME_OK.match(name):
            problems.append(f"illegal metric name {name!r}")
        for label in labels:
            if not _LABEL_OK.match(label):
                problems.append(f"illegal label name {label!r} on {name}")
        if not math.isfinite(value):
            problems.append(f"non-finite sample value on {name} {labels}")
        if name.endswith("_bucket") and "le" in labels:
            series = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            le = labels["le"]
            bound = math.inf if le == "+Inf" else float(le)
            buckets.setdefault((name, series), []).append((bound, value))
        elif name.endswith("_count"):
            counts[(name[: -len("_count")] + "_bucket", tuple(sorted(labels.items())))] = value
    for (name, series), entries in buckets.items():
        entries.sort(key=lambda pair: pair[0])
        last = -math.inf
        for bound, value in entries:
            if value < last:
                problems.append(
                    f"non-monotone bucket series {name} {dict(series)} at le={bound}"
                )
            last = value
        if not entries or not math.isinf(entries[-1][0]):
            problems.append(f"bucket series {name} {dict(series)} lacks le=\"+Inf\"")
        else:
            expected = counts.get((name, series))
            if expected is not None and entries[-1][1] != expected:
                problems.append(
                    f"bucket series {name} {dict(series)}: +Inf bucket "
                    f"{entries[-1][1]} != _count {expected}"
                )
    return problems


# ----------------------------------------------------------------------
# metrics.json snapshots (job directories / batch CLIs)
# ----------------------------------------------------------------------
def write_metrics_json(
    path: "str | Path",
    registry: TelemetryRegistry,
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Snapshot a registry to ``metrics.json`` (atomic via temp+replace).

    The snapshot is the registry's JSON round-trip form plus a schema
    stamp, so ``TelemetryRegistry.from_snapshot(data["telemetry"])``
    rebuilds exactly what the exposition endpoint rendered.
    """
    import os

    path = Path(path)
    payload = {
        "kind": "metrics_snapshot",
        "schema": METRICS_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "telemetry": registry.snapshot(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(strict_dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_metrics_json(path: "str | Path") -> Tuple[TelemetryRegistry, Dict[str, Any]]:
    """Load a ``metrics.json`` snapshot back into ``(registry, meta)``."""
    import json

    data = json.loads(Path(path).read_text())
    if data.get("schema") != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"metrics snapshot schema {data.get('schema')!r} != "
            f"{METRICS_SCHEMA_VERSION} at {path}"
        )
    registry = TelemetryRegistry.from_snapshot(data.get("telemetry") or {})
    return registry, dict(data.get("meta") or {})
