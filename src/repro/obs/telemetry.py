"""Telemetry registry: counters, gauges and log-linear histograms.

A registry holds named instruments.  Three places fill one: the trace
recorder (one per run: event, verdict and violation counts and per-role
latency) and the search driver (one per search), each snapshotted into
its trace footer, and the job service (one per store: job, slot, engine,
store and HTTP instruments), rendered by ``GET /v1/metrics`` and snapshotted
into ``/v1/stats``, where ``obs top`` rebuilds it with
:meth:`TelemetryRegistry.from_snapshot`.

Histograms are log-linear (HdrHistogram-style): values bucket into
``SUBBUCKETS`` linear slots per power-of-two octave, bounding the relative
quantile error at ``1/SUBBUCKETS`` per octave while keeping storage
proportional to the dynamic range actually observed, not to the sample
count.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

#: Linear subdivisions per power-of-two octave; quantile estimates are
#: accurate to ~1/SUBBUCKETS relative error.
SUBBUCKETS = 16


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = int(value)

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError(f"counters only go up, got {by}")
        self.value += by


class Gauge:
    """A last-write-wins float measurement."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Log-linear histogram of non-negative samples.

    Buckets are indexed ``octave * SUBBUCKETS + slot`` where ``octave``
    is ``floor(log2(value))`` and ``slot`` subdivides the octave
    linearly.  Exact ``count``/``sum``/``min``/``max`` are kept alongside
    the buckets, so means are exact and quantiles are bounded-error.
    """

    __slots__ = ("count", "total", "min", "max", "zeros", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zeros = 0
        self.buckets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _bucket_index(value: float) -> int:
        octave = math.floor(math.log2(value))
        lower = 2.0 ** octave
        slot = min(SUBBUCKETS - 1, int((value - lower) / lower * SUBBUCKETS))
        return octave * SUBBUCKETS + slot

    @staticmethod
    def _bucket_midpoint(index: int) -> float:
        octave, slot = divmod(index, SUBBUCKETS)
        lower = 2.0 ** octave
        return lower * (1.0 + (slot + 0.5) / SUBBUCKETS)

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        value = float(value)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"histogram samples must be finite and >= 0, got {value}")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value == 0.0:
            self.zeros += 1
            return
        index = self._bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Bounded-error quantile estimate, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                estimate = self._bucket_midpoint(index)
                # Clamp to the exact observed envelope.
                return max(self.min or 0.0, min(estimate, self.max or estimate))
        return self.max if self.max is not None else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class TelemetryRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump, stable key order (sorted names)."""
        return {
            "counters": {name: self.counters[name].value for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].value for name in sorted(self.gauges)},
            "histograms": {
                name: {
                    "count": hist.count,
                    "sum": hist.total,
                    "min": hist.min,
                    "max": hist.max,
                    "zeros": hist.zeros,
                    "buckets": {str(i): hist.buckets[i] for i in sorted(hist.buckets)},
                }
                for name, hist in ((n, self.histograms[n]) for n in sorted(self.histograms))
            },
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "TelemetryRegistry":
        registry = cls()
        for name, value in (data.get("counters") or {}).items():
            registry.counter(name).value = int(value)
        for name, value in (data.get("gauges") or {}).items():
            registry.gauge(name).value = float(value)
        for name, dump in (data.get("histograms") or {}).items():
            hist = registry.histogram(name)
            hist.count = int(dump.get("count", 0))
            hist.total = float(dump.get("sum", 0.0))
            hist.min = dump.get("min")
            hist.max = dump.get("max")
            hist.zeros = int(dump.get("zeros", 0))
            hist.buckets = {int(i): int(n) for i, n in (dump.get("buckets") or {}).items()}
        return registry
