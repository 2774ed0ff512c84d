"""Tests for the telemetry registry: counters, gauges, log-linear
histograms, pickling and JSON round trips."""

import pickle

import pytest

from repro.obs.telemetry import SUBBUCKETS, Counter, Gauge, Histogram, TelemetryRegistry


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(2.5)
        g.set(3)
        assert g.value == 3.0


class TestHistogram:
    def test_exact_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0

    def test_percentile_bounded_error(self):
        h = Histogram()
        samples = [0.001 * i for i in range(1, 1001)]  # 1 ms .. 1 s
        for v in samples:
            h.record(v)
        # Log-linear buckets bound the relative error at ~1/SUBBUCKETS.
        assert h.percentile(50.0) == pytest.approx(0.5, rel=2.0 / SUBBUCKETS)
        assert h.percentile(99.0) == pytest.approx(0.99, rel=2.0 / SUBBUCKETS)

    def test_percentile_clamped_to_envelope(self):
        h = Histogram()
        h.record(3.0)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(100.0) == 3.0

    def test_zeros_tracked(self):
        h = Histogram()
        h.record(0.0)
        h.record(0.0)
        h.record(8.0)
        assert h.zeros == 2
        assert h.percentile(50.0) == 0.0
        assert h.percentile(100.0) == 8.0

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            Histogram().record(-1.0)
        with pytest.raises(ValueError):
            Histogram().record(float("nan"))

    def test_summary_keys(self):
        h = Histogram()
        h.record(1.0)
        assert set(h.summary()) == {"count", "mean", "p50", "p90", "p99", "min", "max"}

    def test_empty_percentile(self):
        assert Histogram().percentile(99.0) == 0.0


def _sample_registry() -> TelemetryRegistry:
    r = TelemetryRegistry()
    r.counter("events.role_executed").inc(12)
    r.gauge("iterations").set(4)
    for v in (0.001, 0.002, 0.004):
        r.histogram("role_latency_s.Monitor").record(v)
    return r


class TestRegistry:
    def test_create_on_first_use(self):
        r = TelemetryRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.counter("x").value == 0

    def test_snapshot_round_trip(self):
        r = _sample_registry()
        rebuilt = TelemetryRegistry.from_snapshot(r.snapshot())
        assert rebuilt.snapshot() == r.snapshot()
        assert rebuilt.histogram("role_latency_s.Monitor").percentile(
            50.0
        ) == r.histogram("role_latency_s.Monitor").percentile(50.0)

    def test_picklable(self):
        r = _sample_registry()
        clone = pickle.loads(pickle.dumps(r))
        assert clone.snapshot() == r.snapshot()
