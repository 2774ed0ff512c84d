"""Prometheus exposition validity: names, labels, histograms, snapshots."""

import math

import pytest

from repro.obs.metrics import (
    EXPOSITION_CONTENT_TYPE,
    METRICS_FILE_NAME,
    METRICS_SCHEMA_VERSION,
    escape_label_value,
    load_metrics_json,
    parse_exposition,
    render_exposition,
    sanitize_metric_name,
    split_instrument,
    validate_exposition,
    write_metrics_json,
)
from repro.obs.telemetry import TelemetryRegistry


def registry_with_everything() -> TelemetryRegistry:
    registry = TelemetryRegistry()
    registry.counter("events.iteration_finished").inc(12)
    registry.counter("violations.safety").inc(3)
    registry.counter("service.jobs_done").inc(2)
    registry.counter("worker.pool-1.tasks").inc(7)
    registry.counter('http.requests.GET /v1/jobs/{id}').inc(4)
    registry.gauge("jobs.queue_depth").set(5.0)
    registry.gauge("jobs.state.queued").set(2.0)
    hist = registry.histogram("role_latency_s.SafetyMonitor")
    for value in (0.0, 0.001, 0.02, 0.02, 0.5, 3.0, 3.1, 120.0):
        hist.record(value)
    return registry


class TestNameSanitization:
    def test_illegal_characters_collapse(self):
        assert sanitize_metric_name("role latency (s)") == "role_latency__s_"

    def test_leading_digit_gets_prefixed(self):
        name = sanitize_metric_name("99th_percentile")
        assert name[0] == "_"
        assert validate_exposition(f"{name} 1\n") == []

    def test_split_known_prefixes_become_labels(self):
        assert split_instrument("events.run_started") == (
            "events_total", {"kind": "run_started"}
        )
        assert split_instrument("jobs.state.running") == (
            "service_jobs", {"state": "running"}
        )

    def test_split_unknown_name_sanitizes_wholesale(self):
        family, labels = split_instrument("store.append_s")
        assert family == "store_append_s"
        assert labels == {}


class TestLabelEscaping:
    def test_backslash_quote_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_round_trip_through_parser(self):
        registry = TelemetryRegistry()
        registry.counter('events.we"ird\\kind\nx').inc(1)
        text = render_exposition(registry)
        assert validate_exposition(text) == []
        ((name, labels, value),) = parse_exposition(text)
        assert labels["kind"] == 'we"ird\\kind\nx'
        assert value == 1.0


class TestExposition:
    def test_valid_and_round_trips(self):
        registry = registry_with_everything()
        text = render_exposition(registry)
        assert validate_exposition(text) == []
        samples = parse_exposition(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["repro_events_total"] == [
            ({"kind": "iteration_finished"}, 12.0)
        ]
        assert ({"state": "queued"}, 2.0) in by_name["repro_service_jobs"]
        assert by_name["repro_jobs_queue_depth"] == [({}, 5.0)]

    def test_counters_end_in_total(self):
        text = render_exposition(registry_with_everything())
        for line in text.splitlines():
            if line.startswith("# TYPE") and line.endswith(" counter"):
                assert line.split()[2].endswith("_total"), line

    def test_histogram_buckets_cumulative_and_terminated(self):
        registry = registry_with_everything()
        text = render_exposition(registry)
        buckets = [
            (labels["le"], value)
            for name, labels, value in parse_exposition(text)
            if name == "repro_role_latency_seconds_bucket"
        ]
        assert buckets[-1][0] == "+Inf"
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)
        hist = registry.histograms["role_latency_s.SafetyMonitor"]
        assert counts[-1] == hist.count
        # Zeros count toward every bucket (cumulative from the left).
        assert counts[0] >= hist.zeros

    def test_histogram_sum_exact(self):
        registry = registry_with_everything()
        hist = registry.histograms["role_latency_s.SafetyMonitor"]
        samples = parse_exposition(render_exposition(registry))
        (total,) = [
            v for n, _, v in samples if n == "repro_role_latency_seconds_sum"
        ]
        assert total == pytest.approx(hist.total)

    def test_never_emits_infinity_or_nan_tokens(self):
        registry = registry_with_everything()
        registry.gauge("broken.gauge").value = math.inf
        registry.gauge("other.gauge").value = math.nan
        text = render_exposition(registry)
        assert "Infinity" not in text
        assert "NaN" not in text
        assert validate_exposition(text) == []
        samples = dict(
            (n, v) for n, labels, v in parse_exposition(text) if not labels
        )
        # Clamped to zero, and the corruption is counted, not hidden.
        assert samples["repro_broken_gauge"] == 0.0
        assert samples["repro_exposition_nonfinite_total"] == 2.0

    def test_render_is_deterministic(self):
        a = render_exposition(registry_with_everything())
        b = render_exposition(registry_with_everything())
        assert a == b

    def test_extra_labels_attach_everywhere(self):
        text = render_exposition(
            registry_with_everything(), extra_labels={"instance": "s1"}
        )
        for name, labels, _ in parse_exposition(text):
            assert labels.get("instance") == "s1", name

    def test_validator_flags_non_monotone_buckets(self):
        bad = (
            'x_bucket{le="1"} 5\n'
            'x_bucket{le="2"} 3\n'
            'x_bucket{le="+Inf"} 5\n'
            "x_count 5\n"
        )
        assert any("non-monotone" in p for p in validate_exposition(bad))

    def test_validator_flags_missing_inf_bucket(self):
        assert any(
            "+Inf" in p for p in validate_exposition('x_bucket{le="1"} 5\n')
        )

    def test_validator_flags_inf_count_mismatch(self):
        bad = 'x_bucket{le="+Inf"} 4\nx_count 5\n'
        assert any("_count" in p for p in validate_exposition(bad))

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("}{ not a sample\n")

    def test_content_type_pins_the_format_version(self):
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE


class TestMetricsJson:
    def test_round_trip(self, tmp_path):
        registry = registry_with_everything()
        path = write_metrics_json(
            tmp_path / METRICS_FILE_NAME, registry, meta={"job": "j000001"}
        )
        loaded, meta = load_metrics_json(path)
        assert meta["job"] == "j000001"
        assert render_exposition(loaded) == render_exposition(registry)

    def test_no_nonfinite_tokens_in_file(self, tmp_path):
        registry = registry_with_everything()
        registry.gauge("broken").value = math.inf
        path = write_metrics_json(tmp_path / METRICS_FILE_NAME, registry, meta={})
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text

    def test_schema_mismatch_rejected(self, tmp_path):
        path = write_metrics_json(
            tmp_path / METRICS_FILE_NAME, TelemetryRegistry(), meta={}
        )
        data = path.read_text().replace(
            f'"schema": {METRICS_SCHEMA_VERSION}', '"schema": 999'
        )
        path.write_text(data)
        with pytest.raises(ValueError, match="schema"):
            load_metrics_json(path)
