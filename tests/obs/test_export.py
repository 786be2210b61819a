"""Prometheus exposition format and the stdlib /metrics endpoint."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.export import (
    CONTENT_TYPE,
    MetricsServer,
    render_prometheus,
    sanitize_name,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import SlidingWindow


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(7)
    registry.gauge("drift.score.probability").set(0.12)
    histogram = registry.histogram("span.extract", (0.1, 0.5, 1.0))
    for value in (0.05, 0.3, 0.3, 2.0):
        histogram.observe(value)
    moment = registry.moment("feature.V.c00")
    for value in (1.0, 3.0):
        moment.observe(value)
    return registry


def _parse_samples(text):
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = value
    return samples


class TestSanitizeName:
    def test_dots_become_underscores(self):
        assert sanitize_name("span.extract") == "span_extract"

    def test_rule_ids_with_dashes(self):
        assert sanitize_name("lint.rule.o3-chr-chain") == "lint_rule_o3_chr_chain"

    def test_leading_digit_guarded(self):
        assert sanitize_name("9lives") == "_9lives"
        assert sanitize_name("") == "_"


class TestRenderPrometheus:
    def test_counter_family(self):
        text = render_prometheus(_populated_registry())
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "repro_cache_hits_total 7" in text

    def test_gauge_family(self):
        text = render_prometheus(_populated_registry())
        assert "# TYPE repro_drift_score_probability gauge" in text
        assert "repro_drift_score_probability 0.12" in text

    def test_histogram_buckets_are_cumulative_and_capped_by_inf(self):
        samples = _parse_samples(render_prometheus(_populated_registry()))
        buckets = [
            int(samples[f'repro_span_extract_bucket{{le="{bound}"}}'])
            for bound in ("0.1", "0.5", "1")
        ]
        assert buckets == [1, 3, 3]
        assert buckets == sorted(buckets)  # cumulative => monotone
        assert samples['repro_span_extract_bucket{le="+Inf"}'] == "4"
        assert samples["repro_span_extract_count"] == "4"
        assert float(samples["repro_span_extract_sum"]) == pytest.approx(2.65)

    def test_moments_export_count_sum_mean(self):
        samples = _parse_samples(render_prometheus(_populated_registry()))
        assert samples["repro_feature_V_c00_count"] == "2"
        assert samples["repro_feature_V_c00_sum"] == "4"
        assert samples["repro_feature_V_c00_mean"] == "2"

    def test_accepts_plain_snapshots(self):
        registry = _populated_registry()
        assert render_prometheus(registry.to_dict()) == render_prometheus(
            registry
        )

    def test_window_section(self):
        clock = {"now": 0.0}
        window = SlidingWindow(60.0, 12, clock=lambda: clock["now"])
        registry = _populated_registry()
        window.tick(registry)
        registry.counter("cache.hits").inc(3)
        clock["now"] = 10.0
        text = render_prometheus(registry, window.view(registry))
        samples = _parse_samples(text)
        assert samples["repro_window_seconds"] == "10"
        # The whole stream fits inside the 60s window: 10 hits over 10s.
        assert float(
            samples['repro_window_rate_per_sec{name="cache.hits"}']
        ) == pytest.approx(1.0)
        assert 'repro_window_quantile{name="span.extract",quantile="0.95"}' in samples
        assert 'repro_window_quantile{name="span.extract",quantile="0.5"}' in samples

    def test_every_line_is_exposition_shaped(self):
        text = render_prometheus(_populated_registry())
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            assert line.startswith(("# TYPE ", "repro_")), line


class TestMetricsServer:
    def test_serves_metrics_and_healthz(self):
        registry = _populated_registry()
        with MetricsServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as reply:
                assert reply.status == 200
                assert reply.headers["Content-Type"] == CONTENT_TYPE
                body = reply.read().decode("utf-8")
            assert "repro_cache_hits_total 7" in body

            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as reply:
                health = json.loads(reply.read())
            assert health == {"status": "ok", "telemetry": True}

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404

    def test_two_scrapes_share_one_keepalive_connection(self):
        with MetricsServer(_populated_registry(), port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                conn.request("GET", "/metrics")
                first = conn.getresponse()
                assert first.status == 200
                assert first.getheader("Connection") == "keep-alive"
                first.read()
                sock = conn.sock
                assert sock is not None  # the server kept it open
                conn.request("GET", "/metrics")
                second = conn.getresponse()
                body = second.read().decode("utf-8")
                assert second.status == 200
                assert conn.sock is sock  # no reconnect between scrapes
                assert "repro_cache_hits_total 7" in body
            finally:
                conn.close()

    def test_scrapes_track_live_mutation(self):
        registry = _populated_registry()
        with MetricsServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            registry.counter("cache.hits").inc(100)
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as reply:
                body = reply.read().decode("utf-8")
            assert "repro_cache_hits_total 107" in body

    def test_start_is_idempotent_and_stop_releases(self):
        server = MetricsServer(_populated_registry(), port=0)
        port = server.start()
        assert server.start() == port
        server.stop()
        server.stop()  # second stop is a no-op
        # The port is free again: a new server can bind it.
        rebound = MetricsServer(_populated_registry(), port=port)
        assert rebound.start() == port
        rebound.stop()

    def test_scrape_includes_window_when_attached(self):
        registry = _populated_registry()
        window = SlidingWindow(60.0, 12)
        window.tick(registry)
        server = MetricsServer(registry, window=window)
        assert "repro_window_seconds" in server.scrape()
