"""Unit coverage for the ``repro.obs`` metrics primitives.

``tests/obs/test_service_metrics.py`` proves the *instrumented* stack
emits the right series; this suite pins the primitives themselves —
instrument arithmetic, quantile estimation against known sleeps (via a
pinned fake clock, not real sleeping), registry identity/kind rules,
the disabled-registry null path, snapshot consistency mid-traffic
(INV001 applied to telemetry), and the Prometheus rendering.
"""

import threading

import pytest

from repro import obs
from repro.obs import metrics


@pytest.fixture()
def registry():
    return obs.MetricsRegistry()


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------
class TestCounter:
    def test_increments(self):
        counter = obs.Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_rejects_negative_increments(self):
        counter = obs.Counter()
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_thread_hammer_loses_no_increments(self):
        counter = obs.Counter()
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_inc_dec(self):
        gauge = obs.Gauge()
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistogram:
    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            obs.Histogram(buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly ascending"):
            obs.Histogram(buckets=(2.0, 1.0))

    def test_counts_sum_min_max(self):
        histogram = obs.Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.55)
        assert snap["min"] == 0.05
        assert snap["max"] == 50.0
        assert [count for _, count in snap["buckets"]] == [1, 1, 1]
        assert snap["overflow"] == 1
        # Internal consistency: bucket counts + overflow == count.
        assert sum(c for _, c in snap["buckets"]) + snap["overflow"] \
            == snap["count"]

    def test_quantiles_bound_known_observations(self):
        """Sleep-shaped latencies land in the right quantile bands.

        Estimated quantiles are bucket interpolations, so the contract
        is *bounds*: the estimate lives within the bucket that holds
        the true value, clamped to observed min/max.
        """
        histogram = obs.Histogram()
        observations = [0.001] * 50 + [0.010] * 45 + [0.500] * 5
        for value in observations:
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        p99 = histogram.quantile(0.99)
        assert 0.001 <= p50 <= 0.010      # median sits at the 1ms edge
        assert 0.010 < p99 <= 0.500      # p99 is pulled by the 500ms tail
        assert histogram.quantile(1.0) == 0.5
        assert histogram.quantile(0.0) == pytest.approx(0.001)

    def test_quantile_on_empty_histogram_is_none(self):
        assert obs.Histogram().quantile(0.5) is None

    def test_quantile_rejects_out_of_range(self):
        histogram = obs.Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="within"):
            histogram.quantile(1.5)

    def test_overflow_rank_reports_observed_max(self):
        histogram = obs.Histogram(buckets=(1.0,))
        for value in (0.5, 9.0, 11.0):
            histogram.observe(value)
        assert histogram.quantile(0.99) == 11.0

    def test_latency_buckets_span_10us_to_100s(self):
        bounds = metrics.DEFAULT_LATENCY_BUCKETS
        assert bounds[0] == pytest.approx(1e-5)
        assert bounds[-1] == pytest.approx(100.0)
        assert list(bounds) == sorted(bounds)


class TestTimer:
    def test_measures_on_the_injectable_clock(self):
        ticks = iter((100.0, 102.5))
        previous = obs.set_clock(lambda: next(ticks))
        try:
            histogram = obs.Histogram()
            with obs.Timer(histogram) as timer:
                pass
        finally:
            obs.set_clock(previous)
        assert timer.elapsed_s == pytest.approx(2.5)
        assert timer.elapsed_ms == pytest.approx(2500.0)
        assert histogram.count == 1


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_same_name_and_labels_return_one_series(self, registry):
        a = registry.counter("hits_total", endpoint="/v1/query")
        b = registry.counter("hits_total", endpoint="/v1/query")
        assert a is b

    def test_distinct_labels_are_distinct_series(self, registry):
        a = registry.counter("hits_total", endpoint="/a")
        b = registry.counter("hits_total", endpoint="/b")
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert registry.counter_total("hits_total") == 5

    def test_label_order_does_not_matter(self, registry):
        a = registry.counter("c_total", x="1", y="2")
        b = registry.counter("c_total", y="2", x="1")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("latency")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("latency")

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = obs.MetricsRegistry(enabled=False)
        counter = registry.counter("hits_total")
        counter.inc(100)
        gauge = registry.gauge("depth")
        gauge.set(7.0)
        histogram = registry.histogram("latency")
        histogram.observe(1.0)
        assert counter.value == 0
        assert gauge.value == 0.0
        assert histogram.count == 0
        snap = registry.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}

    def test_set_registry_swaps_and_restores(self):
        fresh = obs.MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            assert obs.get_registry() is fresh
        finally:
            obs.set_registry(previous)
        assert obs.get_registry() is previous

    def test_snapshot_is_consistent_mid_traffic(self, registry):
        """INV001 applied to telemetry: a snapshot taken while writer
        threads hammer the registry never shows a torn histogram
        (bucket totals always equal the count)."""
        histogram = registry.histogram("latency")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                histogram.observe(0.01)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = histogram.snapshot()
                buckets = sum(c for _, c in snap["buckets"])
                assert buckets + snap["overflow"] == snap["count"]
        finally:
            stop.set()
            for t in threads:
                t.join()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
class TestPrometheusRendering:
    def test_exposition_format(self, registry):
        registry.counter("hits_total", endpoint="/v1/query").inc(3)
        registry.gauge("resident_bytes").set(1024)
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = registry.render_prometheus()
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{endpoint="/v1/query"} 3' in text
        assert "resident_bytes 1024" in text
        # _bucket series are cumulative; +Inf equals _count.
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="1.0"} 2' in text
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_count 3" in text
        assert text.endswith("\n")

    def test_json_snapshot_carries_quantiles(self, registry):
        histogram = registry.histogram("latency")
        histogram.observe(0.002)
        entry = registry.snapshot()["histograms"][0]
        assert entry["name"] == "latency"
        assert entry["data"]["p50"] == pytest.approx(0.002)
        assert entry["data"]["p99"] == pytest.approx(0.002)
