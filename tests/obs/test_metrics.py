"""Metric primitives: counters, gauges, streaming histograms, registry."""

import time

import numpy as np
import pytest

from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)


class TestHistogram:
    def test_summary_stats(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(10.0)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0
        assert histogram.max == 4.0

    def test_empty(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_single_observation_exact(self):
        histogram = Histogram("h")
        histogram.observe(0.125)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.125, rel=1e-9)

    def test_quantiles_approximate_percentiles(self):
        """Streaming quantiles stay within one bucket of the truth."""
        rng = np.random.default_rng(7)
        samples = np.exp(rng.normal(loc=-3.0, scale=1.5, size=20_000))
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = float(np.percentile(samples, q * 100))
            approx = histogram.quantile(q)
            # Bucket width is 10^(1/8) ~ 1.33x: allow one bucket of error.
            assert exact / 1.34 <= approx <= exact * 1.34

    def test_quantile_monotone(self):
        rng = np.random.default_rng(11)
        histogram = Histogram("h")
        for value in rng.uniform(0.001, 10.0, size=5000):
            histogram.observe(value)
        quantiles = [histogram.quantile(q) for q in
                     (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[2.0, 1.0])

    def test_no_samples_stored(self):
        """Memory is O(buckets): 1M observations fit in the same counts."""
        histogram = Histogram("h", buckets=[1.0, 10.0, 100.0])
        for _ in range(1000):
            histogram.observe(5.0)
        assert histogram.count == 1000
        assert len(histogram.bucket_counts()) == 4


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")
        assert len(registry) == 2
        assert "a" in registry

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_reset_keeps_names(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.reset()
        assert "a" in registry
        assert registry.counter("a").value == 0

    def test_timer_records_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("stage_seconds") as timer:
            time.sleep(0.01)
        histogram = registry.get("stage_seconds")
        assert histogram.count == 1
        assert timer.last >= 0.009
        assert histogram.sum == pytest.approx(timer.last)

    def test_span_appends_trace(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        trace = registry.trace
        assert [record.name for record in trace] == ["inner", "outer"]
        assert trace[0].depth == 1
        assert trace[1].depth == 0
        assert trace[1].duration >= trace[0].duration

    def test_trace_bounded(self):
        registry = MetricsRegistry(trace_capacity=3)
        for _ in range(10):
            with registry.span("s"):
                pass
        assert len(registry.trace) == 3
        assert registry.get("s").count == 10


class TestNullRegistry:
    def test_everything_is_noop(self):
        NULL_REGISTRY.counter("a").inc(5)
        NULL_REGISTRY.gauge("b").set(1.0)
        NULL_REGISTRY.histogram("c").observe(2.0)
        with NULL_REGISTRY.timer("d"):
            pass
        with NULL_REGISTRY.span("e"):
            pass
        assert NULL_REGISTRY.counter("a").value == 0
        assert NULL_REGISTRY.histogram("c").count == 0
        assert NULL_REGISTRY.trace == []


class TestObserveMany:
    def test_matches_sequential_observes(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0005, 50.0, size=2000).tolist()
        one_by_one = Histogram("a")
        for value in values:
            one_by_one.observe(value)
        batched = Histogram("b")
        batched.observe_many(values)
        assert batched.count == one_by_one.count
        assert batched.sum == pytest.approx(one_by_one.sum)
        assert batched.min == one_by_one.min
        assert batched.max == one_by_one.max
        assert batched.bucket_counts() == one_by_one.bucket_counts()
        for q in (0.1, 0.5, 0.9, 0.99):
            assert batched.quantile(q) == pytest.approx(one_by_one.quantile(q))

    def test_empty_batch_is_noop(self):
        histogram = Histogram("h")
        histogram.observe_many([])
        assert histogram.count == 0

    def test_observe_count_matches_repeated_value(self):
        counted, repeated = Histogram("a"), Histogram("b")
        for value, count in ((0.002, 3), (4.0, 1), (0.3, 5)):
            counted.observe(value, count)
            repeated.observe_many([value] * count)
        assert counted.count == repeated.count == 9
        assert counted.sum == pytest.approx(repeated.sum)
        assert (counted.min, counted.max) == (repeated.min, repeated.max)
        assert counted.bucket_counts() == repeated.bucket_counts()


class TestThreadSafety:
    """Regression tests for lost updates under free-threaded serving.

    A bare ``self._value += amount`` is a read-modify-write across several
    bytecodes; with the serving pool incrementing shared counters from
    many threads, two increments could interleave and one would vanish.
    The metric primitives now take a per-metric lock, and these tests
    hammer them with the interpreter switch interval dialed down to ~10us
    so any unlocked window is actually exercised.
    """

    @pytest.fixture(autouse=True)
    def _fast_switching(self):
        import sys
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(previous)

    @staticmethod
    def _run_threads(count, target):
        import threading
        barrier = threading.Barrier(count)

        def wrapped(index):
            barrier.wait()
            target(index)

        threads = [
            threading.Thread(target=wrapped, args=(i,)) for i in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_loses_no_updates(self):
        counter = Counter("c")
        per_thread = 50_000

        def worker(_index):
            for _ in range(per_thread):
                counter.inc()

        self._run_threads(2, worker)
        assert counter.value == 2 * per_thread

    def test_gauge_inc_dec_balance(self):
        gauge = Gauge("g")

        def worker(index):
            for _ in range(20_000):
                if index % 2:
                    gauge.inc()
                else:
                    gauge.dec()

        self._run_threads(4, worker)
        assert gauge.value == 0.0

    def test_histogram_observe_many_under_contention(self):
        histogram = Histogram("h")
        per_thread, chunk = 4000, 25

        def worker(index):
            base = [0.001 * (index + 1)] * chunk
            for _ in range(per_thread // chunk):
                histogram.observe_many(base)
                histogram.observe(1.0)

        threads = 4
        self._run_threads(threads, worker)
        expected = threads * (per_thread + per_thread // chunk)
        assert histogram.count == expected
        assert sum(histogram.bucket_counts()) == expected

    def test_registry_create_race_yields_one_metric(self):
        registry = MetricsRegistry()
        seen = [None] * 8

        def worker(index):
            seen[index] = registry.counter("shared")
            seen[index].inc()

        self._run_threads(8, worker)
        assert all(metric is seen[0] for metric in seen)
        assert registry.counter("shared").value == 8


class TestSerialization:
    """Locks are process-local: pickling drops them and restores fresh
    ones, so a DACE estimator carrying live metrics stays deepcopy-able.
    """

    def test_counter_roundtrip(self):
        import pickle
        counter = Counter("c", help="h")
        counter.inc(7)
        clone = pickle.loads(pickle.dumps(counter))
        assert clone.value == 7
        assert clone.name == "c"
        clone.inc(1)  # lock was recreated, inc still works
        assert clone.value == 8
        assert counter.value == 7

    def test_histogram_roundtrip(self):
        import pickle
        histogram = Histogram("h")
        histogram.observe_many([0.1, 1.0, 10.0])
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone.count == 3
        assert clone.bucket_counts() == histogram.bucket_counts()
        clone.observe(2.0)
        assert clone.count == 4
        assert histogram.count == 3

    def test_registry_roundtrip(self):
        import copy
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        with registry.span("s"):
            pass
        clone = copy.deepcopy(registry)
        assert clone.counter("a").value == 3
        clone.counter("a").inc()
        assert clone.counter("a").value == 4
        assert registry.counter("a").value == 3
        with clone.span("t"):  # thread-local span stack was recreated
            pass
