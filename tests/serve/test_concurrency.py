"""Race-hunting stress suite for the concurrent serving stack.

Every test here uses barrier-synchronized threads so contention starts at
the worst possible moment, and runs with a tiny interpreter switch
interval so the GIL rotates mid-operation as often as possible.  The
invariants checked are the ones a lost update or a stranded handle would
break:

- cache accounting balances (``hits + misses == lookups``) and no
  written entry is lost;
- every ``PoolPrediction`` resolves or rejects —
  none hang;
- concurrent results are byte-identical to the serial path.

``REPRO_STRESS_SEED`` (int) reshuffles the plan orderings so repeated CI
runs explore different interleavings; the default is 0.
"""

import copy
import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import DACEModel
from repro.bench.chaos import ChaosConfig, ChaosEstimator
from repro.featurize import PlanEncoder, catch_plan
from repro.obs import MetricsRegistry
from repro.serve import (
    ConcurrentEstimatorService,
    CostFallback,
    EstimatorService,
    LRUCache,
    ResilientEstimator,
)

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))
THREADS = 8


@pytest.fixture(scope="module")
def setup(train_datasets):
    plans = [s.plan for s in train_datasets[0]]
    caught = [catch_plan(p) for p in plans]
    encoder = PlanEncoder().fit(caught)
    model = DACEModel(rng=np.random.default_rng(21))
    rng = np.random.default_rng(STRESS_SEED)
    order = rng.permutation(len(plans))
    shuffled = [plans[i] for i in order]
    return model, encoder, shuffled


@pytest.fixture()
def fast_switching():
    """Force GIL handoffs every ~10us so races have room to happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def _hammer(workers, target):
    """Run ``target(worker_index)`` on N threads behind a start barrier,
    re-raising the first worker exception (threads must not die silently).
    """
    barrier = threading.Barrier(workers)
    errors = []

    def wrapped(index):
        barrier.wait()
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return True


class TestServiceHammer:
    def test_concurrent_predictions_bitwise_equal_serial(
        self, setup, fast_switching
    ):
        model, encoder, plans = setup
        serial = EstimatorService(model, encoder, batch_size=16,
                                  cache_size=0)
        reference = serial.predict_plans(plans)
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=len(plans))
        results = [None] * THREADS

        def client(index):
            # Every thread predicts the full workload in its own rotated
            # order, so cache hits and misses interleave across threads.
            rotated = plans[index:] + plans[:index]
            out = np.empty(len(plans))
            for position, plan in enumerate(rotated):
                out[(position + index) % len(plans)] = (
                    service.predict_plan(plan)
                )
            results[index] = out

        _hammer(THREADS, client)
        for out in results:
            np.testing.assert_array_equal(out, reference)

    def test_cache_accounting_balances(self, setup, fast_switching):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=len(plans))
        per_thread = len(plans)

        def client(index):
            rotated = plans[index:] + plans[:index]
            for plan in rotated:
                service.predict_plan(plan)

        _hammer(THREADS, client)
        stats = service.cache_stats
        # Every request is exactly one lookup; a lost update under
        # contention would break the balance.
        assert stats.hits + stats.misses == THREADS * per_thread
        # The cache holds every distinct fingerprint: after the first
        # resolution of a plan, no further miss for it may be recorded.
        distinct = len({catch_plan(p).fingerprint() for p in plans})
        assert stats.misses <= distinct * THREADS  # no runaway misses
        assert stats.hits >= THREADS * per_thread - distinct * THREADS


class TestCacheHammer:
    def test_no_lost_entries(self, fast_switching):
        cache = LRUCache(capacity=THREADS * 50)
        per_thread = 50

        def client(index):
            for i in range(per_thread):
                key = (index, i)
                cache.put(key, index * 1000 + i)
                assert cache.get(key) == index * 1000 + i

        _hammer(THREADS, client)
        # Capacity covers every insert: nothing may have been evicted or
        # lost, and the recency list must agree with the entry count.
        assert len(cache) == THREADS * per_thread
        for index in range(THREADS):
            for i in range(per_thread):
                assert cache.get((index, i)) == index * 1000 + i
        assert cache.stats.evictions == 0

    def test_capacity_respected_under_contention(self, fast_switching):
        cache = LRUCache(capacity=16)

        def client(index):
            for i in range(200):
                cache.put((index, i % 32), i)
                cache.get((index, (i + 7) % 32))
                assert len(cache) <= 16

        _hammer(THREADS, client)
        assert len(cache) <= 16
        lookups = cache.stats.hits + cache.stats.misses
        assert lookups == THREADS * 200


class TestPoolHammer:
    def test_pool_bitwise_equal_serial(self, setup, fast_switching):
        model, encoder, plans = setup
        serial = EstimatorService(model, encoder, batch_size=16,
                                  cache_size=0)
        reference = serial.predict_plans(plans)
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)
        results = [None] * THREADS
        with ConcurrentEstimatorService(service, workers=4) as pool:

            def client(index):
                rotated_idx = list(range(index, len(plans))) + list(
                    range(index)
                )
                out = np.empty(len(plans))
                for i in rotated_idx:
                    out[i] = pool.predict_plan(plans[i])
                results[index] = out

            _hammer(THREADS, client)
        for out in results:
            np.testing.assert_array_equal(out, reference)

    def test_every_submission_is_accounted(self, setup, fast_switching):
        model, encoder, plans = setup
        reference = EstimatorService(
            model, encoder, batch_size=16, cache_size=0
        ).predict_plans(plans)
        total = THREADS * 40
        # mixed=True: odd clients send multi-plan predict_plans requests
        # of 1..8 plans while even clients submit single plans, so the
        # drain coalesces requests of every size.
        for mixed in (False, True):
            service = EstimatorService(model, encoder, batch_size=16,
                                       cache_size=0)
            answers = [None] * THREADS
            with ConcurrentEstimatorService(service, workers=4) as pool:

                def client(index, mixed=mixed, pool=pool, answers=answers):
                    order = [(index + k) % len(plans) for k in range(40)]
                    values = []
                    if mixed and index % 2:
                        sizes = itertools.cycle(range(1, 9))
                        start = 0
                        while start < len(order):
                            chunk = order[start:start + next(sizes)]
                            values.extend(pool.predict_plans(
                                [plans[i] for i in chunk]))
                            start += len(chunk)
                    else:
                        handles = [pool.submit(plans[i]) for i in order]
                        for handle in handles:
                            values.append(handle.result(timeout=60))
                            assert handle.done and not handle.failed
                    answers[index] = (order, values)

                _hammer(THREADS, client)
                requests = pool.metrics.counter("serve.pool.requests").value
                flushes = pool.metrics.histogram("serve.pool.flush_size")
                assert requests == total
                assert flushes.count >= 1
                assert int(flushes.sum) == total
            for order, values in answers:
                np.testing.assert_array_equal(np.asarray(values),
                                              reference[order])

    def test_submit_after_close_raises(self, setup):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16)
        pool = ConcurrentEstimatorService(service, workers=2)
        assert pool.predict_plan(plans[0]) > 0
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(plans[0])

    def test_failing_service_rejects_all_handles(self, setup,
                                                 fast_switching):
        model, encoder, plans = setup

        class ExplodingService:
            batch_size = 8
            metrics = None

            def predict_caught(self, batch):
                raise ValueError("boom")

        with ConcurrentEstimatorService(
            ExplodingService(), workers=4
        ) as pool:

            def client(index):
                handle = pool.submit(plans[index])
                with pytest.raises(ValueError, match="boom"):
                    handle.result(timeout=60)
                assert handle.failed
                assert isinstance(handle.exception(), ValueError)

            _hammer(THREADS, client)


class TestRequestQueue:
    """The pool's unit of work is the request: one ``predict_plans`` call
    is enqueued, coalesced and resolved whole."""

    def test_lone_caller_never_waits_out_gather(self, setup):
        # A request smaller than the last must not wait gather_s for
        # plans its caller, blocked on the answer, can never send.
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)
        with ConcurrentEstimatorService(service, workers=2) as pool:
            pool.gather_s = 0.2
            pool.predict_plans(plans[:8])
            start = time.perf_counter()
            pool.predict_plans(plans[8:10])
            elapsed = time.perf_counter() - start
            flushes = pool.metrics.histogram("serve.pool.flush_size")
            assert flushes.count == 2  # one flush per call
        assert elapsed < 0.1

    def test_oversized_request_flushes_in_order(self, setup):
        model, encoder, plans = setup
        max_batch = 8
        sample = (plans * 2)[:3 * max_batch + 5]
        reference = EstimatorService(
            model, encoder, batch_size=16, cache_size=0
        ).predict_plans(sample)
        served = []

        class Recording(EstimatorService):
            def predict_caught(self, caught):
                served.append(list(caught))
                return super().predict_caught(caught)

        service = Recording(model, encoder, batch_size=16, cache_size=0)
        with ConcurrentEstimatorService(
            service, workers=2, max_batch=max_batch
        ) as pool:
            got = pool.predict_plans(sample)
            flushes = pool.metrics.histogram("serve.pool.flush_size")
            assert flushes.max == max_batch
            assert flushes.count == 4
            expected = [pool._catch(plan) for plan in sample]
        np.testing.assert_array_equal(got, reference)
        assert [len(call) for call in served] == [max_batch] * 3 + [5]
        flat = [caught for call in served for caught in call]
        assert all(a is b for a, b in zip(flat, expected))

    def test_short_answer_rejects_the_batch(self, setup):
        model, encoder, plans = setup

        class ShortService:
            batch_size = 8
            metrics = None

            def predict_caught(self, batch):
                return np.ones(len(batch) - 1)

        with ConcurrentEstimatorService(ShortService(), workers=1) as pool:
            with pytest.raises(ValueError, match="2 values for 3 plans"):
                pool.predict_plans(plans[:3])

    def test_empty_requests_schedule_no_drain(self, setup):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)

        class CountingExecutor:
            def __init__(self, inner):
                self.inner, self.submits = inner, 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                return self.inner.submit(*args, **kwargs)

            def shutdown(self, wait=True):
                self.inner.shutdown(wait=wait)

        with ConcurrentEstimatorService(service, workers=1) as pool:
            executor = pool._pool = CountingExecutor(pool._pool)
            for empty in (pool.predict_plans([]), pool.predict_caught([])):
                assert empty.dtype == np.float64 and empty.shape == (0,)
            assert executor.submits == 0
            assert pool.metrics.histogram(
                "serve.pool.flush_size").count == 0
            assert pool.predict_plans(plans[:1]).shape == (1,)
            assert executor.submits == 1


class TestPoolComposition:
    """The pool must respect the wrappers it is stacked on: no fast path
    may sneak past resilience or chaos tiers, and it writes nothing into
    the service it wraps."""

    def test_pool_over_resilient_keeps_fault_tolerance(self, setup):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)
        # error_rate=1.0: every learned-path call raises, so a correct
        # composition answers from the cost fallback; a pool reaching
        # service.predict_caught directly would answer healthily with
        # zero injected faults.
        chaos = ChaosEstimator(service, ChaosConfig(error_rate=1.0, seed=3))
        resilient = ResilientEstimator(chaos, metrics=MetricsRegistry())
        sample = plans[:6]
        expected = CostFallback().predict_plans(sample)
        with ConcurrentEstimatorService(resilient, workers=2) as pool:
            got = np.array([pool.predict_plan(plan) for plan in sample])
        np.testing.assert_array_equal(got, expected)
        assert chaos.injected["error"] > 0  # chaos tier actually ran
        assert resilient.degraded_fraction == 1.0

    def test_caught_fast_path_requires_genuine_method(self, setup):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16)

        class PlansOnly:
            """Speaks plans only; defines no predict_caught."""

            def __init__(self, inner):
                self._inner = inner

            def predict_plans(self, batch):
                return self._inner.predict_plans(batch)

        with pytest.raises(TypeError, match="PlansOnly"):
            ConcurrentEstimatorService(PlansOnly(service), workers=1)
        expected = service.predict_plans(plans[:3])
        for tier in (service,
                     ResilientEstimator(service, metrics=MetricsRegistry())):
            with ConcurrentEstimatorService(tier, workers=1) as pool:
                np.testing.assert_array_equal(
                    pool.predict_plans(plans[:3]), expected)

    def test_deepcopy_builds_a_fresh_pool(self, setup):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)
        pool = ConcurrentEstimatorService(service, workers=4)
        try:
            clone = copy.deepcopy(pool)
            try:
                assert clone.service is not service
                assert clone._pool is not pool._pool
                np.testing.assert_array_equal(
                    clone.predict_plans(plans[:4]),
                    pool.predict_plans(plans[:4]),
                )
            finally:
                clone.close()
            assert pool.predict_plan(plans[0]) > 0  # original still serves
        finally:
            pool.close()

    def test_pool_leaves_the_wrapped_service_untouched(self, setup):
        model, encoder, plans = setup
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)
        before = dict(vars(service))

        def unchanged():
            after = vars(service)
            return after.keys() == before.keys() and all(
                after[name] is value for name, value in before.items()
            )

        with ConcurrentEstimatorService(service, workers=4) as pool:
            pool.predict_plans(plans[:40])
            assert unchanged()
        assert unchanged()


class TestDeterminism:
    """Satellite (d): worker count must never show up in the bits."""

    def test_workers_8_vs_1_vs_plain_service(self, setup):
        model, encoder, plans = setup
        sample = (plans * 2)[:200]
        plain = EstimatorService(model, encoder, batch_size=16,
                                 cache_size=0)
        reference = plain.predict_plans(sample)

        for workers in (1, 8):
            service = EstimatorService(model, encoder, batch_size=16,
                                       cache_size=0)
            with ConcurrentEstimatorService(
                service, workers=workers
            ) as pool:
                out = [0.0] * len(sample)
                barrier = threading.Barrier(workers)

                def client(offset, workers=workers, pool=pool, out=out):
                    barrier.wait()
                    for i in range(offset, len(sample), workers):
                        out[i] = pool.predict_plan(sample[i])

                threads = [
                    threading.Thread(target=client, args=(offset,))
                    for offset in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            np.testing.assert_array_equal(np.asarray(out), reference)

    def test_batch_composition_does_not_change_bits(self, setup):
        """The padding buckets make each plan's forward independent of
        its batch neighbours: single-plan calls, odd-sized batches, and
        one big batch all answer identically."""
        model, encoder, plans = setup
        subset = plans[:24]
        service = EstimatorService(model, encoder, batch_size=16,
                                   cache_size=0)
        whole = service.predict_plans(subset)
        singles = np.array(
            [service.predict_plan(plan) for plan in subset]
        )
        np.testing.assert_array_equal(singles, whole)
        chunked = np.concatenate([
            service.predict_plans(subset[start:start + 5])
            for start in range(0, len(subset), 5)
        ])
        np.testing.assert_array_equal(chunked, whole)
