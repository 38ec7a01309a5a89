"""Serving-runtime throughput: per-plan vs batched vs cached inference.

Quantifies what the ``repro.serve`` stack buys over the naive deployment
loop (encode one plan, run one autograd forward, repeat):

- **per-plan** — the legacy path: one encoded batch of size 1 and one
  graph-building forward per plan;
- **chunked** — ``predict_plans`` on an (uncached) EstimatorService, one
  call per ``batch_size``-plan chunk of the workload: batched, graph-free
  inference for callers that hand over a batch at a time;
- **batched** — one ``predict_plans`` call over the whole workload on the
  same uncached service: size-sorted chunks through ``model.infer``;
- **cached** — a warm EstimatorService serving the whole workload from
  its fingerprint LRU.

:func:`serve_fused` isolates the serving *forward* dispatch: plan-at-a-
time per-layer ``Module.infer`` vs bucketed batches through the fused
structure-of-arrays kernel (:class:`~repro.serve.fused.FusedInferStep`),
with byte-identity asserted before any throughput number is believed.
"""

from __future__ import annotations

import threading
import time
from typing import List

import numpy as np

from repro.bench.cache import get_workload1, pretrain_dace
from repro.bench.config import DEFAULT, BenchScale, remeasure_below
from repro.experiments.registry import cell
from repro.featurize.catcher import catch_plan
from repro.metrics.tables import format_table
from repro.nn import no_grad
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve import ConcurrentEstimatorService, EstimatorService
from repro.serve.service import PAD_BASE

#: Warm-cache serving must be at least this much faster than per-plan.
MIN_CACHED_SPEEDUP = 5.0
#: Bucketed fused batches must at least halve per-plan cache-miss latency.
MIN_FUSED_SPEEDUP = 2.0
#: 8 closed-loop clients must reach this multiple of 1 client on misses.
MIN_MISS_SPEEDUP = 2.0
#: A live MetricsRegistry may cost at most this over NULL_REGISTRY.
MAX_OBS_OVERHEAD = 0.05


def _legacy_predict_plan(model, encoder, plan) -> float:
    """The seed's per-plan path: encode a batch of one, autograd forward."""
    batch = encoder.encode_batch([catch_plan(plan)], with_labels=False)
    with no_grad():
        pred = model(batch)
    return float(pred.data[0, 0])


# Warm-cache (and batched) serving is at least 5x the naive per-plan
# loop on a ~1k-plan workload.
@cell("serving", checks={
    "cached_speedup": lambda r, c: r["cached_speedup"] >= MIN_CACHED_SPEEDUP,
    "batched_speedup": lambda r, c: r["batched_speedup"] >= 1.0,
    "cache_hit_rate": lambda r, c: r["cache_hit_rate"] == 1.0,
})
def serve_throughput(scale: BenchScale = DEFAULT) -> dict:
    """Plans/sec of the serving paths over a repeated-plan workload."""
    dace = pretrain_dace(scale, exclude="imdb")
    base = get_workload1(scale)["imdb"]
    base_plans = [sample.plan for sample in base]
    # Tile up to a ~1k-plan workload: a serving process sees the same plan
    # shapes again and again, which is exactly what the cache exploits.
    n_plans = min(1000, max(5 * scale.queries_per_db, 5 * len(base_plans)))
    plans = [base_plans[i % len(base_plans)] for i in range(n_plans)]

    def timed(fn, rounds: int = 1) -> float:
        # Fast paths finish a pass in single-digit ms, where one
        # scheduler preemption can halve the measured rate: keep the
        # best of a few rounds for those.
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return n_plans / best

    # Legacy loop: what every caller paid before the serving runtime.
    single_qps = timed(lambda: [
        _legacy_predict_plan(dace.model, dace.encoder, plan)
        for plan in plans
    ])

    # One call per batch_size-plan chunk (cache off isolates batching).
    batch_size = dace.training.batch_size
    uncached = EstimatorService(
        dace.model, dace.encoder, batch_size=batch_size, cache_size=0,
    )
    chunked_qps = timed(lambda: [
        uncached.predict_plans(plans[start:start + batch_size])
        for start in range(0, n_plans, batch_size)
    ])

    # One batched call, still uncached.
    batched_qps = timed(lambda: uncached.predict_plans(plans), rounds=3)

    # Warm cache: every plan served from the fingerprint LRU.
    cached = EstimatorService(
        dace.model, dace.encoder, batch_size=batch_size,
        cache_size=max(len(base_plans), 1),
    )
    cached.predict_plans(plans)            # warm
    cached.reset_stats()
    cached_qps = timed(lambda: cached.predict_plans(plans), rounds=3)
    stats = cached.cache_stats

    rows: List[list] = []
    results = {}
    for name, qps in [("per-plan", single_qps),
                      ("chunked", chunked_qps),
                      ("batched", batched_qps),
                      ("cached", cached_qps)]:
        rows.append([name, qps, qps / single_qps])
        results[name] = {"plans_per_s": qps, "speedup": qps / single_qps}

    table = format_table(
        ["path", "plans/s", "speedup"], rows,
        title=f"Serving throughput ({n_plans} plans, "
              f"batch={batch_size}, "
              f"cache hit rate {stats.hit_rate:.0%})",
    )
    return {
        "table": table,
        "results": results,
        "n_plans": n_plans,
        "chunked_speedup": chunked_qps / single_qps,
        "batched_speedup": batched_qps / single_qps,
        "cached_speedup": cached_qps / single_qps,
        "cache_hit_rate": stats.hit_rate,
    }


# Byte-identity is non-negotiable (fused == per-layer == per-plan), and
# bucketed fused batches (>= 32) must at least halve the cache-miss
# per-plan latency of plan-at-a-time Module.infer serving.
@cell("fusedserve", checks={
    "bit_identical": lambda r, c: r["bit_identical"],
    "kernel_bit_identical": lambda r, c: r["kernel_bit_identical"],
    "batch_size": lambda r, c: r["batch_size"] >= 32,
    "fused_speedup": lambda r, c: r["fused_speedup"] >= MIN_FUSED_SPEEDUP,
})
def serve_fused(scale: BenchScale = DEFAULT) -> dict:
    """Fused bucket forwards vs plan-at-a-time ``Module.infer`` serving.

    A run under the speedup gate is re-measured once; see
    :func:`_serve_fused_once` for the protocol.
    """
    result = remeasure_below(
        lambda: _serve_fused_once(scale), "fused_speedup", MIN_FUSED_SPEEDUP
    )
    return dict(result, min_fused_speedup=MIN_FUSED_SPEEDUP)


def _serve_fused_once(scale: BenchScale) -> dict:
    """One measurement of the three cache-miss serving paths.

    Three cache-miss paths over one workload of fingerprint-unique plans
    (uniqueness keeps in-call dedup from shrinking one side's work):

    - **per-plan** — single-plan ``predict_plan`` calls through a
      ``fused=False`` service: the serving hot path before this kernel,
      every plan paying its own encode + per-layer ``Module.infer``;
    - **batched per-layer** — ``predict_plans`` with ``fused=False``:
      bucketed batching, per-layer forward;
    - **batched fused** — ``predict_plans`` through the
      :class:`~repro.serve.fused.FusedInferStep` kernel (the default).

    Every path's predictions are checked byte-for-byte equal before any
    number is reported, and the kernel itself is raced against
    ``model.infer`` on one padded bucket.  The headline ratio uses the
    same interleaved-pairs protocol as :func:`serve_concurrency`
    (machine-wide drift hits both sides of a pair and cancels); the
    cell's ``fused_speedup`` check holds it at >= 2x for batches >= 32.
    """
    import gc
    import statistics

    from repro.serve.fused import FusedInferStep

    dace = pretrain_dace(scale, exclude="imdb")
    base = get_workload1(scale)["imdb"]
    seen, plans = set(), []
    for sample in base:
        fingerprint = catch_plan(sample.plan).fingerprint()
        if fingerprint not in seen:
            seen.add(fingerprint)
            plans.append(sample.plan)
    n_plans = len(plans)
    batch_size = max(32, dace.training.batch_size)

    def service(fused) -> EstimatorService:
        return EstimatorService(
            dace.model, dace.encoder, batch_size=batch_size,
            cache_size=0, fused=fused,
        )

    per_plan = service(False)
    per_layer = service(False)
    fused = service(None)
    assert fused.fused_active

    # Byte-identity first: a speedup that moves bits is a wrong answer.
    reference = np.array([per_plan.predict_plan(plan) for plan in plans])
    identical = (
        bool(np.array_equal(per_layer.predict_plans(plans), reference))
        and bool(np.array_equal(fused.predict_plans(plans), reference))
    )

    # Kernel vs per-layer forward on one padded bucket (model work only).
    caught = [catch_plan(plan) for plan in plans]
    bucket = [c for c in caught if c.num_nodes <= PAD_BASE]
    bucket = (bucket or caught)[:batch_size]
    kernel_batch = dace.encoder.encode_batch(
        bucket, with_labels=False,
        pad_to=fused._pad_width(max(c.num_nodes for c in bucket)),
    )
    step = FusedInferStep(dace.model)
    kernel_identical = bool(np.array_equal(
        step.forward(kernel_batch), dace.model.infer(kernel_batch)
    ))

    def best_of(fn, rounds: int) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    run_per_plan = lambda: [per_plan.predict_plan(plan) for plan in plans]
    run_per_layer = lambda: per_layer.predict_plans(plans)
    run_fused = lambda: fused.predict_plans(plans)
    run_infer = lambda: dace.model.infer(kernel_batch)
    run_kernel = lambda: step.forward(kernel_batch)

    gc.collect()
    gc.disable()
    try:
        for warm in (run_per_plan, run_per_layer, run_fused):
            warm()
        # Interleaved pairs: per-plan vs fused, median ratio across pairs.
        ratios = []
        per_plan_s = per_layer_s = fused_s = float("inf")
        for _ in range(5):
            pair_plan = best_of(run_per_plan, 2)
            pair_fused = best_of(run_fused, 2)
            per_plan_s = min(per_plan_s, pair_plan)
            fused_s = min(fused_s, pair_fused)
            ratios.append(pair_plan / pair_fused)
        per_layer_s = best_of(run_per_layer, 4)
        infer_s = best_of(run_infer, 30)
        kernel_s = best_of(run_kernel, 30)
    finally:
        gc.enable()
    fused_speedup = statistics.median(ratios)

    rows = [
        ["per-plan infer", per_plan_s / n_plans * 1e6, 1.0],
        ["batched per-layer", per_layer_s / n_plans * 1e6,
         per_plan_s / per_layer_s],
        ["batched fused", fused_s / n_plans * 1e6, per_plan_s / fused_s],
    ]
    table = format_table(
        ["path", "us/plan", "speedup"], rows,
        title=f"Fused serving forward ({n_plans} unique plans, "
              f"batch={batch_size}, cache-miss); paired-median fused "
              f"speedup {fused_speedup:.2f}x; kernel vs infer "
              f"{infer_s / kernel_s:.2f}x on ({len(bucket)}, "
              f"{kernel_batch.max_nodes}) bucket",
    )
    return {
        "table": table,
        "n_plans": n_plans,
        "batch_size": batch_size,
        "per_plan_seconds": per_plan_s,
        "per_layer_seconds": per_layer_s,
        "fused_seconds": fused_s,
        "fused_speedup": fused_speedup,
        "fused_speedup_ratios": ratios,
        "batched_speedup": per_plan_s / per_layer_s,
        "kernel_speedup": infer_s / kernel_s,
        "bit_identical": identical,
        "kernel_bit_identical": kernel_identical,
    }


# Coalesced batches must answer byte for byte what the serial path
# answers; dynamic batching must turn 8-way contention into >= 2x the
# single-client pool's cache-miss throughput; and the warm-cache path
# must not regress under concurrency.
@cell("concurrency", checks={
    "all_bit_identical": lambda r, c: r["all_bit_identical"],
    "miss_speedup_8": lambda r, c: r["miss_speedup_8"] >= MIN_MISS_SPEEDUP,
    "hit_speedup_8": lambda r, c: r["hit_speedup_8"] >= 1.0,
})
def serve_concurrency(scale: BenchScale = DEFAULT) -> dict:
    """Closed-loop concurrent throughput through the worker-pool front-end.

    A run under the miss-speedup gate is re-measured once; see
    :func:`_serve_concurrency_once` for the protocol.
    """
    result = remeasure_below(
        lambda: _serve_concurrency_once(scale), "miss_speedup_8",
        MIN_MISS_SPEEDUP,
    )
    return dict(result, min_miss_speedup=MIN_MISS_SPEEDUP)


def _serve_concurrency_once(scale: BenchScale) -> dict:
    """One measurement of the worker pool under closed-loop clients.

    For each worker count, that many closed-loop clients hammer a
    :class:`~repro.serve.ConcurrentEstimatorService` with single-plan
    calls — the concurrency level *is* the offered batch opportunity, so
    this measures what dynamic batching converts contention into.  Two
    workloads: **cache-miss** (``cache_size=0``; every request pays
    encode + forward, coalescing is the only lever) and **cache-hit** (a
    pre-warmed fingerprint LRU; the pool only adds queue handoff).

    Every cache-miss run's predictions are checked byte-for-byte against
    the plain serial ``EstimatorService`` — the padding buckets make
    coalesced batches bit-identical to the serial path, whatever the
    request interleaving.

    Measurement notes.  The workload keeps only plans in the service's
    base padding bucket, so every request does identical padded work and
    each flush is exactly one forward — the comparison isolates request
    coalescing instead of mixing in the workload's bucket composition.
    The headline ``miss_speedup_8`` uses interleaved measurement pairs
    (w=1 then w=8, each the best of two passes, median ratio across
    pairs): machine-wide slowdowns hit both sides of a pair and cancel,
    where a single w=1/w=8 comparison taken seconds apart would not.
    The garbage collector is paused while the clock runs — a gen-0 sweep
    landing inside one side of a pair is pure noise.
    """
    import gc
    import statistics

    from repro.featurize.catcher import catch_plan

    dace = pretrain_dace(scale, exclude="imdb")
    base = get_workload1(scale)["imdb"]
    # One padding bucket: identical per-request work (see docstring).
    bucket_plans = [
        sample.plan for sample in base
        if catch_plan(sample.plan).num_nodes <= PAD_BASE
    ]
    base_plans = bucket_plans or [sample.plan for sample in base]
    # Longer runs than the other serving benches: the paired-ratio
    # protocol divides two noisy timings, so each side needs enough work
    # for scheduler hiccups to average out.
    n_plans = min(1200, max(10 * scale.queries_per_db,
                            10 * len(base_plans)))
    plans = [base_plans[i % len(base_plans)] for i in range(n_plans)]
    batch_size = dace.training.batch_size

    # The reference is pinned to the per-layer path (fused=False): the
    # pools below serve through the fused kernel, so byte-equality here
    # re-proves fused == per-layer on every concurrent run, not just
    # pool == serial.
    serial = EstimatorService(
        dace.model, dace.encoder, batch_size=batch_size, cache_size=0,
        fused=False,
    )
    reference = serial.predict_plans(plans)

    def run_clients(pool, workers) -> tuple:
        out = [0.0] * n_plans
        # workers + 1: the main thread joins the barrier too, so the
        # clock starts when every client is spawned and ready — thread
        # start-up cost stays off the measurement.
        barrier = threading.Barrier(workers + 1)

        def client(offset: int) -> None:
            barrier.wait()
            for i in range(offset, n_plans, workers):
                out[i] = pool.predict_plan(plans[i])

        clients = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(workers)
        ]
        for thread in clients:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in clients:
            thread.join()
        return time.perf_counter() - start, out

    def make_pool(workers: int, warm: bool) -> ConcurrentEstimatorService:
        cache = max(len(base_plans), 1) if warm else 0
        service = EstimatorService(
            dace.model, dace.encoder, batch_size=batch_size, cache_size=cache,
        )
        pool = ConcurrentEstimatorService(service, workers=workers)
        if warm:
            service.predict_plans(plans)
        return pool

    identical_flags: List[bool] = []

    def check(out) -> None:
        identical_flags.append(bool(np.array_equal(out, reference)))

    worker_counts = (1, 4, 8)
    rows: List[list] = []
    results: dict = {}
    gc.collect()
    gc.disable()
    try:
        for warm, label in ((False, "cache-miss"), (True, "cache-hit")):
            base_qps = None
            for workers in worker_counts:
                pool = make_pool(workers, warm)
                run_clients(pool, workers)  # warm memos and pool threads
                best, out = float("inf"), None
                for _ in range(3):
                    elapsed, out = run_clients(pool, workers)
                    best = min(best, elapsed)
                check(out)
                flush = pool.metrics.histogram("serve.pool.flush_size")
                mean_flush = flush.mean
                pool.close()
                qps = n_plans / best
                if base_qps is None:
                    base_qps = qps
                rows.append([
                    f"{label} w={workers}", qps, qps / base_qps, mean_flush,
                    "yes" if identical_flags[-1] else "NO",
                ])
                results[f"{label}_w{workers}"] = {
                    "plans_per_s": qps,
                    "speedup": qps / base_qps,
                    "mean_flush": mean_flush,
                    "bit_identical": identical_flags[-1],
                }

        # Headline ratio: interleaved pairs, median across pairs.
        pool_1 = make_pool(1, warm=False)
        pool_8 = make_pool(8, warm=False)
        run_clients(pool_1, 1)
        run_clients(pool_8, 8)
        ratios: List[float] = []
        for _ in range(7):
            best_1 = best_8 = float("inf")
            for _ in range(2):
                elapsed, out = run_clients(pool_1, 1)
                best_1 = min(best_1, elapsed)
            check(out)
            for _ in range(2):
                elapsed, out = run_clients(pool_8, 8)
                best_8 = min(best_8, elapsed)
            check(out)
            ratios.append(best_1 / best_8)
        pool_1.close()
        pool_8.close()
    finally:
        gc.enable()
    miss_speedup_8 = statistics.median(ratios)

    table = format_table(
        ["workload", "plans/s", "vs w=1", "mean flush", "bit-identical"],
        rows,
        title=f"Concurrent serving throughput ({n_plans} plans, "
              f"closed-loop clients = workers, max_batch={batch_size}); "
              f"paired-median miss speedup w=8: {miss_speedup_8:.2f}x",
    )
    return {
        "table": table,
        "results": results,
        "n_plans": n_plans,
        "miss_speedup_8": miss_speedup_8,
        "miss_speedup_ratios": ratios,
        "hit_speedup_8": results["cache-hit_w8"]["speedup"],
        "all_bit_identical": all(identical_flags),
    }


@cell("obsoverhead", checks={
    "overhead": lambda r, c: r["overhead"] <= MAX_OBS_OVERHEAD,
})
def obs_overhead(scale: BenchScale = DEFAULT) -> dict:
    """Instrumentation cost on the warm-cache serving path.

    Serves the same workload from pairs of identically-warmed services —
    one on a live :class:`~repro.obs.MetricsRegistry`, one on the no-op
    ``NULL_REGISTRY`` — and reports the relative slowdown.  The serving
    contract caps it at 5%: observability must never show up in the
    latency it exists to explain.

    Measurement notes: the true cost is tens of nanoseconds per cache
    hit, far below the run-to-run noise of a millisecond-scale pass, so
    three layers of noise control are stacked.  Trials alternate
    null/live (cancels CPU frequency drift), each path keeps its minimum
    (discards scheduler preemption), and the whole comparison repeats on
    freshly built service pairs with the median taken — each service
    owns its cached arrays, and an unlucky heap layout biases every
    trial of one run the same way, which no amount of interleaving can
    cancel.
    """
    dace = pretrain_dace(scale, exclude="imdb")
    base = get_workload1(scale)["imdb"]
    base_plans = [sample.plan for sample in base]
    n_plans = min(1000, max(5 * scale.queries_per_db, 5 * len(base_plans)))
    plans = [base_plans[i % len(base_plans)] for i in range(n_plans)]

    def warm_service(metrics) -> EstimatorService:
        service = EstimatorService(
            dace.model, dace.encoder, batch_size=dace.training.batch_size,
            cache_size=max(len(base_plans), 1), metrics=metrics,
        )
        service.predict_plans(plans)
        return service

    def timed(service, passes: int = 3) -> float:
        # Time several passes per trial: one warm-cache pass is only a
        # few ms, where timer granularity and allocator noise swamp a
        # 5% effect.
        start = time.perf_counter()
        for _ in range(passes):
            service.predict_plans(plans)
        return (time.perf_counter() - start) / passes

    def measure_pair() -> tuple:
        instrumented = warm_service(MetricsRegistry())
        uninstrumented = warm_service(NULL_REGISTRY)
        timed(uninstrumented, passes=1)
        timed(instrumented, passes=1)
        null_s = live_s = float("inf")
        for _ in range(6):
            null_s = min(null_s, timed(uninstrumented))
            live_s = min(live_s, timed(instrumented))
        return null_s, live_s

    samples = [measure_pair() for _ in range(3)]
    samples.sort(key=lambda pair: pair[1] / pair[0])
    null_s, live_s = samples[len(samples) // 2]
    overhead = live_s / null_s - 1.0

    table = format_table(
        ["path", "warm ms", "plans/s"],
        [["null registry", null_s * 1e3, n_plans / null_s],
         ["instrumented", live_s * 1e3, n_plans / live_s]],
        title=f"Instrumentation overhead ({n_plans} warm-cache plans): "
              f"{overhead:+.2%}",
    )
    return {
        "table": table,
        "n_plans": n_plans,
        "null_seconds": null_s,
        "instrumented_seconds": live_s,
        "overhead": overhead,
    }
