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

:func:`serve_fused` isolates cache-miss batching: plan-at-a-time
``predict_plan`` vs bucketed batches through
:class:`~repro.serve.fused.FusedInferStep`, with byte-identity asserted
before any throughput number is believed.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.bench.cache import get_workload1, pretrain_dace
from repro.bench.config import DEFAULT, BenchScale, remeasure_below
from repro.bench.timing import closed_loop, paired, seconds
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

    # Legacy loop: what every caller paid before the serving runtime.
    per_plan = lambda: seconds(lambda: [
        _legacy_predict_plan(dace.model, dace.encoder, plan)
        for plan in plans
    ])

    # One call per batch_size-plan chunk (cache off isolates batching).
    batch_size = dace.training.batch_size
    uncached = EstimatorService(
        dace.model, dace.encoder, batch_size=batch_size, cache_size=0,
    )
    chunked = paired(per_plan, lambda: seconds(lambda: [
        uncached.predict_plans(plans[start:start + batch_size])
        for start in range(0, n_plans, batch_size)
    ]))

    # One batched call, still uncached.
    batched = paired(per_plan,
                     lambda: seconds(lambda: uncached.predict_plans(plans)))

    # Warm cache: every plan served from the fingerprint LRU.
    cached_service = EstimatorService(
        dace.model, dace.encoder, batch_size=batch_size,
        cache_size=max(len(base_plans), 1),
    )
    cached_service.predict_plans(plans)            # warm
    cached_service.reset_stats()
    cached = paired(
        per_plan, lambda: seconds(lambda: cached_service.predict_plans(plans))
    )
    stats = cached_service.cache_stats

    paths = {"chunked": chunked, "batched": batched, "cached": cached}
    per_plan_s = min(pairs.a_seconds for pairs in paths.values())
    results = {"per-plan": {"plans_per_s": n_plans / per_plan_s,
                            "speedup": 1.0}}
    for name, pairs in paths.items():
        results[name] = {"plans_per_s": n_plans / pairs.b_seconds,
                         "speedup": pairs.ratio}

    table = format_table(
        ["path", "best plans/s", "speedup"],
        [[name, row["plans_per_s"], row["speedup"]]
         for name, row in results.items()],
        title=f"Serving throughput ({n_plans} plans, "
              f"batch={batch_size}, "
              f"cache hit rate {stats.hit_rate:.0%})",
    )
    return {
        "table": table,
        "results": results,
        "n_plans": n_plans,
        "chunked_speedup": chunked.ratio,
        "batched_speedup": batched.ratio,
        "batched_speedup_iqr": batched.iqr,
        "cached_speedup": cached.ratio,
        "cached_speedup_iqr": cached.iqr,
        "cache_hit_rate": stats.hit_rate,
    }


# Byte-identity is non-negotiable (batched == per-plan, and the fused
# step == the autograd forward), and bucketed fused batches (>= 32) must
# at least halve the cache-miss per-plan latency of plan-at-a-time
# serving.
@cell("fusedserve", checks={
    "bit_identical": lambda r, c: r["bit_identical"],
    "kernel_bit_identical": lambda r, c: r["kernel_bit_identical"],
    "batch_size": lambda r, c: r["batch_size"] >= 32,
    "fused_speedup": lambda r, c: r["fused_speedup"] >= MIN_FUSED_SPEEDUP,
})
def serve_fused(scale: BenchScale = DEFAULT) -> dict:
    """Fused bucket forwards vs plan-at-a-time serving.

    A run under the speedup gate is re-measured once; see
    :func:`_serve_fused_once` for the protocol.
    """
    result = remeasure_below(
        lambda: _serve_fused_once(scale), "fused_speedup", MIN_FUSED_SPEEDUP
    )
    return dict(result, min_fused_speedup=MIN_FUSED_SPEEDUP)


def _serve_fused_once(scale: BenchScale) -> dict:
    """One measurement of the two cache-miss serving paths.

    Two cache-miss paths over one workload of fingerprint-unique plans
    (uniqueness keeps in-call dedup from shrinking one side's work), both
    on default services:

    - **per-plan** — single-plan ``predict_plan`` calls, every plan
      paying its own encode and forward;
    - **batched fused** — ``predict_plans`` in padding buckets through
      :class:`~repro.serve.fused.FusedInferStep`.

    Both paths' predictions are checked byte-for-byte equal before any
    number is reported, and the fused step is checked and raced against
    the autograd ``DACEModel.forward`` on one padded bucket.  Every ratio
    is a :func:`~repro.bench.timing.paired` median; the cell's
    ``fused_speedup`` check holds per-plan over fused at >= 2x for
    batches >= 32.
    """
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

    def service() -> EstimatorService:
        return EstimatorService(
            dace.model, dace.encoder, batch_size=batch_size, cache_size=0,
        )

    per_plan = service()
    fused = service()

    # Byte-identity first: a speedup that moves bits is a wrong answer.
    reference = np.array([per_plan.predict_plan(plan) for plan in plans])
    identical = bool(np.array_equal(fused.predict_plans(plans), reference))

    # Fused step vs the autograd forward on one padded bucket.
    caught = [catch_plan(plan) for plan in plans]
    bucket = [c for c in caught if c.num_nodes <= PAD_BASE]
    bucket = (bucket or caught)[:batch_size]
    kernel_batch = dace.encoder.encode_batch(
        bucket, with_labels=False,
        pad_to=fused._pad_width(max(c.num_nodes for c in bucket)),
    )
    step = FusedInferStep(dace.model)

    def autograd_forward():
        with no_grad():
            return dace.model(kernel_batch).data

    kernel_identical = bool(np.array_equal(
        step.forward(kernel_batch), autograd_forward()
    ))

    fused_pairs = paired(
        lambda: seconds(lambda: [per_plan.predict_plan(plan)
                                 for plan in plans]),
        lambda: seconds(lambda: fused.predict_plans(plans)),
    )
    # One bucket's forward is well under a millisecond: more rounds.
    kernel_pairs = paired(
        lambda: seconds(autograd_forward),
        lambda: seconds(lambda: step.forward(kernel_batch)),
        rounds=6,
    )
    per_plan_s = fused_pairs.a_seconds
    fused_s = fused_pairs.b_seconds

    rows = [
        ["per-plan infer", per_plan_s / n_plans * 1e6, 1.0],
        ["batched fused", fused_s / n_plans * 1e6, fused_pairs.ratio],
    ]
    table = format_table(
        ["path", "best us/plan", "speedup"], rows,
        title=f"Fused serving forward ({n_plans} unique plans, "
              f"batch={batch_size}, cache-miss); paired-median fused "
              f"speedup {fused_pairs.ratio:.2f}x; kernel vs autograd "
              f"{kernel_pairs.ratio:.2f}x on ({len(bucket)}, "
              f"{kernel_batch.max_nodes}) bucket",
    )
    return {
        "table": table,
        "n_plans": n_plans,
        "batch_size": batch_size,
        "per_plan_seconds": per_plan_s,
        "fused_seconds": fused_s,
        "fused_speedup": fused_pairs.ratio,
        "fused_speedup_iqr": fused_pairs.iqr,
        "fused_speedup_ratios": fused_pairs.ratios,
        "kernel_speedup": kernel_pairs.ratio,
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

    The workload keeps only plans in the service's base padding bucket,
    so every request does identical padded work and each flush is
    exactly one forward: the comparison isolates request coalescing
    instead of mixing in the workload's bucket composition.  Every
    ``vs w=1`` figure, the headline ``miss_speedup_8`` among them, is a
    :func:`~repro.bench.timing.paired` median against the single-client
    pool on the same workload.
    """
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

    serial = EstimatorService(
        dace.model, dace.encoder, batch_size=batch_size, cache_size=0,
    )
    reference = serial.predict_plans(plans)

    def make_pool(workers: int, warm: bool) -> ConcurrentEstimatorService:
        cache = max(len(base_plans), 1) if warm else 0
        service = EstimatorService(
            dace.model, dace.encoder, batch_size=batch_size, cache_size=cache,
        )
        pool = ConcurrentEstimatorService(service, workers=workers)
        if warm:
            service.predict_plans(plans)
        return pool

    identical: Dict[tuple, List[bool]] = {}

    def replay(pool, label: str, workers: int):
        """A closed-loop measurement whose every answer is checked."""
        def measure():
            elapsed, out = closed_loop(
                lambda i: pool.predict_plan(plans[i]), n_plans, workers
            )
            identical.setdefault((label, workers), []).append(
                bool(np.array_equal(out, reference))
            )
            return elapsed, out
        return measure

    results: dict = {}
    pairs: dict = {}
    for warm, label in ((False, "cache-miss"), (True, "cache-hit")):
        pools = {workers: make_pool(workers, warm) for workers in (1, 4, 8)}
        for workers in (4, 8):
            pairs[label, workers] = paired(
                replay(pools[1], label, 1),
                replay(pools[workers], label, workers), pairs=7,
            )
        single_s = min(pairs[label, w].a_seconds for w in (4, 8))
        for workers, pool in pools.items():
            pool.close()
            versus = pairs.get((label, workers))    # None for w=1 itself
            results[f"{label}_w{workers}"] = {
                "plans_per_s": n_plans / (versus.b_seconds if versus
                                          else single_s),
                "speedup": versus.ratio if versus else 1.0,
                "mean_flush": pool.metrics.histogram(
                    "serve.pool.flush_size").mean,
                "bit_identical": all(identical[label, workers]),
            }
    miss, hit = pairs["cache-miss", 8], pairs["cache-hit", 8]

    table = format_table(
        ["workload", "best plans/s", "vs w=1", "mean flush",
         "bit-identical"],
        [[key.replace("_w", " w="), row["plans_per_s"], row["speedup"],
          row["mean_flush"], "yes" if row["bit_identical"] else "NO"]
         for key, row in results.items()],
        title=f"Concurrent serving throughput ({n_plans} plans, "
              f"closed-loop clients = workers, max_batch={batch_size}); "
              f"paired-median miss speedup w=8: {miss.ratio:.2f}x",
    )
    return {
        "table": table,
        "results": results,
        "n_plans": n_plans,
        "miss_speedup_8": miss.ratio,
        "miss_speedup_8_iqr": miss.iqr,
        "miss_speedup_ratios": miss.ratios,
        "hit_speedup_8": hit.ratio,
        "hit_speedup_8_iqr": hit.iqr,
        "all_bit_identical": all(map(all, identical.values())),
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
    hit, far below the run-to-run noise of a millisecond-scale pass.  So
    the :func:`~repro.bench.timing.paired` comparison repeats on freshly
    built service pairs and the median pair is kept: each service owns
    its cached arrays, and an unlucky heap layout biases every trial of
    one pair the same way, which no amount of interleaving can cancel.
    """
    dace = pretrain_dace(scale, exclude="imdb")
    base = get_workload1(scale)["imdb"]
    base_plans = [sample.plan for sample in base]
    n_plans = min(1000, max(5 * scale.queries_per_db, 5 * len(base_plans)))
    plans = [base_plans[i % len(base_plans)] for i in range(n_plans)]
    passes = 3

    def timed_passes(metrics):
        """A measurement of warm-cache passes through a fresh service."""
        service = EstimatorService(
            dace.model, dace.encoder, batch_size=dace.training.batch_size,
            cache_size=max(len(base_plans), 1), metrics=metrics,
        )
        service.predict_plans(plans)
        # Several passes per run: one warm-cache pass is only a few ms,
        # where allocator noise swamps a 5% effect.
        return lambda: seconds(
            lambda: [service.predict_plans(plans) for _ in range(passes)]
        )

    samples = sorted(
        (paired(timed_passes(MetricsRegistry()), timed_passes(NULL_REGISTRY),
                pairs=8, rounds=6) for _ in range(3)),
        key=lambda pairs: pairs.ratio,
    )
    median = samples[len(samples) // 2]
    null_s = median.b_seconds / passes
    live_s = median.a_seconds / passes
    overhead = median.ratio - 1.0

    table = format_table(
        ["path", "best warm ms", "best plans/s"],
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
        "overhead_iqr": [q - 1.0 for q in median.iqr],
    }
