"""Fleet serving: multi-tenant zipf replay across shard counts.

What sharding buys on this box is *aggregate cache capacity with
affinity*, and this bench measures exactly that.  Every fleet shard
carries a bounded ``(tenant, fingerprint)``-keyed prediction cache; the
consistent-hash ring partitions the keyspace, so N shards hold N times
the working set.  The replay sizes the per-shard cache at a third of the
multi-tenant working set: a single shard thrashes (most requests pay the
full adapter-swap + forward miss path — its throughput *is* cache-miss
throughput), while four shards hold the whole set between them and serve
the steady state warm.  That capacity scaling — not parallel forwards,
which a single-core host cannot grant — is the honest lever, and the
``nocache`` row (both sides with caching disabled, reported but ungated)
makes the distinction visible in the record.  The ``equalcache`` control
(also ungated) gives the single shard the 4-shard fleet's total cache:
what four shards earn over it is what the topology buys beyond capacity.

Byte identity comes first: before any timing, every fleet configuration
must answer exactly ``==`` a single :class:`~repro.serve.service.
EstimatorService` with the matching tenant tag activated through a
:class:`~repro.serve.registry.ModelRegistry`, and the timed replay's
outputs are re-checked against the same reference.  A tenant-churn
segment (evict + re-register between passes) must leave answers
unchanged.  The headline ratio uses the interleaved-pairs protocol of
:func:`~repro.bench.serve.serve_concurrency` (drift hits both sides of a
pair and cancels), with the garbage collector paused.
"""

from __future__ import annotations

import copy
import gc
import statistics
import threading
import time
from typing import Dict, List

import numpy as np

from repro.bench.cache import get_workload1, pretrain_dace
from repro.bench.config import DEFAULT, BenchScale
from repro.experiments.registry import cell
from repro.featurize.catcher import catch_plan
from repro.metrics.tables import format_table
from repro.serve import EstimatorService, FleetGateway, ModelRegistry

# Zipf exponents: tenants are strongly skewed (a couple of hot tenants
# carry most traffic), plans within a tenant mildly skewed (so the
# request stream keeps touching the working set's tail and a too-small
# LRU cannot hide behind its hot head).
TENANT_SKEW = 1.3
PLAN_SKEW = 1.05
NUM_TENANTS = 6


class _RegistryView:
    """Minimal estimator surface for a reference ModelRegistry."""

    def __init__(self, model, service) -> None:
        self.model = model
        self.service = service


def _zipf_weights(count: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** skew
    return weights / weights.sum()


def _synth_tenants(base_state: Dict[str, np.ndarray], seed: int):
    """Seeded random LoRA deltas: distinct, cheap, exercise the exact
    register/activate/serve path a fine-tuned adapter set would."""
    rng = np.random.default_rng(seed)
    tenants = {}
    for index in range(NUM_TENANTS):
        tenants[f"tenant{index}"] = {
            name: array + rng.normal(0.0, 0.05, array.shape)
            for name, array in base_state.items()
        }
    return tenants


@cell("serve_fleet")
def serve_fleet(scale: BenchScale = DEFAULT) -> dict:
    """Aggregate throughput of the fleet on a zipf multi-tenant replay.

    Workload: ``NUM_TENANTS`` tenants (synthetic LoRA adapter sets) over
    the fingerprint-unique imdb plans, requests drawn zipf-skewed over
    both axes — hot tenants, cold tenants — replayed closed-loop by
    2x-shards client threads, with a churn segment (evict + re-register)
    between the identity pass and the timed passes.
    """
    dace = pretrain_dace(scale, exclude="imdb")
    base = get_workload1(scale)["imdb"]
    seen, plans = set(), []
    for sample in base:
        fingerprint = catch_plan(sample.plan).fingerprint()
        if fingerprint not in seen:
            seen.add(fingerprint)
            plans.append(sample.plan)
    n_unique = len(plans)
    batch_size = dace.training.batch_size

    # ---------------------------------------------------------------- #
    # Reference: one EstimatorService + registry, tenant tag activated
    # per pass.  Deep-copied model so tenant activations cannot touch
    # the cached pre-trained DACE other benches share.
    # ---------------------------------------------------------------- #
    ref_model = copy.deepcopy(dace.model)
    ref_service = EstimatorService(
        ref_model, dace.encoder, batch_size=batch_size, cache_size=0
    )
    ref_registry = ModelRegistry(_RegistryView(ref_model, ref_service))
    tenants = _synth_tenants(
        ref_registry.adapter_state(ModelRegistry.BASE_TAG), scale.seed
    )
    for tag, state in tenants.items():
        ref_registry.register(tag, state)
    tags = list(tenants)
    reference: Dict[str, np.ndarray] = {}
    for tag in tags:
        ref_registry.activate(tag)
        reference[tag] = ref_service.predict_plans(plans)

    # Zipf request stream over (tenant, plan): the working set is every
    # pair that appears; per-shard capacity is a third of it, so one
    # shard thrashes where four shards' aggregate holds it all.
    rng = np.random.default_rng(scale.seed + 1)
    n_requests = min(600, max(6 * n_unique, 300))
    tenant_ids = rng.choice(
        len(tags), size=n_requests, p=_zipf_weights(len(tags), TENANT_SKEW)
    )
    plan_ids = rng.choice(
        n_unique, size=n_requests, p=_zipf_weights(n_unique, PLAN_SKEW)
    )
    working_set = len({(t, p) for t, p in zip(tenant_ids, plan_ids)})
    shard_cache = max(working_set // 3, 1)

    def build_fleet(shards: int, cache_size: int) -> FleetGateway:
        fleet = FleetGateway(
            dace.model, dace.encoder, shards=shards,
            batch_size=batch_size, cache_size=cache_size,
        )
        for tag, state in tenants.items():
            fleet.register_tenant(tag, state)
        return fleet

    identical_flags: List[bool] = []

    def check_identity(fleet: FleetGateway) -> None:
        for tag in tags:
            got = fleet.predict_plans(plans, tenant=tag)
            identical_flags.append(
                bool(np.array_equal(got, reference[tag]))
            )

    def run_clients(fleet: FleetGateway, clients: int) -> tuple:
        out = [0.0] * n_requests
        barrier = threading.Barrier(clients + 1)

        def client(offset: int) -> None:
            barrier.wait()
            for i in range(offset, n_requests, clients):
                out[i] = fleet.predict_plan(
                    plans[plan_ids[i]], tenant=tags[tenant_ids[i]]
                )

        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, out

    def check_replay(out) -> None:
        expected = np.array([
            reference[tags[t]][p] for t, p in zip(tenant_ids, plan_ids)
        ])
        identical_flags.append(bool(np.array_equal(np.array(out), expected)))

    churn_tag = tags[-1]
    shard_counts = (1, 2, 4)
    rows: List[list] = []
    results: dict = {}
    fleets: Dict[int, FleetGateway] = {}
    gc.collect()
    gc.disable()
    try:
        base_qps = None
        for shards in shard_counts:
            fleet = build_fleet(shards, shard_cache)
            fleets[shards] = fleet
            # Identity before any number is believed — this also warms
            # the fleet caches with the full working set.
            check_identity(fleet)
            # Tenant churn: evict and re-register between passes; the
            # re-registered tenant must answer exactly as before (its
            # cache entries were dropped and recomputed).
            fleet.evict_tenant(churn_tag)
            fleet.register_tenant(churn_tag, tenants[churn_tag])
            identical_flags.append(bool(np.array_equal(
                fleet.predict_plans(plans, tenant=churn_tag),
                reference[churn_tag],
            )))
            clients = 2 * shards
            run_clients(fleet, clients)  # settle memos + queue threads
            best, out = float("inf"), None
            for _ in range(3):
                elapsed, out = run_clients(fleet, clients)
                best = min(best, elapsed)
            check_replay(out)
            stats = fleet.stats()
            qps = n_requests / best
            if base_qps is None:
                base_qps = qps
            rows.append([
                f"shards={shards}", qps, qps / base_qps,
                stats["cache_hit_rate"], stats["shed"],
                "yes" if identical_flags[-1] else "NO",
            ])
            results[f"shards{shards}"] = {
                "plans_per_s": qps,
                "speedup": qps / base_qps,
                "hit_rate": stats["cache_hit_rate"],
                "swaps": stats["swaps"],
                "shed": stats["shed"],
                "bit_identical": identical_flags[-1],
            }

        def paired_ratios(fleet_1: FleetGateway) -> List[float]:
            """Interleaved pairs: best-of-2 time of ``fleet_1`` (2
            clients) over best-of-2 time of the 4-shard fleet (8)."""
            ratios: List[float] = []
            for _ in range(5):
                best_1 = best_4 = float("inf")
                for _ in range(2):
                    elapsed, out = run_clients(fleet_1, 2)
                    best_1 = min(best_1, elapsed)
                check_replay(out)
                for _ in range(2):
                    elapsed, out = run_clients(fleets[4], 8)
                    best_4 = min(best_4, elapsed)
                check_replay(out)
                ratios.append(best_1 / best_4)
            return ratios

        # Headline: 4 shards vs 1, median ratio.
        ratios = paired_ratios(fleets[1])

        # Equal-cache control (ungated): one shard whose cache equals the
        # 4-shard fleet's total.  What the 4 shards still earn over it is
        # what the topology itself buys, not the extra cache capacity.
        equalcache_1 = build_fleet(1, 4 * shard_cache)
        check_identity(equalcache_1)
        run_clients(equalcache_1, 2)
        equalcache_ratios = paired_ratios(equalcache_1)
        equalcache_hit_rate = equalcache_1.stats()["cache_hit_rate"]
        equalcache_1.close()

        # Caching disabled on both sides: what shard count alone buys on
        # this host (ungated — a single core grants no forward
        # parallelism, and the record should say so rather than hide it).
        nocache_1 = build_fleet(1, 0)
        nocache_4 = build_fleet(4, 0)
        run_clients(nocache_1, 2)
        run_clients(nocache_4, 8)
        nc1, _ = run_clients(nocache_1, 2)
        nc4, _ = run_clients(nocache_4, 8)
        nocache_speedup = nc1 / nc4
        nocache_1.close()
        nocache_4.close()
    finally:
        gc.enable()
        for fleet in fleets.values():
            fleet.close()
    miss_speedup_4 = statistics.median(ratios)
    equalcache_speedup = statistics.median(equalcache_ratios)

    table = format_table(
        ["fleet", "req/s", "vs 1 shard", "hit rate", "shed",
         "bit-identical"],
        rows,
        title=f"Fleet serving ({n_requests} zipf requests, "
              f"{len(tags)} tenants, working set {working_set} keys, "
              f"{shard_cache} cache entries/shard); paired-median "
              f"4-shard speedup {miss_speedup_4:.2f}x "
              f"(nocache {nocache_speedup:.2f}x, equal total cache "
              f"{equalcache_speedup:.2f}x)",
    )
    return {
        "table": table,
        "results": results,
        "n_requests": n_requests,
        "n_unique_plans": n_unique,
        "n_tenants": len(tags),
        "working_set": working_set,
        "shard_cache_entries": shard_cache,
        "miss_speedup_4": miss_speedup_4,
        "miss_speedup_ratios": ratios,
        "nocache_speedup_4": nocache_speedup,
        "equalcache_speedup_4": equalcache_speedup,
        "equalcache_hit_rate": equalcache_hit_rate,
        "all_bit_identical": all(identical_flags),
    }
