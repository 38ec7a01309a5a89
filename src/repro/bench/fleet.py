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
unchanged.  Every ratio is a :func:`~repro.bench.timing.paired` median.
"""

from __future__ import annotations

import copy
from typing import Dict, List

import numpy as np

from repro.bench.cache import get_workload1, pretrain_dace
from repro.bench.config import DEFAULT, BenchScale, remeasure_below
from repro.bench.timing import closed_loop, paired
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
#: 4 shards must reach this multiple of the thrashing single shard.
MIN_MISS_SPEEDUP = 2.0


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


# Routed, cached, churned or coalesced, the fleet must answer what the
# single service answers; affinity must turn 4 shards into >= 2x the
# aggregate throughput of the thrashing single-shard baseline.
@cell("serve_fleet", checks={
    "all_bit_identical": lambda r, c: r["all_bit_identical"],
    "miss_speedup_4": lambda r, c: r["miss_speedup_4"] >= MIN_MISS_SPEEDUP,
})
def serve_fleet(scale: BenchScale = DEFAULT) -> dict:
    """Aggregate throughput of the fleet on a zipf multi-tenant replay.

    A run under the speedup gate is re-measured once; see
    :func:`_serve_fleet_once` for the workload.
    """
    result = remeasure_below(
        lambda: _serve_fleet_once(scale), "miss_speedup_4", MIN_MISS_SPEEDUP
    )
    return dict(result, min_miss_speedup=MIN_MISS_SPEEDUP)


def _serve_fleet_once(scale: BenchScale) -> dict:
    """One measurement of the fleet on a zipf multi-tenant replay.

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

    expected = np.array([
        reference[tags[t]][p] for t, p in zip(tenant_ids, plan_ids)
    ])

    def replay(fleet: FleetGateway, shards: int):
        """A closed-loop measurement (two clients per shard) whose every
        answer is checked."""
        def measure():
            elapsed, out = closed_loop(
                lambda i: fleet.predict_plan(
                    plans[plan_ids[i]], tenant=tags[tenant_ids[i]]
                ),
                n_requests, 2 * shards,
            )
            identical_flags.append(bool(np.array_equal(out, expected)))
            return elapsed, out
        return measure

    churn_tag = tags[-1]
    fleets: Dict[int, FleetGateway] = {}
    try:
        for shards in (1, 2, 4):
            fleet = fleets[shards] = build_fleet(shards, shard_cache)
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
        versus = {
            shards: paired(replay(fleets[1], 1),
                           replay(fleets[shards], shards))
            for shards in (2, 4)
        }

        # Equal-cache control (ungated): one shard whose cache equals the
        # 4-shard fleet's total.  What the 4 shards still earn over it is
        # what the topology itself buys, not the extra cache capacity.
        equalcache_1 = build_fleet(1, 4 * shard_cache)
        check_identity(equalcache_1)
        equalcache = paired(replay(equalcache_1, 1), replay(fleets[4], 4))
        equalcache_hit_rate = equalcache_1.stats()["cache_hit_rate"]
        equalcache_1.close()

        # Caching disabled on both sides: what shard count alone buys on
        # this host (ungated — a single core grants no forward
        # parallelism, and the record should say so rather than hide it).
        nocache_1 = build_fleet(1, 0)
        nocache_4 = build_fleet(4, 0)
        nocache = paired(replay(nocache_1, 1), replay(nocache_4, 4))
        nocache_1.close()
        nocache_4.close()

        single_s = min(pairs.a_seconds for pairs in versus.values())
        results: dict = {}
        for shards, fleet in fleets.items():
            stats = fleet.stats()
            pairs = versus.get(shards)              # None for 1 shard
            results[f"shards{shards}"] = {
                "plans_per_s": n_requests / (pairs.b_seconds if pairs
                                             else single_s),
                "speedup": pairs.ratio if pairs else 1.0,
                "hit_rate": stats["cache_hit_rate"],
                "swaps": stats["swaps"],
                "shed": stats["shed"],
                "bit_identical": all(identical_flags),
            }
    finally:
        for fleet in fleets.values():
            fleet.close()
    headline = versus[4]

    table = format_table(
        ["fleet", "best req/s", "vs 1 shard", "hit rate", "shed",
         "bit-identical"],
        [[key.replace("shards", "shards="), row["plans_per_s"],
          row["speedup"], row["hit_rate"], row["shed"],
          "yes" if row["bit_identical"] else "NO"]
         for key, row in results.items()],
        title=f"Fleet serving ({n_requests} zipf requests, "
              f"{len(tags)} tenants, working set {working_set} keys, "
              f"{shard_cache} cache entries/shard); paired-median "
              f"4-shard speedup {headline.ratio:.2f}x "
              f"(nocache {nocache.ratio:.2f}x, equal total cache "
              f"{equalcache.ratio:.2f}x)",
    )
    return {
        "table": table,
        "results": results,
        "n_requests": n_requests,
        "n_unique_plans": n_unique,
        "n_tenants": len(tags),
        "working_set": working_set,
        "shard_cache_entries": shard_cache,
        "miss_speedup_4": headline.ratio,
        "miss_speedup_4_iqr": headline.iqr,
        "miss_speedup_ratios": headline.ratios,
        "nocache_speedup_4": nocache.ratio,
        "equalcache_speedup_4": equalcache.ratio,
        "equalcache_hit_rate": equalcache_hit_rate,
        "all_bit_identical": all(identical_flags),
    }
