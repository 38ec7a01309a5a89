"""Fleet battery: ring properties, byte identity, churn, shedding.

Four layers of guarantees, pinned in order of how expensive they are to
re-establish once broken:

- the **consistent-hash ring** spreads keys roughly uniformly, routes
  deterministically across processes (``blake2b``, not salted
  ``hash()``), and moves only the arcs a resized shard gains or loses —
  hypothesis drives the add/remove round-trip as an *exact* property;
- **byte identity**: any fleet (shards 1..8, fused on, resilient
  wrapper on) answers exactly ``==`` one ``EstimatorService`` with the
  matching tenant tag activated through a ``ModelRegistry``;
- **tenant churn under contention**: barrier-started predictor threads
  race a register/evict loop; every handle resolves or rejects with
  ``KeyError``, no answer ever leaks another tenant's adapters, and the
  gateway accounting invariant balances;
- **load shedding**: a shard driven past its admission watermark with
  injected latency sheds finite, flagged fallback answers whose count
  matches ``fleet.shed``, then drains and recovers.

``REPRO_STRESS_SEED`` (int) reshuffles request orderings so repeated CI
runs explore different interleavings; the default is 0.
"""

import copy
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import DACE, DACEModel
from repro.featurize import PlanEncoder, catch_plan
from repro.obs import MetricsRegistry
from repro.serve import (
    ChaosConfig,
    ChaosEstimator,
    ConsistentHashRing,
    CostFallback,
    EstimatorService,
    FleetGateway,
    ModelRegistry,
)

STRESS_SEED = int(os.environ.get("REPRO_STRESS_SEED", "0"))
THREADS = 8
TENANT_NOISE = 0.05


class _View:
    """Minimal estimator surface for a reference ModelRegistry."""

    def __init__(self, model, service):
        self.model = model
        self.service = service


def _synth_tenants(base_state, count, seed=5):
    rng = np.random.default_rng(seed)
    return {
        f"t{index}": {
            name: array + rng.normal(0.0, TENANT_NOISE, array.shape)
            for name, array in base_state.items()
        }
        for index in range(count)
    }


@pytest.fixture(scope="module")
def fleet_setup(train_datasets):
    """Model + encoder + plans + 4 tenants + per-tag reference answers.

    The reference is the single-service path the fleet must reproduce
    bit-for-bit: one ``EstimatorService`` (no cache), one registry,
    activate the tag, predict.  Computed on a deep-copied model so tag
    activations never touch the model the fleets are built from.
    """
    plans = [s.plan for s in train_datasets[0]]
    caught = [catch_plan(p) for p in plans]
    encoder = PlanEncoder().fit(caught)
    model = DACEModel(rng=np.random.default_rng(21))
    rng = np.random.default_rng(STRESS_SEED)
    order = rng.permutation(len(plans))
    plans = [plans[i] for i in order]

    ref_model = copy.deepcopy(model)
    ref_service = EstimatorService(ref_model, encoder, batch_size=32,
                                   cache_size=0)
    ref_registry = ModelRegistry(_View(ref_model, ref_service))
    tenants = _synth_tenants(
        ref_registry.adapter_state(ModelRegistry.BASE_TAG), count=4
    )
    for tag, state in tenants.items():
        ref_registry.register(tag, state)
    reference = {}
    for tag in [ModelRegistry.BASE_TAG, *tenants]:
        ref_registry.activate(tag)
        reference[tag] = ref_service.predict_plans(plans)
    ref_registry.activate(ModelRegistry.BASE_TAG)
    return model, encoder, plans, tenants, reference


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


def _assert_accounting(fleet):
    """The gateway invariant: every request is a hit, routed, or shed."""
    stats = fleet.stats()
    assert stats["requests"] == (
        stats["cache_hits"] + stats["routed"] + stats["shed"]
    )


# ---------------------------------------------------------------------- #
# Consistent-hash ring
# ---------------------------------------------------------------------- #
class TestConsistentHashRing:
    def test_uniform_spread(self):
        """2000 keys over 4 shards: every shard owns a real share.

        With 64 virtual nodes per shard the measured minimum share is
        ~24%; the 5% floor here is far below any healthy ring and far
        above what a broken one (a shard owning ~0 keys) would pass.
        """
        ring = ConsistentHashRing(range(4))
        counts = {shard: 0 for shard in range(4)}
        for i in range(2000):
            counts[ring.route(f"fp{i}")] += 1
        assert sum(counts.values()) == 2000
        for shard, count in counts.items():
            assert count >= 0.05 * 2000, (shard, counts)

    def test_route_is_stable_within_process(self):
        ring = ConsistentHashRing(range(3))
        keys = [f"tenant{i}:fp{i}" for i in range(100)]
        first = [ring.route(key) for key in keys]
        assert first == [ring.route(key) for key in keys]
        assert set(first) <= {0, 1, 2}

    def test_route_deterministic_across_processes(self):
        """blake2b routing ignores PYTHONHASHSEED: two subprocesses with
        different hash seeds agree with each other and with us."""
        script = (
            "import json\n"
            "from repro.serve import ConsistentHashRing\n"
            "ring = ConsistentHashRing(range(5))\n"
            "print(json.dumps([ring.route(f'fp{i}') for i in range(64)]))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        routes = []
        for hash_seed in ("1", "424242"):
            env = dict(os.environ,
                       PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            )
            routes.append(json.loads(out.stdout))
        ring = ConsistentHashRing(range(5))
        local = [ring.route(f"fp{i}") for i in range(64)]
        assert routes[0] == local
        assert routes[1] == local

    @settings(max_examples=50, deadline=None)
    @given(
        key_ids=st.lists(st.integers(min_value=0, max_value=10**12),
                         min_size=1, max_size=200, unique=True),
        shards=st.integers(min_value=1, max_value=8),
    )
    def test_add_remove_round_trip(self, key_ids, shards):
        """Resizing moves only the new shard's arcs — exactly.

        Adding shard N to an N-shard ring may only move keys *onto*
        shard N (every other key keeps its owner: their arcs did not
        change), and removing it again restores the original assignment
        of every key, bit for bit.
        """
        keys = [f"key:{n}" for n in key_ids]
        ring = ConsistentHashRing(range(shards))
        before = {key: ring.route(key) for key in keys}

        ring.add(shards)
        after = {key: ring.route(key) for key in keys}
        moved = [key for key in keys if after[key] != before[key]]
        assert all(after[key] == shards for key in moved)

        ring.remove(shards)
        assert {key: ring.route(key) for key in keys} == before

    def test_resize_moves_roughly_one_nth(self):
        """Adding the (n+1)-th shard moves ~K/(n+1) keys, not ~K.

        Measured worst case over these seeds is ~1.3x the ideal; the 3x
        bound catches the failure mode that matters (a naive
        ``hash % n`` reshuffle moves ~K * n/(n+1) keys).
        """
        keys = [f"fp{i}" for i in range(500)]
        for n in range(1, 9):
            ring = ConsistentHashRing(range(n))
            before = [ring.route(key) for key in keys]
            ring.add(n)
            after = [ring.route(key) for key in keys]
            moved = sum(1 for b, a in zip(before, after) if b != a)
            assert moved <= 3 * len(keys) / (n + 1), (n, moved)

    def test_error_cases(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing().route("fp0")
        ring = ConsistentHashRing(range(2))
        with pytest.raises(ValueError):
            ring.add(1)
        with pytest.raises(KeyError):
            ring.remove(7)
        with pytest.raises(ValueError):
            ConsistentHashRing(replicas=0)
        assert ring.shards == frozenset({0, 1})
        assert len(ring) == 2


# ---------------------------------------------------------------------- #
# Byte identity: fleet == single service, any shard count
# ---------------------------------------------------------------------- #
class TestFleetByteIdentity:
    def _mixed_requests(self, plans, tags, count=200):
        rng = np.random.default_rng(STRESS_SEED + 7)
        tenant_ids = rng.integers(0, len(tags), size=count)
        plan_ids = rng.integers(0, len(plans), size=count)
        return list(zip(tenant_ids, plan_ids))

    @pytest.mark.parametrize("shards", list(range(1, 9)))
    def test_matches_single_service(self, fleet_setup, shards):
        """200 mixed-tenant requests, exact ``==`` per answer."""
        model, encoder, plans, tenants, reference = fleet_setup
        tags = list(tenants)
        requests = self._mixed_requests(plans, tags)
        with FleetGateway(model, encoder, shards=shards,
                          metrics=MetricsRegistry()) as fleet:
            for tag, state in tenants.items():
                fleet.register_tenant(tag, state)
            handles = [
                fleet.submit(plans[p], tenant=tags[t]) for t, p in requests
            ]
            for handle, (t, p) in zip(handles, requests):
                assert handle.result(timeout=120) == reference[tags[t]][p]
                assert not handle.shed
            _assert_accounting(fleet)
            assert fleet.stats()["shed"] == 0

    def test_batch_and_base_tenant_match(self, fleet_setup):
        model, encoder, plans, tenants, reference = fleet_setup
        with FleetGateway(model, encoder, shards=3,
                          metrics=MetricsRegistry()) as fleet:
            for tag, state in tenants.items():
                fleet.register_tenant(tag, state)
            np.testing.assert_array_equal(
                fleet.predict_plans(plans),
                reference[ModelRegistry.BASE_TAG],
            )
            for tag in tenants:
                np.testing.assert_array_equal(
                    fleet.predict_plans(plans, tenant=tag), reference[tag]
                )
            # Second pass is served from the fleet cache — same bits.
            for tag in tenants:
                np.testing.assert_array_equal(
                    fleet.predict_plans(plans, tenant=tag), reference[tag]
                )
            assert fleet.stats()["cache_hits"] > 0
            _assert_accounting(fleet)

    def test_fused_kernel_engaged(self, fleet_setup):
        """The default fleet path serves through the fused kernel."""
        model, encoder, plans, _, reference = fleet_setup
        with FleetGateway(model, encoder, shards=2,
                          metrics=MetricsRegistry()) as fleet:
            assert all(shard.service.fused_active for shard in fleet.shards)
            np.testing.assert_array_equal(
                fleet.predict_plans(plans[:32]),
                reference[ModelRegistry.BASE_TAG][:32],
            )
            assert fleet.metrics.counter("serve.fused.forwards").value > 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_resilient_stack_is_passthrough(self, fleet_setup, shards):
        """Healthy resilience tier between pool and service: same bits."""
        model, encoder, plans, tenants, reference = fleet_setup
        tags = list(tenants)
        requests = self._mixed_requests(plans, tags, count=120)
        with FleetGateway(model, encoder, shards=shards, resilient=True,
                          metrics=MetricsRegistry()) as fleet:
            for tag, state in tenants.items():
                fleet.register_tenant(tag, state)
            for t, p in requests:
                assert fleet.predict_plan(
                    plans[p], tenant=tags[t]
                ) == reference[tags[t]][p]
            assert fleet.metrics.counter("resilience.degraded").value == 0
            _assert_accounting(fleet)

    def test_unknown_tenant_rejects(self, fleet_setup):
        model, encoder, plans, _, _ = fleet_setup
        with FleetGateway(model, encoder, shards=2,
                          metrics=MetricsRegistry()) as fleet:
            handle = fleet.submit(plans[0], tenant="nobody")
            with pytest.raises(KeyError):
                handle.result(timeout=60)
            assert handle.failed

    def test_closed_fleet_refuses(self, fleet_setup):
        model, encoder, plans, _, _ = fleet_setup
        fleet = FleetGateway(model, encoder, shards=1,
                             metrics=MetricsRegistry())
        fleet.close()
        with pytest.raises(RuntimeError):
            fleet.submit(plans[0])

    def test_shard_count_validation(self, fleet_setup):
        model, encoder, _, _, _ = fleet_setup
        with pytest.raises(ValueError):
            FleetGateway(model, encoder, shards=0,
                         metrics=MetricsRegistry())

    def test_dace_refuses_workers_with_shards(self):
        """A shard serves on its own drain thread; there is no per-shard
        pool for ``workers`` to size."""
        with pytest.raises(ValueError, match="exclusive"):
            DACE(shards=2, workers=2)


# ---------------------------------------------------------------------- #
# Stale-cache regression: re-register must drop the tenant's entries
# ---------------------------------------------------------------------- #
class TestReregisterInvalidation:
    def test_reregister_serves_new_adapters(self, fleet_setup):
        """Predict under adapters A, re-register with B, predict again:
        the second answer must be B's — a cached A answer surviving the
        re-register is the exact staleness bug this test pins."""
        model, encoder, plans, _, _ = fleet_setup
        ref_model = copy.deepcopy(model)
        ref_service = EstimatorService(ref_model, encoder, batch_size=32,
                                       cache_size=0)
        ref_registry = ModelRegistry(_View(ref_model, ref_service))
        base_state = ref_registry.adapter_state(ModelRegistry.BASE_TAG)
        state_a = _synth_tenants(base_state, count=1, seed=101)["t0"]
        state_b = _synth_tenants(base_state, count=1, seed=202)["t0"]
        probe = plans[:16]

        ref_registry.register("a", state_a)
        ref_registry.register("b", state_b)
        ref_registry.activate("a")
        expect_a = ref_service.predict_plans(probe)
        ref_registry.activate("b")
        expect_b = ref_service.predict_plans(probe)
        assert not np.array_equal(expect_a, expect_b)

        with FleetGateway(model, encoder, shards=2,
                          metrics=MetricsRegistry()) as fleet:
            fleet.register_tenant("tenant", state_a)
            np.testing.assert_array_equal(
                fleet.predict_plans(probe, tenant="tenant"), expect_a
            )
            fleet.register_tenant("tenant", state_b)
            np.testing.assert_array_equal(
                fleet.predict_plans(probe, tenant="tenant"), expect_b
            )

    def test_evict_drops_cache_and_adapters(self, fleet_setup):
        model, encoder, plans, tenants, reference = fleet_setup
        tag = next(iter(tenants))
        with FleetGateway(model, encoder, shards=2,
                          metrics=MetricsRegistry()) as fleet:
            fleet.register_tenant(tag, tenants[tag])
            fleet.predict_plans(plans[:8], tenant=tag)
            fleet.evict_tenant(tag)
            assert not fleet.has_tenant(tag)
            handle = fleet.submit(plans[0], tenant=tag)
            with pytest.raises(KeyError):
                handle.result(timeout=60)
            # Re-register: the tenant serves again, same bits as before.
            fleet.register_tenant(tag, tenants[tag])
            np.testing.assert_array_equal(
                fleet.predict_plans(plans[:8], tenant=tag),
                reference[tag][:8],
            )


# ---------------------------------------------------------------------- #
# Tenant churn under contention
# ---------------------------------------------------------------------- #
class TestTenantChurnStress:
    CHURN_ROUNDS = 15
    REQUESTS_PER_THREAD = 48

    def test_churn_never_leaks_or_hangs(self, fleet_setup, fast_switching):
        """Predictors race a register/evict loop on one tenant.

        Invariants: every handle resolves or rejects (no hangs); a
        resolved answer for *any* tenant is byte-equal to that tenant's
        solo reference (an answer matching a different tenant's
        reference would be a cross-tenant adapter leak); only the
        churned tenant may reject, only with ``KeyError``; and the
        gateway accounting balances when the dust settles.
        """
        model, encoder, plans, tenants, reference = fleet_setup
        tags = list(tenants)
        stable, churned = tags[:-1], tags[-1]
        fleet = FleetGateway(model, encoder, shards=3,
                             metrics=MetricsRegistry())
        try:
            for tag, state in tenants.items():
                fleet.register_tenant(tag, state)
            rng = np.random.default_rng(STRESS_SEED + 13)
            schedules = rng.integers(
                0, len(plans),
                size=(THREADS, self.REQUESTS_PER_THREAD),
            )
            rejections = []

            def worker(index):
                if index == 0:
                    for _ in range(self.CHURN_ROUNDS):
                        fleet.evict_tenant(churned)
                        fleet.register_tenant(churned, tenants[churned])
                    return
                for step, plan_id in enumerate(schedules[index]):
                    tag = (churned if step % 4 == 3
                           else stable[step % len(stable)])
                    handle = fleet.submit(plans[plan_id], tenant=tag)
                    try:
                        value = handle.result(timeout=120)
                    except KeyError:
                        assert tag == churned, (
                            f"stable tenant {tag} rejected"
                        )
                        rejections.append(tag)
                        continue
                    assert value == reference[tag][plan_id], (
                        f"tenant {tag} answer does not match its own "
                        f"reference — possible cross-tenant leak"
                    )

            _hammer(THREADS, worker)
            # Settled state: every tenant (including the churned one,
            # re-registered last) answers its reference exactly.
            for tag in tags:
                np.testing.assert_array_equal(
                    fleet.predict_plans(plans[:16], tenant=tag),
                    reference[tag][:16],
                )
            assert fleet.queue_depths() == [0] * 3
            _assert_accounting(fleet)
        finally:
            fleet.close()

    def test_registration_is_fleet_wide(self, fleet_setup):
        model, encoder, _, tenants, _ = fleet_setup
        tag = next(iter(tenants))
        with FleetGateway(model, encoder, shards=4,
                          metrics=MetricsRegistry()) as fleet:
            fleet.register_tenant(tag, tenants[tag])
            assert all(shard.has_tenant(tag) for shard in fleet.shards)
            assert tag in fleet.tenants()
            fleet.evict_tenant(tag)
            assert not any(shard.has_tenant(tag) for shard in fleet.shards)


# ---------------------------------------------------------------------- #
# Load shedding past the admission watermark
# ---------------------------------------------------------------------- #
class TestLoadShedding:
    def test_overload_sheds_finite_flagged_then_recovers(
        self, fleet_setup
    ):
        """A burst of cold keys against a tiny queue with injected
        latency: the overflow sheds (finite, ``shed=True``, counted),
        nothing hangs, the queue drains, and post-burst service is
        non-shed and byte-exact again."""
        model, encoder, plans, _, reference = fleet_setup
        burst = plans[:40]
        metrics = MetricsRegistry()
        slow = ChaosConfig(latency_rate=1.0, latency_s=0.02,
                           seed=STRESS_SEED)
        with FleetGateway(
            model, encoder, shards=1, batch_size=4, max_queue=4,
            metrics=metrics,
            shard_wrapper=lambda service: ChaosEstimator(service, slow),
        ) as fleet:
            handles = [fleet.submit(plan) for plan in burst]
            values = [handle.result(timeout=120) for handle in handles]
            shed = [h for h in handles if h.shed]
            served = [h for h in handles if not h.shed]
            # The drain thread can only hold max_queue + one in-flight
            # wave; a 40-deep cold burst must overflow.
            assert shed, "burst never exceeded the admission watermark"
            assert served, "every request shed - admission let nothing in"
            assert all(np.isfinite(values))
            stats = fleet.stats()
            assert stats["shed"] == len(shed)
            assert stats["routed"] == len(served)
            _assert_accounting(fleet)
            # Shed answers came from the cost tier, not the model: they
            # are finite but must not impersonate the learned estimate.
            for handle, plan in zip(handles, burst):
                index = plans.index(plan)
                if not handle.shed:
                    assert handle.result() == (
                        reference[ModelRegistry.BASE_TAG][index]
                    )
            # Recovery: the queue drained (all handles resolved implies
            # dequeued) and a fresh cold request is served, not shed.
            assert fleet.queue_depths() == [0]
            probe = plans[50]
            handle = fleet.submit(probe)
            assert handle.result(timeout=120) == (
                reference[ModelRegistry.BASE_TAG][50]
            )
            assert not handle.shed

    def test_shed_values_never_cached(self, fleet_setup):
        """A shed answer must not become a sticky cache entry: once the
        overload clears, the same plan is re-served by the model."""
        model, encoder, plans, _, reference = fleet_setup
        slow = ChaosConfig(latency_rate=1.0, latency_s=0.02,
                           seed=STRESS_SEED)
        with FleetGateway(
            model, encoder, shards=1, batch_size=4, max_queue=4,
            metrics=MetricsRegistry(),
            shard_wrapper=lambda service: ChaosEstimator(service, slow),
        ) as fleet:
            handles = [fleet.submit(plan) for plan in plans[:40]]
            [handle.result(timeout=120) for handle in handles]
            shed_plans = [
                plan for handle, plan in zip(handles, plans[:40])
                if handle.shed
            ]
            assert shed_plans, "burst never shed - watermark untested"
            for plan in shed_plans[:5]:
                index = plans.index(plan)
                handle = fleet.submit(plan)
                assert handle.result(timeout=120) == (
                    reference[ModelRegistry.BASE_TAG][index]
                )
                assert not handle.shed


# ---------------------------------------------------------------------- #
# Request path: one call is one request per owning shard
# ---------------------------------------------------------------------- #
class TestRequestPath:
    SLOW = ChaosConfig(latency_rate=1.0, latency_s=0.02, seed=STRESS_SEED)

    def _slow_fleet(self, model, encoder, **kwargs):
        return FleetGateway(
            model, encoder, shards=1, metrics=MetricsRegistry(),
            shard_wrapper=lambda service: ChaosEstimator(service, self.SLOW),
            **kwargs,
        )

    def test_mixed_call_matches_reference_and_submit(self, fleet_setup):
        """Calls mixing warm and cold plans across shards, two tenants
        at once: exact ``==`` the single service and per-plan submit."""
        model, encoder, plans, tenants, reference = fleet_setup
        tags = list(tenants)[:2]
        probe = list(range(48))
        with FleetGateway(model, encoder, shards=3, batch_size=8,
                          metrics=MetricsRegistry()) as fleet:
            for tag in tags:
                fleet.register_tenant(tag, tenants[tag])
                fleet.predict_plans([plans[i] for i in probe[::3]], tag)
            caught = [catch_plan(plans[i]) for i in probe]
            warm = {c.fingerprint() for c in caught[::3]}
            cold = [c for c in caught if c.fingerprint() not in warm]
            assert len({fleet.shard_for(c, tags[0]).shard_id
                        for c in cold}) >= 2, "misses never spanned shards"
            hits_before = fleet.stats()["cache_hits"]
            got = {}

            def call(index):
                tag = tags[index]
                got[tag] = fleet.predict_plans(
                    [plans[i] for i in probe], tag
                )

            _hammer(2, call)
            assert fleet.stats()["cache_hits"] - hits_before == 2 * (
                len(probe) - len(cold))
            for tag in tags:
                np.testing.assert_array_equal(got[tag],
                                              reference[tag][probe])
            _assert_accounting(fleet)
        with FleetGateway(model, encoder, shards=3, batch_size=8,
                          metrics=MetricsRegistry()) as fleet:
            for tag in tags:
                fleet.register_tenant(tag, tenants[tag])
            for tag in tags:
                handles = [fleet.submit(plans[i], tag) for i in probe]
                np.testing.assert_array_equal(
                    [handle.result(timeout=120) for handle in handles],
                    got[tag],
                )

    def test_accounting_per_plan_with_shedding(self, fleet_setup):
        """Concurrent multi-plan calls against a tiny queue: some plans
        shed, and every plan is counted exactly once."""
        model, encoder, plans, _, _ = fleet_setup
        sizes = [1, 5, 3, 8, 2, 7]
        with self._slow_fleet(model, encoder, batch_size=4,
                              max_queue=4) as fleet:
            def client(index):
                offset = 16 * index
                for size in sizes:
                    fleet.predict_plans(plans[offset:offset + size])

            _hammer(4, client)
            stats = fleet.stats()
            assert stats["requests"] == 4 * sum(sizes)
            assert stats["shed"] > 0, "watermark never reached"
            assert stats["routed"] > 0
            _assert_accounting(fleet)
            assert fleet.queue_depths() == [0]
            waits = fleet.metrics.histogram("fleet.wait_seconds")
            assert waits.count == stats["requests"]

    def test_oversized_call_served_or_shed_whole(self, fleet_setup):
        """A call larger than both max_batch and max_queue returns, and
        each max_batch slice is served or shed as a whole."""
        model, encoder, plans, _, reference = fleet_setup
        burst = plans[:40]
        step = 4
        fallback = CostFallback(encoder.scaler).predict_caught(
            [catch_plan(plan) for plan in burst]
        )
        out = []
        with self._slow_fleet(model, encoder, batch_size=step,
                              max_queue=6) as fleet:
            caller = threading.Thread(
                target=lambda: out.append(fleet.predict_plans(burst))
            )
            caller.start()
            caller.join(timeout=120)
            assert not caller.is_alive(), "oversized call hung"
            values = out[0]
            stats = fleet.stats()
            served = 0
            for first in range(0, len(burst), step):
                chunk = slice(first, first + step)
                learned = reference[ModelRegistry.BASE_TAG][chunk]
                if np.array_equal(values[chunk], learned):
                    served += step
                else:
                    np.testing.assert_array_equal(values[chunk],
                                                  fallback[chunk])
            assert served == stats["routed"] > 0
            assert stats["shed"] == len(burst) - served
            _assert_accounting(fleet)

    def test_empty_call_touches_nothing(self, fleet_setup, monkeypatch):
        model, encoder, _, _, _ = fleet_setup
        with FleetGateway(model, encoder, shards=2,
                          metrics=MetricsRegistry()) as fleet:
            def untouchable(*args):
                raise AssertionError("an empty call reached a shard")

            for shard in fleet.shards:
                monkeypatch.setattr(shard, "offer", untouchable)
                monkeypatch.setattr(shard.cache, "get", untouchable)
            stats = fleet.stats()
            waits = fleet.metrics.histogram("fleet.wait_seconds").count
            for result in (fleet.predict_plans([]),
                           fleet.predict_caught([])):
                assert isinstance(result, np.ndarray)
                assert result.shape == (0,)
                assert result.dtype == np.float64
            assert fleet.stats() == stats
            assert fleet.metrics.histogram(
                "fleet.wait_seconds").count == waits

    def test_failing_activation_rejects_only_its_group(
        self, fleet_setup, monkeypatch
    ):
        """One wave holds two tenants' requests; the second tenant's
        activation raises.  Only that group is rejected, the sibling
        group is served, and the drain goes on serving."""
        model, encoder, plans, tenants, reference = fleet_setup
        blocker, good, bad = list(tenants)[:3]
        with FleetGateway(model, encoder, shards=1,
                          metrics=MetricsRegistry()) as fleet:
            for tag in (blocker, good, bad):
                fleet.register_tenant(tag, tenants[tag])
            shard = fleet.shards[0]
            activate = shard.registry.activate
            entered, release = threading.Event(), threading.Event()

            def patched(tag):
                if tag == blocker:
                    entered.set()
                    assert release.wait(timeout=120)
                if tag == bad:
                    raise RuntimeError("injected activation failure")
                return activate(tag)

            monkeypatch.setattr(shard.registry, "activate", patched)
            first = fleet.submit(plans[0], blocker)
            assert entered.wait(timeout=120)
            # The drain is parked inside the first wave: these two queue
            # up behind it and are popped together as the next wave.
            sibling = [fleet.submit(plans[i], good) for i in range(1, 4)]
            doomed = [fleet.submit(plans[i], bad) for i in range(4, 7)]
            release.set()
            assert first.result(timeout=120) == reference[blocker][0]
            for i, handle in enumerate(sibling, start=1):
                assert handle.result(timeout=120) == reference[good][i]
            for handle in doomed:
                with pytest.raises(RuntimeError, match="injected"):
                    handle.result(timeout=120)
            monkeypatch.setattr(shard.registry, "activate", activate)
            np.testing.assert_array_equal(
                fleet.predict_plans(plans[4:12], bad), reference[bad][4:12]
            )
            assert shard._drain_thread.is_alive()
            _assert_accounting(fleet)
