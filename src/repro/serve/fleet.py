"""FleetGateway: sharded multi-tenant serving over one pre-trained DACE.

DACE's deployment story (paper Sec. IV-D) is one pre-trained model plus a
few-KB LoRA adapter set per database — i.e. per *tenant*.  The fleet
layer turns that into a serving topology:

- **N shards**, each a model replica with an
  :class:`~repro.serve.service.EstimatorService` (graph-free forward,
  deterministic pad buckets, shared encoder), optionally wrapped in
  chaos/resilience tiers, a per-shard
  :class:`~repro.serve.registry.ModelRegistry` holding every tenant's
  adapters, and one drain thread that calls that stack directly;
- a **consistent-hash ring** (:class:`ConsistentHashRing`) keyed on the
  tenant-qualified plan fingerprint.  Affinity is the point: the same
  ``(tenant, plan)`` always lands on the same shard, so that shard's
  prediction cache and encoding memo amortize, and the fleet's aggregate
  cache capacity grows with the shard count instead of N shards each
  thrashing the same working set;
- **per-tenant LoRA resolution**: each shard serves its queue in waves
  grouped by tenant, activating the tenant's adapters through its
  registry under the shard's tenant lock — swaps are serialized against
  in-flight batches and against register/evict, so a forward can never
  run half-swapped weights;
- **requests and admission control**: a call answers its cache hits at
  the gateway and queues its misses as one request per owning shard.
  Each shard's queue is bounded at ``max_queue`` plans (an empty queue
  admits any one request).  A request past the watermark is not queued
  — it resolves at once from the :class:`~repro.serve.resilience.
  CostFallback` tier (the optimizer's own cost estimate, always finite)
  with ``FleetPrediction.shed`` set, and ``fleet.shed`` counts its plans.

**Caching and correctness.**  The fleet prediction cache is per-shard,
keyed ``(tenant, fingerprint)``.  Entries stay valid across adapter
swaps because a tenant's adapter state is immutable between ``register``
calls; ``register``/``evict`` drop exactly that tenant's entries
(:meth:`~repro.serve.cache.LRUCache.drop_where`).  Cache inserts happen
under the same tenant lock the swap path takes, so an in-flight wave
can never re-insert a value computed under pre-eviction adapters after
the eviction ran.  Values served by a resilience fallback (detected via
the ``resilience.degraded`` counter) or non-finite values are never
cached.  The per-shard ``EstimatorService`` runs with its *own*
prediction cache disabled — the tenant-keyed fleet cache replaces it —
but keeps its fingerprint-keyed encoding memo, which is weight- and
tenant-independent.

**Byte identity.**  Shard services pad every forward to deterministic
buckets, so a plan's predicted bits depend only on the plan and the
active adapter set: any fleet (any shard count, any routing) answers
exactly ``==`` a single ``EstimatorService`` with the matching tag
activated.  ``tests/serve/test_fleet.py`` pins this for shards 1..8.

**Lock order** (extends the audited serving-stack order):
shard tenant lock → service internals (cache mutex → metric lock).  The
shard queue condition is a leaf.  The gateway itself holds no lock
across a shard call.

Metrics (one shared registry, counting plans): ``fleet.shards`` /
``fleet.shard<i>.depth`` gauges, ``fleet.requests`` / ``fleet.routed`` /
``fleet.shed`` / ``fleet.swaps`` counters, ``fleet.cache.*`` hit/miss
counters aggregated across shards, and a ``fleet.wait_seconds``
histogram of call→answer latency.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import math
import threading
import time
from collections import deque
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.engine.plan import PlanNode
from repro.featurize.catcher import CaughtPlan
from repro.obs import MetricsRegistry
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.concurrent import CatchMemo, PoolPrediction
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import CostFallback, ResilientEstimator
from repro.serve.service import EstimatorService

DEFAULT_REPLICAS = 64
DEFAULT_MAX_QUEUE = 256
DEFAULT_SHARD_CACHE = 4096


class ConsistentHashRing:
    """Consistent hashing with virtual nodes over integer shard ids.

    Each shard owns ``replicas`` points on a 64-bit ring; a key routes to
    the first point clockwise from its own hash.  Adding or removing a
    shard therefore moves only the keys in the arcs that shard gains or
    loses — ~K/N of them — while every other key keeps its assignment
    (cache affinity survives resizing).

    Hashes come from ``blake2b``, not ``hash()``: routing must be
    deterministic across processes and interpreter runs, and Python
    salts ``str.__hash__`` per process (PYTHONHASHSEED).
    """

    def __init__(
        self, shard_ids: Iterable[int] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[int] = []       # sorted virtual-node hashes
        self._owners: List[int] = []       # shard id per point (aligned)
        self._shards: set = set()
        for shard_id in shard_ids:
            self.add(int(shard_id))

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    @property
    def shards(self) -> frozenset:
        return frozenset(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def add(self, shard_id: int) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)
        for replica in range(self.replicas):
            point = self._hash(f"shard:{shard_id}#{replica}")
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove(self, shard_id: int) -> None:
        if shard_id not in self._shards:
            raise KeyError(f"shard {shard_id} not on the ring")
        self._shards.discard(shard_id)
        keep = [i for i, owner in enumerate(self._owners)
                if owner != shard_id]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def route(self, key: str) -> int:
        """The shard id owning ``key`` (first point clockwise)."""
        if not self._points:
            raise RuntimeError("ring has no shards")
        index = bisect.bisect_right(self._points, self._hash(key))
        if index == len(self._points):
            index = 0  # wrap past the top of the ring
        return self._owners[index]


class FleetPrediction(PoolPrediction):
    """Handle for one fleet request: a :class:`PoolPrediction` of one
    call's misses on one shard, or of one ``submit``.  ``shed`` marks a
    request answered by the admission-control fallback tier — always
    finite, but degraded — instead of the learned path.
    """

    __slots__ = ("tenant", "shed")

    def __init__(self, items: list, tenant: str, enqueued: float,
                 values: Optional[List[float]] = None) -> None:
        super().__init__(items, enqueued, values)
        self.tenant = tenant
        self.shed = False


class FleetShard:
    """One serving shard: model replica + registry + bounded queue.

    Requests arrive pre-caught through :meth:`offer` (non-blocking
    admission check); a dedicated drain thread serves the queue in
    waves of whole requests, grouping each wave by tenant so one adapter
    activation and one estimator call cover the whole group.  All
    tenant-visible state transitions — adapter swap, register, evict,
    fleet-cache insert — serialize on ``_tenant_lock``.
    """

    def __init__(
        self,
        shard_id: int,
        model,
        encoder,
        *,
        batch_size: int = 64,
        cache_size: int = DEFAULT_SHARD_CACHE,
        max_queue: int = DEFAULT_MAX_QUEUE,
        metrics: Optional[MetricsRegistry] = None,
        resilient: bool = False,
        shard_wrapper=None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.shard_id = shard_id
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Every shard owns its weights: activating a tenant here must not
        # move the weights of the gateway's source model or any sibling
        # shard.  The encoder is shared — read-only at serving time.
        self.model = copy.deepcopy(model)
        self.encoder = encoder
        # The shard service's own prediction cache is off: its entries
        # would be keyed by plan content only and invalidated on every
        # tenant swap.  The tenant-keyed fleet cache (below) replaces it;
        # the fingerprint-keyed encoding memo stays on and is swap-proof.
        self.service = EstimatorService(
            self.model,
            encoder,
            batch_size=batch_size,
            cache_size=0,
            metrics=self.metrics,
        )
        estimator = self.service
        if shard_wrapper is not None:
            estimator = shard_wrapper(self.service)
        if resilient:
            estimator = ResilientEstimator(
                estimator,
                fallback=CostFallback(getattr(encoder, "scaler", None)),
                metrics=self.metrics,
            )
        self.estimator = estimator
        self.registry = self._new_registry()
        self.cache = LRUCache(
            cache_size,
            stats=CacheStats(self.metrics, prefix="fleet.cache"),
        )
        self.max_queue = max_queue
        self.max_batch = batch_size
        # Serializes adapter swaps, tenant register/evict, and fleet
        # cache inserts against each other (never held while blocking on
        # the queue condition).
        self._tenant_lock = threading.Lock()
        self._queue: "deque[FleetPrediction]" = deque()
        self._queued_plans = 0
        self._cond = threading.Condition(threading.Lock())
        self._closed = False
        self._depth_gauge = self.metrics.gauge(
            f"fleet.shard{shard_id}.depth",
            help="plans queued on this shard",
        )
        self._swaps = self.metrics.counter(
            "fleet.swaps", help="tenant adapter activations across shards"
        )
        self._wait_times = self.metrics.histogram(
            "fleet.wait_seconds", help="call-to-answer latency per plan"
        )
        # Degradation watch: if any prediction in a wave came from a
        # resilience fallback, the wave's values must not become sticky
        # cache entries.  The counter is fleet-wide (shared registry), so
        # a concurrent degradation on a sibling shard can only make this
        # check more conservative, never less.
        self._degraded_counter = self.metrics.counter(
            "resilience.degraded",
            help="predictions served by the fallback",
        )
        self._drain_thread = threading.Thread(
            target=self._drain,
            name=f"repro-fleet-shard{shard_id}",
            daemon=True,
        )
        self._drain_thread.start()

    # ------------------------------------------------------------------ #
    # Tenant management (called via the gateway)
    # ------------------------------------------------------------------ #
    def _new_registry(self) -> ModelRegistry:
        # This shard's own model/service pair: swaps stay on its replica.
        return ModelRegistry(
            SimpleNamespace(model=self.model, service=self.service)
        )

    def has_tenant(self, tag: str) -> bool:
        return tag in self.registry

    def register(self, tag: str, adapter_state: Dict[str, np.ndarray]) -> None:
        with self._tenant_lock:
            self.registry.register(tag, adapter_state)
            # Re-registration replaces the adapters: predictions computed
            # under the old set are stale for the new one.
            self.cache.drop_where(lambda key: key[0] == tag)

    def evict(self, tag: str) -> None:
        with self._tenant_lock:
            if self.registry.active_tag == tag:
                # Never leave the model running adapters the registry is
                # about to forget.
                self.registry.activate(ModelRegistry.BASE_TAG)
                self._swaps.inc()
            self.registry.remove(tag)
            self.cache.drop_where(lambda key: key[0] == tag)

    # ------------------------------------------------------------------ #
    # Admission + drain
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Plans queued on this shard."""
        return self._queued_plans

    def offer(self, request: FleetPrediction) -> bool:
        """Admit a request whole, or refuse it (shed) past the
        watermark.  An empty queue admits any one request, so one larger
        than ``max_queue`` plans is not shed forever."""
        size = len(request._items)
        with self._cond:
            if self._closed:
                raise RuntimeError("fleet shard is closed")
            queued = self._queued_plans
            if queued and queued + size > self.max_queue:
                return False
            self._queue.append(request)
            self._queued_plans = queued + size
            self._depth_gauge.set(self._queued_plans)
            self._cond.notify()
        return True

    def _drain(self) -> None:
        queue = self._queue
        while True:
            with self._cond:
                while not queue and not self._closed:
                    self._cond.wait()
                if not queue:
                    return  # closed and fully drained
                # Whole requests up to max_batch plans; each holds at
                # most max_batch, so the first always fits.
                wave = [queue.popleft()]
                size = len(wave[0]._items)
                while queue and size + len(queue[0]._items) <= self.max_batch:
                    size += len(queue[0]._items)
                    wave.append(queue.popleft())
                self._queued_plans -= size
                self._depth_gauge.set(self._queued_plans)
            groups: Dict[str, List[FleetPrediction]] = {}
            for request in wave:
                groups.setdefault(request.tenant, []).append(request)
            for tenant, group in groups.items():
                self._serve_group(tenant, group)
            now = time.monotonic()
            self._wait_times.observe_many(
                [now - request._enqueued for request in wave
                 for _ in request._items]
            )

    def _serve_group(self, tenant: str,
                     group: List[FleetPrediction]) -> None:
        items = [item for request in group for item in request._items]
        try:
            with self._tenant_lock:
                if tenant not in self.registry:
                    raise KeyError(
                        f"unknown tenant {tenant!r} on shard {self.shard_id}"
                    )
                if self.registry.active_tag != tenant:
                    self.registry.activate(tenant)
                    self._swaps.inc()
                degraded_before = self._degraded_counter.value
                values = np.asarray(
                    self.estimator.predict_caught(items), dtype=np.float64
                ).tolist()
                if len(values) != len(items):
                    raise ValueError(
                        f"estimator returned {len(values)} values "
                        f"for {len(items)} plans"
                    )
                # Cache inserts stay inside the tenant lock: an evict/
                # re-register cannot interleave between the forward above
                # and the insert below, so a value computed under old
                # adapters can never outlive them in the cache.
                if degraded_before == self._degraded_counter.value:
                    for caught, value in zip(items, values):
                        if math.isfinite(value):
                            self.cache.put(
                                (tenant, caught.fingerprint()), value
                            )
        except BaseException as error:
            # Reject on BaseException too and keep draining: these
            # requests are claimed, and an unresolved claimed request
            # blocks result() forever.
            for request in group:
                request._reject(error)
            return
        start = 0
        for request in group:
            stop = start + len(request._items)
            request._resolve(values[start:stop])
            start = stop

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def sync(self, model) -> None:
        """Reload base weights from ``model`` and reset tenant state.

        Called after the source model trains or is re-loaded: the shard
        replica re-snapshots the new weights, the registry is rebuilt
        (registered tenants are dropped — their adapters were deltas on
        the old base), and every cache layer is flushed.
        """
        with self._tenant_lock:
            self.model.load_state_dict(model.state_dict())
            if model.lora_enabled:
                self.model.enable_lora()
            else:
                self.model.disable_lora()
            self.registry = self._new_registry()
            self.service.invalidate()
            self.cache.clear()

    def close(self) -> None:
        """Drain outstanding work and stop the drain thread."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._drain_thread.join()
        # The drain loop only exits with an empty queue, but guard
        # against future refactors stranding a blocked caller.
        for request in self._queue:
            request._reject(RuntimeError("fleet shard is closed"))
        self._queue.clear()
        self._queued_plans = 0


class FleetGateway:
    """Routes multi-tenant prediction traffic across N serving shards.

    A call (``predict_plans``, ``predict_caught`` or a one-plan
    ``submit``) catches its plans on the calling thread and routes each
    by consistent hash of the tenant-qualified fingerprint.  Warm keys
    are answered from the owning shard's cache; the misses are queued as
    one request per owning shard, or shed whole past its admission
    watermark.  Counters, in plans, move once per call::

        fleet.requests == fleet.cache.hits + fleet.routed + fleet.shed

    Every ``predict*``/``submit*`` entry point takes an optional
    ``tenant=`` keyword (default: the base model).
    """

    def __init__(
        self,
        model,
        encoder,
        shards: int = 2,
        *,
        batch_size: int = 64,
        cache_size: int = DEFAULT_SHARD_CACHE,
        max_queue: int = DEFAULT_MAX_QUEUE,
        replicas: int = DEFAULT_REPLICAS,
        metrics: Optional[MetricsRegistry] = None,
        resilient: bool = False,
        shard_wrapper=None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.encoder = encoder
        shard_kwargs = dict(
            batch_size=batch_size, cache_size=cache_size,
            max_queue=max_queue, resilient=resilient,
            shard_wrapper=shard_wrapper,
        )
        self._ctor_kwargs = dict(shard_kwargs, replicas=replicas)
        self.shards = [
            FleetShard(index, model, encoder, metrics=self.metrics,
                       **shard_kwargs)
            for index in range(shards)
        ]
        self.ring = ConsistentHashRing(range(shards), replicas=replicas)
        # Shedding tier: the optimizer's own cost estimate, scaled through
        # the encoder's fitted scaler (refit in place by encoder.fit, so
        # the reference stays current across training).
        self._shed_fallback = CostFallback(getattr(encoder, "scaler", None))
        self._shards_gauge = self.metrics.gauge(
            "fleet.shards", help="shards in the fleet"
        )
        self._shards_gauge.set(shards)
        self._requests = self.metrics.counter(
            "fleet.requests", help="plans requested from the gateway"
        )
        self._routed = self.metrics.counter(
            "fleet.routed", help="plans enqueued on a shard"
        )
        self._shed = self.metrics.counter(
            "fleet.shed", help="plans answered by the shedding fallback"
        )
        self._wait_times = self.metrics.histogram(
            "fleet.wait_seconds", help="call-to-answer latency per plan"
        )
        self._catch = CatchMemo().catch
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, caught: CaughtPlan, tenant: str) -> FleetShard:
        """The shard owning this (tenant, plan) pair — pure routing."""
        shard_id = self.ring.route(f"{tenant}:{caught.fingerprint()}")
        return self.shards[shard_id]

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def _route(self, caught: Sequence[CaughtPlan], tenant: str):
        """Answer a call's cache hits; queue its misses per shard.

        Returns the values (``None`` where a miss is pending) and one
        ``(positions, request)`` pair per request: one shard's misses in
        submission order, split at ``max_batch``.  A refused request is
        answered whole by the cost tier: bounded latency beats a perfect
        estimate under overload.
        """
        if self._closed:
            raise RuntimeError("fleet is closed")
        start = time.monotonic()
        self._requests.inc(len(caught))
        values: List[Optional[float]] = [None] * len(caught)
        misses: Dict[FleetShard, tuple] = {}
        for position, plan in enumerate(caught):
            shard = self.shard_for(plan, tenant)
            value = shard.cache.get((tenant, plan.fingerprint()))
            if value is not None:
                values[position] = value
                continue
            positions, plans = misses.setdefault(shard, ([], []))
            positions.append(position)
            plans.append(plan)
        pending, routed, shed = [], 0, 0
        for shard, (positions, plans) in misses.items():
            step = shard.max_batch
            for first in range(0, len(plans), step):
                request = FleetPrediction(plans[first:first + step], tenant,
                                          start)
                if shard.offer(request):
                    routed += len(request._items)
                else:
                    request.shed = True
                    request._resolve(self._shed_fallback.predict_caught(
                        request._items).tolist())
                    shed += len(request._items)
                pending.append((positions[first:first + step], request))
        if routed:
            self._routed.inc(routed)
        if shed:
            self._shed.inc(shed)
        answered = len(caught) - routed
        if answered:
            self._wait_times.observe(time.monotonic() - start, answered)
        return values, pending

    def submit(self, plan: PlanNode,
               tenant: str = ModelRegistry.BASE_TAG) -> FleetPrediction:
        """Route one plan; returns a handle that resolves asynchronously.

        Warm keys resolve before this returns (the owning shard's cache
        answers at the gateway); cold keys enqueue on the owning shard,
        or shed to the cost fallback past the admission watermark.
        """
        return self.submit_caught(self._catch(plan), tenant)

    def submit_caught(self, caught: CaughtPlan,
                      tenant: str = ModelRegistry.BASE_TAG
                      ) -> FleetPrediction:
        values, pending = self._route([caught], tenant)
        if pending:
            return pending[0][1]
        return FleetPrediction([caught], tenant, time.monotonic(), values)

    def predict_plan(self, plan: PlanNode,
                     tenant: str = ModelRegistry.BASE_TAG) -> float:
        return self.submit(plan, tenant).result()

    def predict_plans(self, plans: Sequence[PlanNode],
                      tenant: str = ModelRegistry.BASE_TAG) -> np.ndarray:
        """Predicted latency (ms) per plan, routed as one request."""
        return self.predict_caught([self._catch(plan) for plan in plans],
                                   tenant)

    def predict_caught(self, caught: Sequence[CaughtPlan],
                       tenant: str = ModelRegistry.BASE_TAG) -> np.ndarray:
        """``predict_plans`` for pre-caught plans: hits answered inline,
        misses queued as one request per owning shard."""
        values, pending = self._route(caught, tenant)
        for positions, request in pending:
            for position, value in zip(positions, request._wait()):
                values[position] = value
        return np.array(values, dtype=np.float64)

    def predict(self, dataset,
                tenant: str = ModelRegistry.BASE_TAG) -> np.ndarray:
        return self.predict_plans(
            [sample.plan for sample in dataset], tenant
        )

    # ------------------------------------------------------------------ #
    # Tenant management
    # ------------------------------------------------------------------ #
    def register_tenant(
        self, tag: str, adapter_state: Dict[str, np.ndarray]
    ) -> None:
        """Install a tenant's adapter set on every shard.

        Every shard gets the adapters because the ring spreads one
        tenant's *plans* across shards (per-key affinity, not per-tenant
        pinning) — any shard may own any of the tenant's fingerprints.
        """
        for shard in self.shards:
            shard.register(tag, adapter_state)

    def evict_tenant(self, tag: str) -> None:
        """Forget a tenant fleet-wide: adapters and cached predictions."""
        for shard in self.shards:
            shard.evict(tag)

    def tenants(self) -> List[str]:
        return self.shards[0].registry.tags()

    def has_tenant(self, tag: str) -> bool:
        return self.shards[0].has_tenant(tag)

    # ------------------------------------------------------------------ #
    # Lifecycle + introspection
    # ------------------------------------------------------------------ #
    def sync(self, model) -> None:
        """Propagate new base weights to every shard (see FleetShard.sync).

        Registered tenants are dropped: their adapters were deltas on the
        old base and are stale by definition — re-register after sync.
        """
        for shard in self.shards:
            shard.sync(model)

    def invalidate(self) -> None:
        """Flush every prediction cache fleet-wide (weights changed)."""
        for shard in self.shards:
            with shard._tenant_lock:
                shard.service.invalidate()
                shard.cache.clear()

    def queue_depths(self) -> List[int]:
        return [shard.queue_depth for shard in self.shards]

    @property
    def cache_stats(self) -> CacheStats:
        """Fleet-wide cache accounting (shards share one stats object)."""
        return self.shards[0].cache.stats

    def stats(self) -> Dict[str, float]:
        """A flat snapshot of the fleet counters for reports/CLI."""
        stats = self.cache_stats
        return {
            "shards": float(self.num_shards),
            "requests": float(self._requests.value),
            "routed": float(self._routed.value),
            "shed": float(self._shed.value),
            "swaps": float(self.metrics.counter("fleet.swaps").value),
            "cache_hits": float(stats.hits),
            "cache_misses": float(stats.misses),
            "cache_hit_rate": float(stats.hit_rate),
            "max_depth": float(max(self.queue_depths())),
        }

    def close(self) -> None:
        """Drain and stop every shard; further submits raise."""
        self._closed = True
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "FleetGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __deepcopy__(self, memo) -> "FleetGateway":
        # A fleet is runtime machinery (drain threads, pools): copying
        # means building a fresh fleet around copies of the weights, not
        # duplicating live threads.  Shard 0's base snapshot carries the
        # source weights; tenants do not survive the copy (same contract
        # as sync()).
        source = self.shards[0]
        model = copy.deepcopy(source.model, memo)
        # The source shard may have a tenant's adapters active; the clone
        # must seed from the pristine base snapshot, not whatever tag
        # happened to be live.
        base_state = source.registry.adapter_state(ModelRegistry.BASE_TAG)
        for name, parameter in model.named_parameters():
            if name in base_state:
                parameter.data = base_state[name]
        if source.registry._lora_enabled[ModelRegistry.BASE_TAG]:
            model.enable_lora()
        else:
            model.disable_lora()
        encoder = copy.deepcopy(self.encoder, memo)
        clone = FleetGateway(
            model, encoder, self.num_shards, **self._ctor_kwargs
        )
        memo[id(self)] = clone
        return clone
