"""ConcurrentEstimatorService: a worker-pool front-end for the service.

Single-plan traffic arriving from many threads is the worst case for the
serving stack: every caller pays a full forward pass for a batch of one.
:class:`ConcurrentEstimatorService` turns that concurrency into batch
efficiency with a *leader/followers* queue in front of an
:class:`~repro.serve.service.EstimatorService`:

- the queue's unit is the **request**: the plans of one ``submit``,
  ``predict_plans`` or ``predict_caught`` call.  The caller snapshots
  (catches) all of its plans first, then enqueues them under one lock
  acquisition, split into requests of at most ``max_batch`` plans in
  submission order.  The first caller whose arrival finds no active
  leader schedules a **drain** task on the shared
  :class:`ThreadPoolExecutor`;
- the drain pops whole requests, up to ``max_batch`` plans, prices them
  through one ``service.predict_plans`` call (one padded
  ``encode_batch``, one model forward), resolves each request through one
  event and one list of values, and loops until the queue is empty — so
  whatever requests pile up while a forward is running are coalesced
  into the next one (dynamic batching).

**Determinism.**  Because the underlying service pads every forward to a
bucketed width (``PAD_BASE``), a plan's predicted bits are independent of
which requests it happens to be coalesced with: ``workers=8`` answers
byte-for-byte what ``workers=1`` — and the plain serial service —
answers.  ``tests/serve/test_concurrency.py`` pins this.

**Deadlock audit.**  Pool demand is bounded by construction: at most one
drain task exists at a time (the ``_leader_active`` flag flips under the
queue lock), and a drain submits nothing to the pool, so no pool task
ever blocks waiting for a pool slot.  Lock order is
queue lock → (service internals: cache mutex → metric lock); the queue
lock is never held across an estimator call.  See "Concurrency model" in
``docs/architecture.md``.

Metrics (on the service's registry, ``serve.pool.*``): ``workers``
(gauge), ``queue_depth`` (gauge, plans queued), ``requests`` (counter of
plans submitted), ``flush_size`` (histogram of plans per drain), and
``wait_seconds`` (histogram of enqueue→resolve latency per request).
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.plan import PlanNode
from repro.featurize.catcher import CaughtPlan, catch_plan
from repro.obs import MetricsRegistry


def _defined_on_class(obj, name: str) -> bool:
    """True when ``name`` is a real method of ``obj``'s class.

    ``hasattr`` is the wrong probe for optional fast paths: delegating
    wrappers (ResilientEstimator, ChaosEstimator) answer True through
    ``__getattr__`` while the attribute fetched is the *inner* object's
    bound method — calling it would silently skip the wrapper's tiers.
    """
    return any(name in klass.__dict__ for klass in type(obj).__mro__)


# Shared by every handle answered at birth (a fleet cache hit); never cleared.
_ANSWERED = threading.Event()
_ANSWERED.set()


class CatchMemo:
    """``catch_plan`` memoized by plan identity.

    Closed-loop callers resubmit the same PlanNode objects, and
    re-snapshotting one costs ~40us per request.  Entries hold the plan,
    so its id cannot be recycled while the entry lives; hits still check
    ``is``.  Callers that mutate a submitted plan in place must not reuse
    the object (snapshot semantics).  The hit path is lock-free
    (``dict.get`` is atomic under the GIL and entries are immutable
    tuples); only inserts and the eviction sweep take the leaf lock.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[int, tuple]" = OrderedDict()
        self._lock = threading.Lock()  # leaf; never nested outward

    def catch(self, plan: PlanNode) -> CaughtPlan:
        """Snapshot ``plan`` on the calling thread."""
        key = id(plan)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is plan:
            return entry[1]
        caught = catch_plan(plan)
        with self._lock:
            self._entries[key] = (plan, caught)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return caught


class PoolPrediction:
    """Handle for one request on the pool's queue; ``result()`` blocks.

    A request is the plans of one ``submit`` (a single plan) or one
    ``max_batch``-plan slice of a ``predict_plans``/``predict_caught``
    call.  A drain serves it whole and resolves it through one event and
    one list of values.  A pending handle always has an active drain
    working toward it, so ``result()`` just waits for resolution or
    rejection.  A handle built with ``values`` is answered at birth.
    """

    __slots__ = ("_items", "_values", "_error", "_done", "_enqueued")

    def __init__(self, items: list, enqueued: float,
                 values: Optional[List[float]] = None) -> None:
        self._items = items
        self._values = values
        self._error: Optional[BaseException] = None
        self._done = threading.Event() if values is None else _ANSWERED
        self._enqueued = enqueued

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    def exception(self) -> Optional[BaseException]:
        """The rejection cause, or None while pending / after success."""
        return self._error

    def result(self, timeout: Optional[float] = None) -> float:
        """Predicted latency (ms) of the submitted plan; raises the
        drain's error on rejection."""
        return self._wait(timeout)[0]

    def _wait(self, timeout: Optional[float] = None) -> List[float]:
        """Predicted latencies (ms) of every plan in the request."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"prediction not resolved within {timeout} seconds"
            )
        if self._error is not None:
            raise self._error
        assert self._values is not None
        return self._values

    def _resolve(self, values: List[float]) -> None:
        self._values = values
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class ConcurrentEstimatorService:
    """Thread-pool front-end batching concurrent traffic onto one service.

    Speaks the Estimator protocol, so it drops in wherever an estimator
    is expected.  All mutable state (queue, handles, leader flag) lives
    behind one lock that is never held across a model call; the wrapped
    :class:`EstimatorService` is itself safe for concurrent callers, so
    direct calls to it may coexist with the pool.

    The executor only ever runs the drain, one at a time, so requests
    queued during a forward coalesce into the next drain whatever
    ``workers`` is.
    """

    def __init__(
        self,
        service,
        workers: int = 4,
        max_batch: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self.workers = workers
        # Usually an EstimatorService, but any estimator works (e.g. a
        # ResilientEstimator): the extras — shared batch size and
        # registry — degrade gracefully when absent.
        self.max_batch = max_batch if max_batch is not None else (
            getattr(service, "batch_size", None) or 64
        )
        metrics = getattr(service, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        # Guards queue + leader flag + closed flag; never held across an
        # estimator or pool call (lock order: this, then service locks).
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: "deque[PoolPrediction]" = deque()
        self._queued_plans = 0
        self._leader_active = False
        self._closed = False
        # How long an idle leader waits for the next request before
        # abdicating.  Closed-loop clients resubmit within microseconds
        # of being resolved; lingering catches that next wave directly
        # instead of paying an executor respawn per drain cycle.
        self.linger_s = 0.002
        # Batch-forming grace: after resolving a wave of requests the
        # drain waits up to this long for the queue to refill to the
        # previous flush's request count before running the next
        # forward, so a full client wave lands in one batch instead of
        # trickling into fragments.  Self-tuning via _last_flush
        # (requests, not plans): a lone caller — whose flushes hold its
        # one request, whatever its size — never waits.
        self.gather_s = 0.0005
        self._last_flush = 1
        self._catch = CatchMemo().catch
        # MRO probe, not hasattr: a delegating wrapper would pass
        # hasattr while handing back the inner service's bound method,
        # silently bypassing its fallback or chaos tier.  Wrappers
        # that genuinely support the caught path (ResilientEstimator,
        # ChaosEstimator) define predict_caught on their class.
        self._can_serve_caught = _defined_on_class(service, "predict_caught")
        self._workers_gauge = self.metrics.gauge(
            "serve.pool.workers", help="threads in the serving pool"
        )
        self._workers_gauge.set(workers)
        self._queue_depth = self.metrics.gauge(
            "serve.pool.queue_depth", help="plans waiting for a drain"
        )
        self._requests = self.metrics.counter(
            "serve.pool.requests", help="plans submitted to the pool"
        )
        self._flush_sizes = self.metrics.histogram(
            "serve.pool.flush_size", help="plans coalesced per drain"
        )
        self._wait_times = self.metrics.histogram(
            "serve.pool.wait_seconds",
            help="enqueue-to-resolve latency per request"
        )

    # ------------------------------------------------------------------ #
    # Queue + drain
    # ------------------------------------------------------------------ #
    def submit(self, plan: PlanNode) -> PoolPrediction:
        """Enqueue one plan; a drain resolves the handle asynchronously.

        The plan is snapshot (caught) here, on the submitting thread —
        off the serialized drain path — so mutating the plan object after
        ``submit`` does not affect the prediction.
        """
        item = self._catch(plan) if self._can_serve_caught else plan
        return self._enqueue([item])[0]

    def submit_caught(self, caught: CaughtPlan) -> PoolPrediction:
        """Enqueue an already-caught plan (front-ends that snapshot
        early).  Only legal when the wrapped service serves caught plans.
        """
        self._require_caught()
        return self._enqueue([caught])[0]

    def _require_caught(self) -> None:
        if not self._can_serve_caught:
            raise TypeError(
                "wrapped service does not define predict_caught; "
                "submit the original PlanNode via submit()"
            )

    def _enqueue(self, items: list) -> List[PoolPrediction]:
        """Queue ``items`` as requests of at most ``max_batch`` plans.

        All of them go in under one lock acquisition with one wake-up,
        in submission order: a drain serves them in that order, so an
        oversized call fills the service's caches exactly as serial
        ``max_batch``-plan calls would.
        """
        now, step = time.monotonic(), self.max_batch
        if len(items) <= step:
            requests = [PoolPrediction(items, now)]
        else:
            requests = [PoolPrediction(items[i:i + step], now)
                        for i in range(0, len(items), step)]
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            self._queue.extend(requests)
            self._queued_plans += len(items)
            lead = not self._leader_active
            if lead:
                self._leader_active = True
            else:
                self._work.notify()  # wake a lingering leader
        if lead:
            try:
                self._pool.submit(self._drain)
            except BaseException as error:
                # Pool shut down between our check and the submit.  No
                # drain can ever run again, so reject everything queued
                # (later submitters may have piggybacked on our leadership)
                # rather than strand a single request.
                with self._lock:
                    self._leader_active = False
                    stranded = list(self._queue)
                    self._queue.clear()
                    self._queued_plans = 0
                for queued in stranded:
                    queued._reject(error)
        return requests

    def _drain(self) -> None:
        """Leader loop: price queued requests batch by batch until empty.

        The empty-check and leader-flag clear are atomic under the queue
        lock, so a request is either seen by the current leader or its
        submitter becomes the next one — requests cannot be stranded.  An
        idle leader lingers up to ``linger_s`` before abdicating, so a
        steady stream of requests is served by one long-lived drain
        rather than one executor task per wave.
        """
        queue = self._queue
        while True:
            with self._lock:
                if not queue and not self._closed:
                    self._work.wait(timeout=self.linger_s)
                if not queue:
                    self._leader_active = False
                    return
                if self._gathering():
                    deadline = time.monotonic() + self.gather_s
                    while self._gathering():
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._work.wait(timeout=remaining)
                if self._queued_plans <= self.max_batch:
                    batch, size = list(queue), self._queued_plans
                    queue.clear()
                else:
                    # Whole requests only; each holds at most max_batch
                    # plans, so the first always fits, and the queue
                    # holds more than fits.
                    batch, size = [], 0
                    while size + len(queue[0]._items) <= self.max_batch:
                        size += len(queue[0]._items)
                        batch.append(queue.popleft())
                self._queued_plans -= size
                self._last_flush = len(batch)
                depth = self._queued_plans
            self._queue_depth.set(depth)
            self._flush_sizes.observe(size)
            # Submission accounting happens here, batched per flush, so
            # the client-side submit path stays lock-light.
            self._requests.inc(size)
            items = [item for request in batch for item in request._items]
            try:
                if self._can_serve_caught:
                    values = self.service.predict_caught(items)
                else:
                    values = self.service.predict_plans(items)
                values = np.asarray(values, dtype=np.float64).tolist()
                if len(values) != size:
                    raise ValueError(
                        f"estimator returned {len(values)} values "
                        f"for {size} plans"
                    )
            except BaseException as error:
                # Reject on BaseException too: these requests are claimed,
                # and an unresolved claimed request blocks result() forever.
                for request in batch:
                    request._reject(error)
                continue
            now, start = time.monotonic(), 0
            for request in batch:
                stop = start + len(request._items)
                request._resolve(values[start:stop])
                start = stop
            self._wait_times.observe_many(
                [now - request._enqueued for request in batch]
            )

    def _gathering(self) -> bool:
        """Whether the drain should wait for more requests (lock held):
        fewer are queued than the last flush held, and room is left."""
        return (len(self._queue) < self._last_flush
                and self._queued_plans < self.max_batch
                and not self._closed)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting work and wait for in-flight drains to finish."""
        with self._lock:
            self._closed = True
            self._work.notify_all()  # lingering leaders exit promptly
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ConcurrentEstimatorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __deepcopy__(self, memo) -> "ConcurrentEstimatorService":
        # A pool is runtime machinery (executor threads, condition
        # variables): copying means building a fresh pool around a copy
        # of the wrapped service, not duplicating live threads.
        service = copy.deepcopy(self.service, memo)
        clone = ConcurrentEstimatorService(
            service, workers=self.workers, max_batch=self.max_batch,
        )
        memo[id(self)] = clone
        return clone

    # ------------------------------------------------------------------ #
    # Estimator protocol
    # ------------------------------------------------------------------ #
    def predict_plan(self, plan: PlanNode) -> float:
        """Predicted latency (ms), coalesced with concurrent callers."""
        return self.submit(plan).result()

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted latency (ms) per plan, enqueued as one request
        (``max_batch``-plan slices when larger)."""
        if self._can_serve_caught:
            return self._predict([self._catch(plan) for plan in plans])
        return self._predict(list(plans))

    def predict_caught(self, caught: Sequence[CaughtPlan]) -> np.ndarray:
        """``predict_plans`` for pre-caught plans, enqueued as one
        request.  Defined on the class (not delegated) so MRO probes see
        the pool genuinely supports the caught path."""
        self._require_caught()
        return self._predict(list(caught))

    def _predict(self, items: list) -> np.ndarray:
        if not items:
            return np.empty(0)
        values: List[float] = []
        for request in self._enqueue(items):
            values += request._wait()
        return np.array(values)

    def predict(self, dataset) -> np.ndarray:
        """Predicted latency (ms) per plan of a PlanDataset."""
        return self.predict_plans([sample.plan for sample in dataset])

    def predict_log(self, dataset) -> np.ndarray:
        """Predicted root log-latency per plan (direct service path)."""
        return self.service.predict_log(dataset)

    def predict_subplans(self, plan: PlanNode) -> np.ndarray:
        """Per-sub-plan latencies (direct service path)."""
        return self.service.predict_subplans(plan)

    # ------------------------------------------------------------------ #
    # Service passthroughs
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self):
        return self.service.cache_stats

    def invalidate(self) -> None:
        self.service.invalidate()

    def reset_stats(self) -> None:
        self.service.reset_stats()
