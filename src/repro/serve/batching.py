"""Micro-batching facade: coalesce single-plan calls into batched inference.

Callers that price plans one at a time (plan steering loops, say)
leave batch efficiency on the table.  :class:`MicroBatcher` restores it
without restructuring the caller: ``submit`` enqueues a plan and returns
a :class:`PendingPrediction`; nothing runs until the batch fills
(``max_batch``), the oldest queued plan exceeds ``flush_deadline_s``,
``flush`` is called, or a pending result is read — at which point *all*
queued plans go through one batched ``predict_plans`` call.

The degenerate pattern ``submit(plan).result()`` still works (it just
flushes a batch of one), so a MicroBatcher can be dropped in front of any
Estimator unconditionally.

**Failure semantics:** when the underlying estimator raises mid-flush,
every handle in that batch is *resolved with the exception* — reading it
re-raises — and the queue is cleared.  The failed plans are never
silently requeued: requeueing meant a later, unrelated ``submit`` could
blow up on stale state, and a permanently-broken estimator turned
``result()`` into an infinite retry.  Callers that want retries put a
:class:`~repro.serve.resilience.ResilientEstimator` *under* the batcher,
which retries (and ultimately degrades) inside one flush instead.

**Thread safety:** ``submit``/``flush``/``result`` may be called from any
number of threads.  The queue swap happens under a mutex, the estimator
runs outside it (so submissions keep flowing during a flush), and every
handle carries an event: a ``result()`` that finds its handle claimed by
another thread's in-flight flush waits for that flush to resolve or
reject it instead of seeing a half-written batch.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.plan import PlanNode
from repro.obs import MetricsRegistry


class PendingPrediction:
    """Handle for a submitted plan; reading it forces a flush.

    A handle is *done* once its flush ran — either resolved with a value
    (``result()`` returns it) or rejected with the flush's exception
    (``result()`` raises it; ``exception()`` exposes it without raising).
    """

    __slots__ = ("_batcher", "_value", "_error", "_done")

    def __init__(self, batcher: "MicroBatcher") -> None:
        self._batcher = batcher
        self._value: Optional[float] = None
        self._error: Optional[BaseException] = None
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    def exception(self) -> Optional[BaseException]:
        """The rejection cause, or None while pending / after success."""
        return self._error

    def result(self) -> float:
        """Predicted latency (ms), flushing the queue if still pending.

        Cannot hang: either this call's flush resolves the handle, or the
        handle was already claimed by another thread's in-flight flush —
        in which case we wait for that flush, whose success *and* failure
        paths both mark the handle done.  A rejected handle re-raises the
        estimator's exception here (and on every later call).
        """
        if not self._done.is_set():
            self._batcher.flush()
            # Claimed by a concurrent flush that has not resolved us yet.
            self._done.wait()
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def _resolve(self, value: float) -> None:
        self._value = value
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class MicroBatcher:
    """Coalesces ``predict_plan`` traffic into ``predict_plans`` batches.

    Speaks the Estimator protocol itself, so it can stand wherever an
    estimator is expected while transparently batching whatever single-plan
    traffic reaches it.

    ``flush_deadline_s`` bounds queue staleness: a ``submit`` arriving
    after the oldest queued plan has waited that long triggers a flush
    even if the batch is not full (there is no background thread — the
    deadline is checked on submission, and ``result()`` always forces a
    flush regardless).
    """

    def __init__(
        self,
        estimator,
        max_batch: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        flush_deadline_s: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if flush_deadline_s is not None and flush_deadline_s < 0:
            raise ValueError(
                f"flush_deadline_s must be >= 0, got {flush_deadline_s}"
            )
        self.estimator = estimator
        self.max_batch = max_batch
        self.flush_deadline_s = flush_deadline_s
        self._clock = clock
        # Guards the pending queue (plans/handles/oldest timestamp) and
        # the coalescing tallies; never held across an estimator call.
        self._mutex = threading.Lock()
        self._oldest_enqueued: Optional[float] = None
        self._plans: List[PlanNode] = []
        self._handles: List[PendingPrediction] = []
        self.batches_run = 0
        self.plans_batched = 0
        # Share the wrapped estimator's registry when it has one, so one
        # report covers the whole serving stack.
        if metrics is None:
            metrics = getattr(estimator, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue_depth = self.metrics.gauge(
            "batch.queue_depth", help="plans currently queued"
        )
        self._flush_sizes = self.metrics.histogram(
            "batch.flush_size", help="plans coalesced per flush"
        )
        self._flushes = self.metrics.counter(
            "batch.flushes", help="batched inference calls run"
        )
        self._plans_total = self.metrics.counter(
            "batch.plans", help="plans submitted through the batcher"
        )
        self._failed_flushes = self.metrics.counter(
            "batch.failed_flushes", help="flushes aborted by the estimator"
        )
        self._rejected = self.metrics.counter(
            "batch.rejected_plans",
            help="pending predictions resolved with an exception",
        )
        self._deadline_flushes = self.metrics.counter(
            "batch.deadline_flushes",
            help="flushes triggered by the queue-staleness deadline",
        )
        self._coalescing = self.metrics.gauge(
            "batch.coalescing_ratio", help="mean plans per flush so far"
        )

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        return len(self._plans)

    def _deadline_reached(self) -> bool:
        return (
            self.flush_deadline_s is not None
            and self._oldest_enqueued is not None
            and self._clock() - self._oldest_enqueued >= self.flush_deadline_s
        )

    def submit(self, plan: PlanNode) -> PendingPrediction:
        """Queue one plan; auto-flushes on a full batch or stale queue.

        Never raises on estimator failure: when an auto-flush fails, the
        error is delivered through the affected handles (this one
        included) instead of at whichever caller happened to tip the
        batch over the edge.
        """
        handle = PendingPrediction(self)
        with self._mutex:
            if not self._plans:
                self._oldest_enqueued = self._clock()
            self._plans.append(plan)
            self._handles.append(handle)
            depth = len(self._plans)
            full = depth >= self.max_batch
            stale = not full and self._deadline_reached()
        self._plans_total.inc()
        self._queue_depth.set(depth)
        if full:
            self._try_flush()
        elif stale:
            self._deadline_flushes.inc()
            self._try_flush()
        return handle

    def _try_flush(self) -> None:
        try:
            self.flush()
        except Exception:
            pass  # already delivered through each rejected handle

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_mutex"]  # process-local; recreated on restore
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.Lock()

    def flush(self) -> None:
        """Run one batched inference over everything queued.

        If the underlying estimator raises, every queued handle is
        rejected with that exception (``result()`` re-raises it), the
        queue is cleared, and the exception propagates to the direct
        caller.  Plans submitted *during* a failing flush are untouched.
        """
        with self._mutex:
            if not self._plans:
                return
            plans, handles = self._plans, self._handles
            self._plans, self._handles = [], []
            self._oldest_enqueued = None
        try:
            with self.metrics.timer("batch.flush_seconds"):
                values = self.estimator.predict_plans(plans)
        except BaseException as error:
            # Reject on *BaseException* too (KeyboardInterrupt, ...): the
            # batch is already claimed, so an unresolved handle would make
            # a concurrent result() wait forever.
            for handle in handles:
                handle._reject(error)
            self._failed_flushes.inc()
            self._rejected.inc(len(handles))
            self._queue_depth.set(len(self._plans))
            raise
        for handle, value in zip(handles, values):
            handle._resolve(float(value))
        with self._mutex:
            self.batches_run += 1
            self.plans_batched += len(plans)
            ratio = self.plans_batched / self.batches_run
        self._flushes.inc()
        self._flush_sizes.observe(len(plans))
        self._queue_depth.set(len(self._plans))
        self._coalescing.set(ratio)

    # ------------------------------------------------------------------ #
    # Estimator protocol
    # ------------------------------------------------------------------ #
    def predict_plan(self, plan: PlanNode) -> float:
        return self.submit(plan).result()

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        self.flush()  # keep submission order for anything already queued
        return np.asarray(self.estimator.predict_plans(plans), dtype=np.float64)

    def predict(self, dataset) -> np.ndarray:
        self.flush()
        return np.asarray(self.estimator.predict(dataset), dtype=np.float64)
