"""Span tracing installed from outside the program.

``Tracer.install`` replaces public entry points of ``repro`` (class
attributes and module-level functions, all looked up at call time) with
wrappers that record one span per call: name, start, end, parent span (a
per-thread stack) and, on client threads, the client's request id.
Spans are kept in compact per-thread arrays and analysed, and written
out, only after the traced window ends.  ``uninstall`` restores the
originals.

A few wrappers also feed hooks that measure what spans alone cannot:
queue wait (``submit`` to the start of the call that receives the same
``CaughtPlan`` object) and forward-batch shape.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class _Buffer:
    """Spans recorded by one thread, in call (start) order."""

    __slots__ = ("thread", "client", "name", "parent", "start", "end",
                 "request", "stack")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.client = False
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.request = array("q")
        self.stack: List[int] = []


class Tracer:
    """Records spans from every thread while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: List[_Buffer] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        # Queue-wait bookkeeping keyed by id(CaughtPlan): the object is
        # alive (held by the queue) between submit and the service call.
        self._pool_pending: Dict[int, int] = {}
        self._fleet_pending: Dict[int, int] = {}
        self.pool_waits: List[int] = []
        self.fleet_waits: List[int] = []
        # Per forward span id -> (plans, real nodes, padded node slots).
        self.forward_shapes: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        self.dropped = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def mark_client(self) -> None:
        self._buffer().client = True

    def set_request(self, request_id: int) -> None:
        self._local.request = request_id

    def enter(self, name_id: int) -> Tuple[_Buffer, int]:
        buf = self._buffer()
        index = len(buf.name)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.request.append(getattr(self._local, "request", -1)
                           if buf.client else -1)
        buf.end.append(0)
        buf.stack.append(index)
        buf.start.append(time.perf_counter_ns())
        return buf, index

    def exit(self, buf: _Buffer, index: int) -> None:
        buf.end[index] = time.perf_counter_ns()
        buf.stack.pop()

    def span(self, name: str):
        """Context manager for the benchmark's own spans."""
        tracer, name_id = self, self.name_id(name)

        class _Span:
            def __enter__(self):
                self.token = tracer.enter(name_id)

            def __exit__(self, *exc):
                tracer.exit(*self.token)

        return _Span()

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable, name: str,
              hook: Optional[Callable] = None) -> Callable:
        tracer, name_id = self, self.name_id(name)

        def traced(*args, **kwargs):
            buf, index = tracer.enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(buf, index)
            if hook is not None:
                hook(args, result, buf, index)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_pre(self, fn: Callable, name: str, hook: Callable) -> Callable:
        """Like ``_wrap``, but ``hook`` runs at span start."""
        tracer, name_id = self, self.name_id(name)

        def traced(*args, **kwargs):
            buf, index = tracer.enter(name_id)
            try:
                hook(args, buf, index)
                return fn(*args, **kwargs)
            finally:
                tracer.exit(buf, index)

        traced.__wrapped__ = fn
        return traced

    def patch_method(self, cls, attr: str, name: str, hook=None,
                     pre_hook=None) -> None:
        static = inspect.getattr_static(cls, attr)
        kind = type(static) if isinstance(
            static, (classmethod, staticmethod)) else None
        fn = static.__func__ if kind is not None else static
        wrapped = (self._wrap_pre(fn, name, pre_hook) if pre_hook
                   else self._wrap(fn, name, hook))
        setattr(cls, attr, kind(wrapped) if kind is not None else wrapped)
        self._patches.append((cls, attr, static))

    def patch_function(self, fn: Callable, name: str) -> None:
        """Replace ``fn`` in every loaded module that imported it."""
        wrapped = self._wrap(fn, name)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, fn.__name__, None) is fn):
                setattr(module, fn.__name__, wrapped)
                self._patches.append((module, fn.__name__, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _pool_submit(self, args, handle, buf, index) -> None:
        caught = getattr(handle, "_caught", None)
        if caught is not None:
            self._pool_pending[id(caught)] = buf.start[index]

    def _pool_submit_caught(self, args, handle, buf, index) -> None:
        key, start = id(args[1]), buf.start[index]
        self._pool_pending[key] = start
        entered = self._fleet_pending.pop(key, None)
        if entered is not None:
            self.fleet_waits.append(start - entered)

    def _fleet_submit(self, args, handle, buf, index) -> None:
        # Cache hits and sheds resolve inside submit: no queue to wait in.
        if not handle.done:
            self._fleet_pending[id(args[1])] = buf.start[index]

    def _service_start(self, args, buf, index) -> None:
        start = buf.start[index]
        for caught in args[1]:
            entered = self._pool_pending.pop(id(caught), None)
            if entered is not None:
                self.pool_waits.append(start - entered)

    def _dropped(self, args, count, buf, index) -> None:
        self.dropped += count

    def _forward_start(self, args, buf, index) -> None:
        valid = args[1].valid
        self.forward_shapes[(id(buf), index)] = (
            valid.shape[0], int(valid.sum()), valid.size)

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark
        reports on."""
        from repro.core.fused import FusedQErrorStep
        from repro.core.model import DACEModel
        from repro.core.trainer import Trainer
        from repro.featurize.catcher import CaughtPlan, catch_plan
        from repro.featurize.encoder import PlanEncoder
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor
        from repro.serve.cache import LRUCache
        from repro.serve.concurrent import ConcurrentEstimatorService
        from repro.serve.fleet import FleetGateway
        from repro.serve.fused import FusedInferStep
        from repro.serve.registry import ModelRegistry
        from repro.serve.resilience import ResilientEstimator
        from repro.serve.service import EstimatorService
        from repro.workloads.encoded import EncodedDataset

        self.patch_function(catch_plan, "catcher.catch")
        for cls, attr, name, hook, pre in (
            (CaughtPlan, "fingerprint", "catcher.fingerprint", None, None),
            (PlanEncoder, "encode_plan", "encoder.encode_plan", None, None),
            (PlanEncoder, "encode_batch", "encoder.encode_batch", None,
             None),
            (DACEModel, "infer", "forward.infer", None,
             self._forward_start),
            (FusedInferStep, "forward", "forward.fused", None,
             self._forward_start),
            (LRUCache, "get", "cache.get", None, None),
            (LRUCache, "put", "cache.put", None, None),
            (LRUCache, "drop_where", "cache.drop_where", self._dropped,
             None),
            (EstimatorService, "predict_caught", "service.predict_caught",
             None, self._service_start),
            (EstimatorService, "predict_log", "service.predict_log", None,
             None),
            (ConcurrentEstimatorService, "submit", "pool.submit",
             self._pool_submit, None),
            (ConcurrentEstimatorService, "submit_caught",
             "pool.submit_caught", self._pool_submit_caught, None),
            (FleetGateway, "submit_caught", "fleet.submit_caught",
             self._fleet_submit, None),
            (ModelRegistry, "activate", "registry.activate", None, None),
            (ModelRegistry, "register", "registry.register", None, None),
            (ResilientEstimator, "predict_caught",
             "resilience.predict_caught", None, self._service_start),
            (FusedQErrorStep, "step", "trainer.fused_step", None, None),
            (DACEModel, "forward", "model.forward", None, None),
            (Tensor, "backward", "tensor.backward", None, None),
            (Adam, "step", "optim.step", None, None),
            (EncodedDataset, "encode", "encoded.encode", None, None),
            (Trainer, "_epoch_loss", "trainer.validate", None, None),
        ):
            self.patch_method(cls, attr, name, hook=hook, pre_hook=pre)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """All recorded spans as flat numpy columns, with self times."""

    def __init__(self, tracer: Tracer) -> None:
        columns = {key: [] for key in ("name", "parent", "start", "end",
                                       "request", "thread", "client")}
        shapes = np.zeros((0, 3), dtype=np.int64)
        shape_keys, shape_values = [], []
        offset = 0
        for thread_index, buf in enumerate(list(tracer.buffers)):
            n = len(buf.end)
            parent = np.frombuffer(buf.parent, dtype=np.int32)[:n].astype(
                np.int64)
            columns["name"].append(
                np.frombuffer(buf.name, dtype=np.int32)[:n].astype(np.int64))
            columns["parent"].append(np.where(parent >= 0, parent + offset,
                                              -1))
            columns["start"].append(
                np.frombuffer(buf.start, dtype=np.int64)[:n])
            columns["end"].append(np.frombuffer(buf.end, dtype=np.int64)[:n])
            columns["request"].append(
                np.frombuffer(buf.request, dtype=np.int64)[:n])
            columns["thread"].append(np.full(n, thread_index))
            columns["client"].append(np.full(n, buf.client))
            for (buf_id, index), value in tracer.forward_shapes.items():
                if buf_id == id(buf) and index < n:
                    shape_keys.append(index + offset)
                    shape_values.append(value)
            offset += n
        for key, parts in columns.items():
            setattr(self, key, np.concatenate(parts) if parts
                    else np.zeros(0, dtype=np.int64))
        self.names = list(tracer.names)
        self.thread_names = [buf.thread for buf in tracer.buffers]
        self.shape_index = np.array(shape_keys, dtype=np.int64)
        self.shapes = (np.array(shape_values, dtype=np.int64)
                       if shape_values else shapes)
        # Spans still open when analysed (a drain thread mid-call) carry
        # end == 0; they are dropped from every statistic.
        self.closed = self.end > 0
        self.duration = np.where(self.closed, self.end - self.start, 0)
        has_parent = (self.parent >= 0) & self.closed
        self.child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent],
            minlength=len(self.end)).astype(np.int64)
        self.self_time = self.duration - self.child_time

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names
                         if n in self.names], dtype=np.int64)

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names)) & self.closed

    def under(self, *names: str) -> np.ndarray:
        """True for spans with an ancestor named in ``names``."""
        is_named = np.isin(self.name, self.ids(*names))
        inside = np.zeros(len(self.end), dtype=bool)
        has_parent = self.parent >= 0
        parents = self.parent[has_parent]
        for _ in range(64):
            updated = np.zeros_like(inside)
            updated[has_parent] = is_named[parents] | inside[parents]
            if np.array_equal(updated, inside):
                break
            inside = updated
        return inside

    def nesting_violations(self) -> int:
        """Client-thread spans whose children took longer than they did."""
        parents = self.closed & self.client & (self.child_time > 0)
        return int(np.count_nonzero(
            self.child_time[parents] > self.duration[parents]))

    def save(self, path: str) -> None:
        np.savez(path, name=self.name, parent=self.parent, start=self.start,
                 end=self.end, request=self.request, thread=self.thread,
                 names=np.array(self.names),
                 thread_names=np.array(self.thread_names))


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
SERVICE = ("service.predict_caught", "service.predict_log")
FORWARD = ("forward.infer", "forward.fused")
# Work the cold workload is built to stress, and the work the hot one is.
COLD_WORK = ("encoder.encode_plan", "encoder.encode_batch") + FORWARD + SERVICE
HOT_WORK = ("catcher.catch", "catcher.fingerprint", "cache.get", "cache.put")


def _median_us(values: np.ndarray) -> float:
    return float(np.median(values)) / 1e3 if len(values) else 0.0


def _quantile_us(values: List[int], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) / 1e3 if values else 0.0


def self_time_table(spans: Spans, plans: int) -> Dict[str, dict]:
    """Per span name: calls, median self time and total self time per plan."""
    table = {}
    for index, name in enumerate(spans.names):
        mask = (spans.name == index) & spans.closed
        if not mask.any():
            continue
        selfs = spans.self_time[mask]
        table[name] = {
            "calls": int(mask.sum()),
            "self_us_median": _median_us(selfs),
            "self_us_per_plan": float(selfs.sum()) / 1e3 / max(plans, 1),
        }
    return table


def serving_layers(spans: Spans, tracer: Tracer) -> Dict[str, float]:
    inside = spans.under(*SERVICE)
    forwards = spans.mask(*FORWARD) & inside
    fused = spans.mask("forward.fused") & inside
    shape_rows = np.isin(spans.shape_index, np.nonzero(forwards)[0])
    shapes = spans.shapes[shape_rows] if len(spans.shapes) else spans.shapes
    layers = {
        "catcher.catch_us": _median_us(
            spans.self_time[spans.mask("catcher.catch")]),
        "catcher.fingerprint_us": _median_us(
            spans.self_time[spans.mask("catcher.fingerprint")]),
        "encoder.encode_plan_us": _median_us(
            spans.self_time[spans.mask("encoder.encode_plan")]),
        "encoder.encode_batch_us": _median_us(
            spans.self_time[spans.mask("encoder.encode_batch")]),
        "forward.batch_us": _median_us(spans.self_time[forwards]),
        "forward.plans_per_batch": (float(np.median(shapes[:, 0]))
                                    if len(shapes) else 0.0),
        "forward.pad_efficiency": (float(shapes[:, 1].sum() / shapes[:, 2].sum())
                                   if len(shapes) else 0.0),
        "forward.fused_share": (float(fused.sum() / forwards.sum())
                                if forwards.any() else 0.0),
        "cache.get_us": _median_us(spans.self_time[spans.mask("cache.get")]),
        "cache.dropped": float(tracer.dropped),
        "service.self_us": _median_us(spans.self_time[spans.mask(*SERVICE)]),
        "pool.queue_wait_us_p50": _quantile_us(tracer.pool_waits, 0.5),
        "pool.queue_wait_us_p99": _quantile_us(tracer.pool_waits, 0.99),
        "fleet.submit_us": _median_us(
            spans.self_time[spans.mask("fleet.submit_caught")]),
        "fleet.queue_wait_us_p99": _quantile_us(tracer.fleet_waits, 0.99),
        "registry.activate_us": _median_us(
            spans.self_time[spans.mask("registry.activate")]),
        "registry.register_ms": _median_us(
            spans.duration[spans.mask("registry.register")]) / 1e3,
        "resilience.self_us": _median_us(
            spans.self_time[spans.mask("resilience.predict_caught")]),
    }
    return layers


def training_layers(spans: Spans) -> Dict[str, float]:
    fit, lora = spans.under("phase.fit"), spans.under("phase.lora")
    validating = spans.under("trainer.validate")
    steps = spans.mask("optim.step")
    lora_forward = spans.duration[spans.mask("model.forward") & lora
                                  & ~validating]
    lora_backward = spans.duration[spans.mask("tensor.backward") & lora]
    return {
        "encoded.build_s": float(
            spans.duration[spans.mask("encoded.encode") & fit].sum()) / 1e9,
        "trainer.fit_step_us": _median_us(
            spans.self_time[spans.mask("trainer.fused_step")]),
        "trainer.lora_step_us": (_median_us(lora_forward)
                                 + _median_us(lora_backward)),
        "optim.step_us": _median_us(spans.self_time[steps]),
        "trainer.fused_share": float(
            (spans.mask("trainer.fused_step") & fit).sum()
            / max((steps & fit).sum(), 1)),
        "trainer.lora_fused_share": float(
            (spans.mask("trainer.fused_step") & lora).sum()
            / max((steps & lora).sum(), 1)),
        "trainer.validate_s": float(
            spans.duration[spans.mask("trainer.validate") & fit].sum()) / 1e9,
    }
