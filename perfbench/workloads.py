"""The benchmark's two workloads.

Every workload follows the same two users through one process:

* the operator pre-trains DACE, LoRA-fine-tunes adapters and bulk-prices
  a held-out database (the paper's Tab II protocol): ``train_plans_per_s``,
  ``lora_plans_per_s``, ``infer_plans_per_s``, ``qerror_p50``/``p95``;
* optimizer sessions price the candidate plans of each query in a closed
  loop and wait for every answer: ``plans_per_s`` and request latency
  quantiles.

A run alternates the two: ROUNDS set-ups, each followed by a share of the
``--seconds`` of closed loop.  The workloads differ in the serving stack
and in the traffic the optimizer sends; see README.md.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import queue
import resource
import statistics
import threading
import time
import types
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import inputs
import tracing
from repro.core import DACE, TrainingConfig
from repro.metrics.qerror import qerror
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimatorService
from repro.workloads.dataset import PlanDataset

# select_cold prices from one closed-loop client through a 2-worker pool.
# With two clients on a 2-vCPU VM the four threads handed the interpreter
# lock to each other on the pool's timed waits, and plans/s and request
# p90 spread 0.27 and 0.29 over 5 seeds, against 0.08 and 0.07 with one.
CLIENTS = 1
WORKERS = 2
# A run is this many rounds, each a set-up followed by a closed-loop
# segment of 1/ROUNDS of --seconds on the stack just built.  Host speed on
# a shared 2-vCPU VM drifts over tens of seconds; interleaving spreads
# every measurement (Tab II throughput in each set-up, serving in each
# segment) over the whole run instead of timing training in its first
# third and serving in its last.  setup_s is the median round's set-up.
ROUNDS = 5
WINDOWS_PER_ROUND = 4  # each segment is reported over this many slices
# On a shared 2-vCPU VM the host deschedules the vCPUs now and then
# ("steal"): 2-8 % of the time on average, but in some minutes it took
# close to half of it.  A stolen slice shows as wall time in which the
# process got less CPU.  Loop throughput and latency are therefore
# reported over the windows in which the process got the most CPU per
# wall second, keeping this share of them (over 5 seeds of tenant_hot,
# plans/s spread 0.28 over all windows and 0.17 over the better half).
# The choice never looks at the timed value itself, so a slower program
# is slower in every window it keeps.
STEADY_SHARE = 0.5

# The cold cycle must outgrow every serving cache: the 4096-entry
# prediction LRU, the 4096-entry encoding memo and the 4096-entry
# identity-keyed catch memo of the worker pool.
COLD_PLANS = 4800
# tenant_hot traffic.  The skews are those of the repository's own fleet
# replay (src/repro/bench/fleet.py): tenants strongly skewed, queries
# within a tenant mildly.  Tenants are ranked in inputs.SERVE_DBS order,
# and, as in that replay's churn segment, the coldest tenant is the one
# re-registered.
TENANT_SKEW = 1.3
PLAN_SKEW = 1.05
# Recurring queries per tenant (an assumption): 4 tenants x 80 queries x
# 4.5 plans is about 1440 cache entries, well inside the shard caches.
HOT_GROUPS = 80
# tenant_hot, too, prices from one closed-loop client; a writer thread
# only re-registers adapters, while the reader goes on.  A cache hit is
# pure Python, so two reading clients could not run at once under the
# interpreter lock: they took turns in 5 ms switch-interval slices, priced
# fewer plans per second than one reader, and request p50 and p90
# measured which slice a request fell in (spreads 0.30 and 0.34 over 5
# seeds).
# Plan objects the reader cycles through.  Each request re-sends a
# recurring query as fresh plan objects, the way an optimizer re-plans
# it; more than the gateway's 4096-entry identity memo, so every plan is
# caught afresh.
HOT_OBJECTS = 4400
# The writing client re-registers the churned tenant's adapter every this
# many reader requests (about 580 plans; an assumption).  Each write drops
# that tenant's cache entries, and the reads after it refill them through
# the per-layer LoRA forward.  On a 2-vCPU VM the gateway hit ratio is then
# about 0.93 and the reader prices about 9.5k plans/s, against 0.99 and
# 14k at one write per 4000 requests, so the write path is a third of the
# workload's cost.  The traced check that catch, fingerprint and cache
# lookup out-cost encode, forward and service still holds, by about 2.5
# to 1 per plan.
REREGISTER_EVERY = 128
# Patience equals the epoch budget, so every fit runs the same number of
# epochs whatever the seed; with early stopping the fixed encode cost was
# spread over a seed-dependent number of epochs.
SERVE_TRAINING = TrainingConfig(epochs=20, batch_size=64, patience=20)
# LoRA fine-tuning and bulk prediction take about half a second each per
# set-up at 20 epochs and 20 repeats; at 40 each their runs spread less.
LORA_EPOCHS = 40
INFER_REPEATS = 40


def _now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quiet_gc() -> None:
    """Collect now and move every live object out of the collector's
    view, so a long-lived heap does not slow later collections.  Objects
    frozen earlier are collected first: a closed stack's cycles would
    otherwise never be freed."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------- #
# Registry snapshots
# ---------------------------------------------------------------------- #
def snapshot(registry) -> Dict[str, float]:
    """Counter values and histogram count/sum from a MetricsRegistry."""
    values: Dict[str, float] = {}
    for name, metric in registry.as_dict().items():
        if hasattr(metric, "count") and hasattr(metric, "sum"):
            values[name + ".count"] = float(metric.count)
            values[name + ".sum"] = float(metric.sum)
        else:
            values[name] = float(metric.value)
    return values


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_of(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def steady_indices(cpu_shares: Sequence[float]) -> List[int]:
    """The STEADY_SHARE of repetitions with the highest CPU share (CPU
    seconds per wall second), at least one."""
    order = sorted(range(len(cpu_shares)), key=lambda i: -cpu_shares[i])
    return order[:max(1, int(len(order) * STEADY_SHARE + 0.5))]


# ---------------------------------------------------------------------- #
# Closed loop
# ---------------------------------------------------------------------- #
@dataclass
class Request:
    plans: list
    keys: Sequence            # reference keys, one per plan
    tenant: Optional[str] = None


@dataclass
class LoopResult:
    """Every request of one or more closed-loop segments."""

    seconds: float            # wall seconds, start to last answer, summed
    window_s: np.ndarray      # wall seconds per window
    window_cpu: np.ndarray    # process CPU seconds per window
    window: np.ndarray        # window per answered request (-1: after the last)
    latency_ns: np.ndarray    # latency per answered request
    plans: np.ndarray         # plans per correctly answered request (else 0)
    sent: int
    failed: int
    per_client: List[int]
    writes: int
    mismatches: List[str]

    @staticmethod
    def merge(parts: Sequence["LoopResult"]) -> "LoopResult":
        """The segments as one loop: windows are numbered on."""
        offsets = np.cumsum([0] + [len(p.window_s) for p in parts[:-1]])
        return LoopResult(
            seconds=sum(p.seconds for p in parts),
            window_s=np.concatenate([p.window_s for p in parts]),
            window_cpu=np.concatenate([p.window_cpu for p in parts]),
            window=np.concatenate([np.where(p.window < 0, -1, p.window + o)
                                   for p, o in zip(parts, offsets)]),
            latency_ns=np.concatenate([p.latency_ns for p in parts]),
            plans=np.concatenate([p.plans for p in parts]),
            sent=sum(p.sent for p in parts),
            failed=sum(p.failed for p in parts),
            per_client=[sum(c) for c in zip(*(p.per_client for p in parts))],
            writes=sum(p.writes for p in parts),
            mismatches=[m for p in parts for m in p.mismatches],
        )

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    @property
    def plans_per_s(self) -> float:
        return float(self.plans.sum()) / self.seconds

    def windows(self) -> List[dict]:
        """Throughput, latency quantiles and CPU share per window."""
        stats = []
        for index, wall in enumerate(self.window_s.tolist()):
            mine = self.window == index
            latency = self.latency_ns[mine] / 1e6
            stats.append({
                "requests": int(mine.sum()),
                "plans_per_s": float(self.plans[mine].sum()) / wall,
                "p99_ms": _quantile(latency, 0.99),
                "cpu_share": float(self.window_cpu[index]) / wall,
            })
        return stats

    def summary(self) -> Dict[str, float]:
        """Throughput as the median over the kept windows (see
        STEADY_SHARE); latency quantiles over every request completed in
        them."""
        stats = self.windows()
        kept = steady_indices([w["cpu_share"] for w in stats])
        latency = self.latency_ns[np.isin(self.window, kept)] / 1e6
        return {
            "plans_per_s": median_of([stats[i]["plans_per_s"]
                                      for i in kept]),
            "request_p50_ms": _quantile(latency, 0.5),
            "request_p90_ms": _quantile(latency, 0.9),
            "request_p99_ms": _quantile(latency, 0.99),
            "latency_samples": len(latency),
        }

    def counts(self) -> dict:
        stats = self.windows()
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "per_client": self.per_client,
                "writes": self.writes,
                "window_plans_per_s": [round(w["plans_per_s"])
                                       for w in stats],
                "window_p99_ms": [round(w["p99_ms"], 2) for w in stats],
                "window_cpu_share": [round(w["cpu_share"], 3)
                                     for w in stats]}


def closed_loop(seconds: float, next_request: Callable[[int], Request],
                send: Callable[[Request], np.ndarray],
                check: Callable[[Request, np.ndarray], bool],
                windows: int,
                between: Optional[Callable[[int, int], bool]] = None,
                tracer=None) -> LoopResult:
    """Each client sends its next request only after the previous answer.

    The loop runs ``seconds`` and is cut into ``windows`` equal slices.
    ``between(client, n)`` runs before a client's n-th request and is not
    part of any request's latency (tenant_hot starts an adapter
    re-registration there); it returns whether it started a write.  Every
    answer is checked with ``check``; a raised error or a wrong answer is
    a failed request.
    """
    start_gate = threading.Barrier(CLIENTS + 1)
    clock = {}
    results: List[Optional[tuple]] = [None] * CLIENTS
    request_ids = iter(range(1 << 62))
    id_lock = threading.Lock()

    def client(index: int) -> None:
        done, latencies, plans = [], [], []
        sent = failed = writes = 0
        mismatches: List[str] = []
        span = tracer.span("client.request") if tracer else nullcontext()
        if tracer:
            tracer.mark_client()
        start_gate.wait()
        deadline = clock["deadline"]
        while _now() < deadline:
            if between is not None and between(index, sent):
                writes += 1
            request = next_request(index)
            if tracer:
                with id_lock:
                    tracer.set_request(next(request_ids))
            sent += 1
            began = time.perf_counter_ns()
            try:
                with span:
                    values = send(request)
            except Exception as error:  # a failed request, not a crash
                failed += 1
                if len(mismatches) < 5:
                    mismatches.append(f"raised {error!r}")
                continue
            ended = time.perf_counter_ns()
            done.append(ended)
            latencies.append(ended - began)
            if check(request, values):
                plans.append(len(request.plans))
            else:
                plans.append(0)
                failed += 1
                if len(mismatches) < 5:
                    mismatches.append(f"wrong answer for {request.keys}")
        results[index] = (done, latencies, plans, sent, failed, writes,
                          mismatches)

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"bench-client{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    clock["deadline"] = _now() + seconds
    start_ns = time.perf_counter_ns()
    start_gate.wait()
    # This thread samples the process's CPU clock at every window edge.
    edges_ns, edges_cpu = [start_ns], [time.process_time()]
    for index in range(1, windows + 1):
        edge = start_ns + int(seconds * 1e9 * index / windows)
        time.sleep(max(0.0, (edge - time.perf_counter_ns()) / 1e9))
        edges_ns.append(time.perf_counter_ns())
        edges_cpu.append(time.process_time())
    for thread in threads:
        thread.join()
    done = np.array([x for r in results for x in r[0]], dtype=np.int64)
    order = np.argsort(done, kind="stable")
    slot = np.searchsorted(np.array(edges_ns), done[order], side="right") - 1
    end_ns = int(done.max()) if len(done) else time.perf_counter_ns()
    return LoopResult(
        seconds=(end_ns - start_ns) / 1e9,
        window_s=np.diff(np.array(edges_ns)) / 1e9,
        window_cpu=np.diff(np.array(edges_cpu)),
        window=np.where(slot < windows, slot, -1),
        latency_ns=np.array([x for r in results for x in r[1]],
                            dtype=np.int64)[order],
        plans=np.array([x for r in results for x in r[2]],
                       dtype=np.int64)[order],
        sent=sum(r[3] for r in results),
        failed=sum(r[4] for r in results),
        per_client=[r[3] for r in results],
        writes=sum(r[5] for r in results),
        mismatches=[m for r in results for m in r[6]],
    )


def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else float("nan")


def cycle(items: Sequence) -> Callable[[int], object]:
    """Hand out ``items`` in one fixed global order, shared by clients."""
    lock = threading.Lock()
    position = [0]

    def next_item(_client: int):
        with lock:
            item = items[position[0] % len(items)]
            position[0] += 1
        return item

    return next_item


# ---------------------------------------------------------------------- #
# Operator phase (Tab II)
# ---------------------------------------------------------------------- #
def plan_epochs(history: Sequence[dict], plans: int, phase=None) -> int:
    return plans * sum(1 for epoch in history if epoch.get("phase") == phase)


def qerrors(predicted: np.ndarray, dataset) -> Dict[str, float]:
    errors = qerror(predicted, dataset.latencies())
    return {"qerror_p50": float(np.quantile(errors, 0.5)),
            "qerror_p95": float(np.quantile(errors, 0.95))}


class Timed:
    """Work done in a block, with the wall and CPU seconds it took."""

    def __init__(self) -> None:
        self.work, self.wall, self.cpu = 0, 0.0, 0.0

    def run(self, operation: Callable[[], object]):
        wall, cpu = _now(), time.process_time()
        result = operation()
        self.wall += _now() - wall
        self.cpu += time.process_time() - cpu
        return result


def timed_fit(dace: DACE, train) -> Timed:
    """Pre-train; the work is the plan-epochs actually run."""
    timed = Timed()
    began = len(dace.trainer.history)
    timed.run(lambda: dace.fit(train))
    timed.work = plan_epochs(dace.trainer.history[began:], len(train))
    return timed


def timed_lora(fine_tunes: Sequence[Callable[[], object]], dace: DACE,
               sizes: Sequence[int]) -> Timed:
    """Run LoRA fine-tunes; the work is their plan-epochs."""
    timed = Timed()
    for fine_tune, size in zip(fine_tunes, sizes):
        began = len(dace.trainer.history)
        timed.run(fine_tune)
        timed.work += plan_epochs(dace.trainer.history[began:], size,
                                  "fine_tune_lora")
    return timed


def fresh_copy(dataset) -> PlanDataset:
    """The dataset with every plan cloned.  The serving stack memoizes
    catches and fingerprints by plan object, so a cold predict needs plan
    objects it has not seen."""
    return PlanDataset([dataclasses.replace(sample, plan=sample.plan.clone())
                        for sample in dataset])


def timed_infer(dace: DACE, dataset):
    """Cold bulk prediction, INFER_REPEATS times, each on fresh plan
    objects and emptied caches.

    It runs on the estimator's own ``EstimatorService``, the path
    ``DACE.predict`` takes on an estimator built without a pool or fleet:
    bulk pricing is the operator's offline step.  Through the pool or the
    fleet its batches were cut by thread timing, and it spread 0.4 over
    4 seeds.

    Returns the timing, the answers, and whether every repeat gave the
    same bits.
    """
    timed, answers, stable = Timed(), None, True
    for _ in range(INFER_REPEATS):
        fresh = fresh_copy(dataset)
        dace.service.invalidate()
        answer = timed.run(lambda: dace.service.predict(fresh))
        timed.work += len(fresh)
        if answers is None:
            answers = answer
        stable = stable and np.array_equal(answer, answers)
    return timed, answers, stable


def operator_phase(dace: DACE, corpus: "inputs.Corpus") -> dict:
    """Pre-train, then zero-shot bulk prediction on unseen databases."""
    ops = {"train": timed_fit(dace, corpus.train)}
    ops["infer"], answers, ops["infer_stable"] = timed_infer(
        dace, corpus.held_m1)
    ops.update(qerrors(answers, corpus.held_m1))
    return ops


# ---------------------------------------------------------------------- #
# Result
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    metrics: Dict[str, float]
    layers: Dict[str, float]
    phases: Dict[str, dict]
    checks: Dict[str, bool]
    attempted: int
    failed: int
    notes: List[str] = field(default_factory=list)
    trace: Optional[object] = None


def add(total: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    return {key: total.get(key, 0.0) + more.get(key, 0.0)
            for key in set(total) | set(more)}


def per_wall_s(runs: Sequence[dict], key: str) -> float:
    """Work per wall second over every set-up: work and time are summed
    first, so no single short measurement dominates."""
    return sum(r[key].work for r in runs) / sum(r[key].wall for r in runs)


def per_cpu_s(runs: Sequence[dict], key: str) -> float:
    """Work per CPU second of the process over every set-up."""
    return sum(r[key].work for r in runs) / sum(r[key].cpu for r in runs)


def operator_metrics(runs: Sequence[dict]) -> Dict[str, float]:
    """Operator (Tab II) metrics over repeated set-ups.

    Every set-up trains from the same seed, so q-errors are taken from
    the first and must repeat exactly (``answers_repeat``).
    """
    first = runs[0]
    return {
        "train_plans_per_s": per_wall_s(runs, "train"),
        "lora_plans_per_s": per_wall_s(runs, "lora"),
        "infer_plans_per_s": per_wall_s(runs, "infer"),
        "qerror_p50": first["qerror_p50"],
        "qerror_p95": first["qerror_p95"],
        "answers_repeat": all(
            r["infer_stable"] and r["qerror_p50"] == first["qerror_p50"]
            and r["qerror_p95"] == first["qerror_p95"] for r in runs),
    }


# ---------------------------------------------------------------------- #
# select_cold
# ---------------------------------------------------------------------- #
def select_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    t0 = _now()
    plans, groups = inputs.cold_requests(seed, COLD_PLANS)
    corpus = inputs.serving_corpus(seed)
    gen_s = _now() - t0
    requests = [Request([plans[i] for i in g], g) for g in groups]
    lora_set = inputs.PlanDataset.merge(corpus.held_m2.values())

    def build():
        dace = DACE(training=SERVE_TRAINING, seed=seed, workers=WORKERS)
        ops = operator_phase(dace, corpus)
        # A LoRA variant for the other machine, fine-tuned through the
        # registry; serving then switches back to the zero-shot base, so
        # the fused kernel stays engaged.
        registry = ModelRegistry(dace)
        ops["lora"] = timed_lora(
            [lambda: registry.fine_tune("serve/M2", lora_set,
                                        epochs=LORA_EPOCHS)],
            dace, [len(lora_set)])
        registry.activate(ModelRegistry.BASE_TAG)
        # Warm-up: one pass over the cycle, so the serving caches are full
        # and evicting when timing starts.  With a 64-plan warm-up the
        # timed loop ran about a sixth faster in its first 5 s than after.
        # One call fills the caches in cycle order, as the loop would.
        dace.predict_plans(plans)
        dace.ops = ops
        # Serving starts the cycle over, at the plans the warm-up priced
        # longest ago; a traced loop continues where the last segment
        # stopped.  Either way the next plan is the least recently priced.
        dace.next_request = cycle(requests)
        return dace

    reference: List[np.ndarray] = []

    def check(request: Request, values: np.ndarray) -> bool:
        return bool(np.array_equal(values, reference[0][request.keys]))

    def serve(dace, span_s: float, windows: int, tracer) -> LoopResult:
        if not reference:
            # Reference answers from a bare service over the same weights;
            # every round trains from the same seed, so one set serves all.
            bare = EstimatorService(dace.model, dace.encoder,
                                    batch_size=dace.training.batch_size,
                                    cache_size=0)
            reference.append(bare.predict_plans(plans))
        return closed_loop(span_s, dace.next_request,
                           lambda request: dace.predict_plans(request.plans),
                           check, windows, tracer=tracer)

    outcome = measure("select_cold", build, lambda d: d.pool.close(), serve,
                      seconds, trace, gen_s)
    if trace:
        trace_operator(outcome, seed, corpus, lora_set)
    return outcome


# ---------------------------------------------------------------------- #
# tenant_hot
# ---------------------------------------------------------------------- #
def tenant_hot(seed: int, seconds: float, trace: bool) -> Outcome:
    t0 = _now()
    tenants = list(inputs.SERVE_DBS)
    swapped, v2 = tenants[-1], tenants[-1] + "@v2"
    working = inputs.tenant_working_sets(seed, HOT_GROUPS)
    corpus = inputs.serving_corpus(seed)
    adapters = dict(corpus.held_m2)
    adapters[v2] = inputs.labelled([swapped], inputs.HELD_PER_DB, seed,
                                   "lora-v2", machine=inputs.M2)
    # Requests come in blocks of REREGISTER_EVERY, each with every
    # tenant's zipf share exactly, so that every seed and every write
    # interval sends the churned tenant as many requests.  Drawn one by
    # one, that share moved between seeds, and with it the misses, which
    # cost a third of the loop: plans/s followed it by up to a fifth.
    rng = np.random.default_rng(inputs.stream_seed(seed, "hot", "0"))
    sequence, objects = [], 0
    while objects < HOT_OBJECTS:
        for rank in inputs.zipf_block(rng, REREGISTER_EVERY, len(tenants),
                                      TENANT_SKEW):
            tenant = tenants[int(rank)]
            group = int(inputs.zipf_draws(rng, 1, HOT_GROUPS,
                                          PLAN_SKEW)[0])
            fresh = [plan.clone() for plan in working[tenant][group]]
            sequence.append(Request(
                fresh, [(tenant, group, j) for j in range(len(fresh))],
                tenant))
            objects += len(fresh)
    gen_s = _now() - t0

    def build():
        dace = DACE(training=SERVE_TRAINING, seed=seed, shards=2,
                    resilient=True)
        ops = operator_phase(dace, corpus)
        # One LoRA adapter per tenant (its machine-M2 labels), plus a
        # second version of the churned tenant's for the writes.
        registry = ModelRegistry(dace)
        ops["lora"] = timed_lora(
            [lambda tag=tag, data=data: registry.fine_tune(
                tag, data, epochs=LORA_EPOCHS)
             for tag, data in adapters.items()],
            dace, [len(data) for data in adapters.values()])
        states = {tag: registry.adapter_state(tag) for tag in adapters}
        for tenant in tenants:
            dace.register_tenant(tenant, states[tenant])
        # Warm-up: every recurring query once, so the shard caches hold
        # the whole working set before timing.
        for tenant in tenants:
            for group in working[tenant]:
                dace.fleet.predict_plans(group, tenant)
        dace.ops, dace.states = ops, states
        dace.next_request = cycle(sequence)
        return dace

    reference: Dict[tuple, float] = {}

    def make_reference(dace) -> None:
        # A bare service on a copy of the weights, each tenant's adapter
        # applied through a ModelRegistry.  Every round trains from the
        # same seed, so one reference serves all.
        model = copy.deepcopy(dace.model)
        bare = EstimatorService(model, dace.encoder,
                                batch_size=dace.training.batch_size,
                                cache_size=0)
        registry = ModelRegistry(types.SimpleNamespace(model=model,
                                                       service=bare))
        for tag, state in dace.states.items():
            registry.register(tag, state)
            registry.activate(tag)
            tenant = swapped if tag == v2 else tag
            flat = [(g, j, plan) for g, group in enumerate(working[tenant])
                    for j, plan in enumerate(group)]
            values = bare.predict_plans([plan for _, _, plan in flat])
            for (g, j, _), value in zip(flat, values):
                reference[(tag, g, j)] = float(value)

    def check(request: Request, values: np.ndarray) -> bool:
        # A read racing a re-registration may see either version.
        for (tenant, g, j), value in zip(request.keys, values):
            if value != reference[(tenant, g, j)] and not (
                    tenant == swapped and value == reference[(v2, g, j)]):
                return False
        return True

    write_errors: List[str] = []
    version = [0]

    def serve(dace, span_s: float, windows: int, tracer) -> LoopResult:
        if not reference:
            make_reference(dace)
        # The writing client: each re-registration runs on its own thread
        # while the reader goes on sending.
        versions: "queue.Queue[Optional[int]]" = queue.Queue()

        def writer() -> None:
            while (which := versions.get()) is not None:
                try:
                    dace.register_tenant(
                        swapped, dace.states[v2 if which else swapped])
                except Exception as error:
                    write_errors.append(repr(error))

        def between(client: int, sent: int) -> bool:
            if sent == 0 or sent % REREGISTER_EVERY:
                return False
            version[0] ^= 1
            versions.put(version[0])
            return True

        def send(request: Request) -> np.ndarray:
            return dace.fleet.predict_plans(request.plans, request.tenant)

        write_thread = threading.Thread(target=writer, name="bench-writer")
        write_thread.start()
        try:
            return closed_loop(span_s, dace.next_request, send, check,
                               windows, between=between, tracer=tracer)
        finally:
            versions.put(None)
            write_thread.join()

    outcome = measure("tenant_hot", build, lambda d: d.fleet.close(), serve,
                      seconds, trace, gen_s)
    outcome.checks["writes_succeeded"] = not write_errors
    outcome.notes += write_errors[:5]
    return outcome


# ---------------------------------------------------------------------- #
# Shared serving measurement
# ---------------------------------------------------------------------- #
def measure(name, build, close, serve, seconds, trace, gen_s) -> Outcome:
    """ROUNDS rounds of set-up and serving, then, with ``trace``, one
    traced closed loop of ``seconds`` on the last round's stack.

    ``build()`` sets up a stack (a DACE carrying its Tab II timings as
    ``ops``); ``serve(stack, seconds, windows, tracer)`` runs a closed
    loop on it.
    """
    stack, setups, parts, window = None, [], [], {}
    try:
        for _ in range(ROUNDS):
            if stack is not None:
                close(stack)
                stack = None
            quiet_gc()
            t0 = _now()
            stack = build()
            setups.append({"setup_s": _now() - t0, **stack.ops})
            quiet_gc()
            before = snapshot(stack.metrics)
            parts.append(serve(stack, seconds / ROUNDS, WINDOWS_PER_ROUND,
                               None))
            window = add(window, delta(snapshot(stack.metrics), before))
        loop = LoopResult.merge(parts)
        outcome = serve_outcome(name, loop, window, setups, gen_s)
        if trace:
            trace_serving(name, outcome, loop, stack, serve, seconds)
    finally:
        if stack is not None:
            close(stack)
    outcome.layers["failed_frac"] = ratio(outcome.failed, outcome.attempted)
    return outcome


def serve_outcome(name, loop: LoopResult, window, setups, gen_s) -> Outcome:
    phases = {"setup": setup_phase(setups), "timed": loop.counts()}
    summary = loop.summary()
    phases["timed"]["p90_ms"] = summary["request_p90_ms"]
    ops = operator_metrics(setups)
    metrics = {
        "setup_s": median_of([r["setup_s"] for r in setups]),
        "plans_per_s": summary["plans_per_s"],
        "request_p50_ms": summary["request_p50_ms"],
        "request_p90_ms": summary["request_p90_ms"],
        **{k: v for k, v in ops.items() if k != "answers_repeat"},
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = registry_layers(window, int(loop.plans.sum()))
    layers["engine.gen_s"] = gen_s
    layers["request_p99_ms"] = summary["request_p99_ms"]
    # Tab II work per CPU second: beside the wall-clock end-to-end figures,
    # these separate a slower program from a busier host.
    layers["trainer.plans_per_cpu_s"] = per_cpu_s(setups, "train")
    layers["trainer.lora_plans_per_cpu_s"] = per_cpu_s(setups, "lora")
    layers["infer.plans_per_cpu_s"] = per_cpu_s(setups, "infer")
    outcome = Outcome(metrics, layers, phases, {}, attempted=loop.sent,
                      failed=loop.failed)
    outcome.checks["operator_answers_repeat"] = ops["answers_repeat"]
    serving_checks(name, outcome, loop, window)
    return outcome


def trace_serving(name, outcome: Outcome, loop: LoopResult, stack, serve,
                  seconds: float) -> None:
    """A traced closed loop on ``stack``: per-layer metrics, the tracing
    overhead and the design check."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        quiet_gc()
        before = snapshot(stack.metrics)
        traced = serve(stack, seconds, ROUNDS * WINDOWS_PER_ROUND, tracer)
        window = delta(snapshot(stack.metrics), before)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    outcome.layers.update(registry_layers(window, int(traced.plans.sum())))
    outcome.layers.update(tracing.serving_layers(spans, tracer))
    outcome.layers["trace.overhead_frac"] = (
        1.0 - traced.plans_per_s / loop.plans_per_s)
    outcome.phases["traced"] = traced.counts()
    outcome.attempted += traced.sent
    outcome.failed += traced.failed
    serving_checks(name, outcome, traced, window, "traced ")
    table = tracing.self_time_table(spans, int(traced.plans.sum()))
    design_check(name, outcome, table, spans)
    outcome.trace = (spans, table)


def setup_phase(runs: Sequence[dict]) -> dict:
    return {"builds": len(runs),
            "setup_s": [round(r["setup_s"], 3) for r in runs],
            **{f"{key}_per_s": [round(r[key].work / r[key].wall)
                                for r in runs]
               for key in ("train", "lora", "infer")}}


def serving_checks(name: str, outcome: Outcome, loop: LoopResult,
                   window: Dict[str, float], prefix: str = "") -> None:
    """The properties each serving workload's reason claims."""
    layers, checks = outcome.layers, outcome.checks
    checks[prefix + "answers_match_reference"] = loop.failed == 0
    samples = loop.summary()["latency_samples"]
    checks[prefix + "p99_has_10_beyond"] = samples >= 1000
    if name == "select_cold":
        checks[prefix + "cache_hit_ratio_is_0"] = (
            layers["cache.hit_ratio"] == 0.0)
        checks[prefix + "fused_share_is_1"] = (
            layers["forward.fused_share"] == 1.0)
    else:
        # No fused forward at all: every miss ran the per-layer LoRA path
        # (a run shorter than the first re-registration prices no miss).
        checks[prefix + "fused_share_is_0"] = (
            window.get("serve.fused.forwards", 0) == 0)
        checks[prefix + "shed_frac_is_0"] = layers["fleet.shed_frac"] == 0.0
    outcome.notes.append(
        f"{prefix}{len(loop.latency_ns)} request latencies in "
        f"{len(loop.window_s)} windows; {samples} in the kept windows ({samples // 100} beyond "
        f"p99); "
        f"measured fused share {layers['forward.fused_share']:.3f}, "
        f"cache hit ratio {layers['cache.hit_ratio']:.4f}, "
        f"shed {layers['fleet.shed_frac']:.4f}")
    outcome.notes += [prefix + m for m in loop.mismatches[:5]]


def design_check(name: str, outcome: Outcome, table: Dict[str, dict],
                 spans) -> None:
    """The trace must show the layers each workload was built to stress."""
    def per_plan(names):
        return sum(table.get(n, {}).get("self_us_per_plan", 0.0)
                   for n in names)

    cold, hot = per_plan(tracing.COLD_WORK), per_plan(tracing.HOT_WORK)
    outcome.notes.append(
        f"traced self time per plan: encode+forward+service {cold:.1f} us, "
        f"catch+fingerprint+cache {hot:.1f} us")
    outcome.checks["trace_design_holds"] = (
        cold > hot if name == "select_cold" else hot > cold)
    outcome.checks["trace_client_nesting"] = spans.nesting_violations() == 0


def registry_layers(window: Dict[str, float], plans: int) -> Dict[str, float]:
    """Per-layer counts and ratios from the program's own registry."""
    # Prediction-cache hits per plan priced: the shard services of the
    # fleet run with their own prediction cache off, so counting their
    # misses as lookups would count every fleet miss twice.
    hits = window.get("serve.cache.hits", 0) + window.get("fleet.cache.hits", 0)
    enc_hits = window.get("serve.enc_cache.hits", 0)
    fused = window.get("serve.fused.forwards", 0)
    fallback = window.get("serve.fused.fallbacks", 0)
    fleet_requests = window.get("fleet.requests", 0)
    return {
        "cache.hit_ratio": ratio(hits, plans),
        "cache.enc_hit_ratio": ratio(
            enc_hits, enc_hits + window.get("serve.enc_cache.misses", 0)),
        "cache.evictions": window.get("serve.cache.evictions", 0)
        + window.get("fleet.cache.evictions", 0),
        "forward.fused_share": ratio(fused, fused + fallback),
        "pool.flush_size": ratio(window.get("serve.pool.flush_size.sum", 0),
                                 window.get("serve.pool.flush_size.count", 0)),
        "fleet.gateway_hit_ratio": ratio(window.get("fleet.cache.hits", 0),
                                         fleet_requests),
        "fleet.shed_frac": ratio(window.get("fleet.shed", 0), fleet_requests),
        "registry.swaps_per_100_plans": 100 * ratio(
            window.get("fleet.swaps", 0), plans),
        "resilience.degraded_frac": ratio(
            window.get("resilience.degraded", 0),
            window.get("resilience.predictions", 0)),
    }


# ---------------------------------------------------------------------- #
# Traced operator phase
# ---------------------------------------------------------------------- #
def trace_operator(outcome: Outcome, seed: int, corpus: "inputs.Corpus",
                   lora_set) -> None:
    """Pre-train and LoRA-fine-tune once more under the tracer.

    Fills the training layers' metrics and checks that every ``fit``
    step ran the fused training step and no LoRA step did.
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scratch = DACE(training=SERVE_TRAINING, seed=seed)
        quiet_gc()
        with tracer.span("phase.fit"):
            scratch.fit(corpus.train)
        with tracer.span("phase.lora"):
            scratch.fine_tune_lora(lora_set, epochs=LORA_EPOCHS)
    finally:
        tracer.uninstall()
    layers = tracing.training_layers(tracer.spans())
    outcome.layers.update(layers)
    outcome.checks["fit_fused_share_is_1"] = (
        layers["trainer.fused_share"] == 1.0)
    outcome.checks["lora_fused_share_is_0"] = (
        layers["trainer.lora_fused_share"] == 0.0)
    outcome.notes.append(
        f"traced training: fused share fit "
        f"{layers['trainer.fused_share']:.3f}, LoRA "
        f"{layers['trainer.lora_fused_share']:.3f}")


WORKLOADS = {
    "select_cold": select_cold,
    "tenant_hot": tenant_hot,
}
