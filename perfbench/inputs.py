"""Seeded benchmark inputs, made with the repository's simulated engine.

Generating inputs is the load generator's work: ``run.py`` times it as
``engine.gen_s`` and keeps it out of ``setup_s``.  Every function here is a
pure function of its arguments, so the same ``--seed`` gives the same
plans, labels and request sequences.

The databases are the zoo's cheapest to plan (about 2 ms per ``explain``
on one core), so a run can afford the thousands of distinct plans the cold
workload needs.  Serving always prices plans from databases the model was
not pre-trained on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.catalog.zoo import load_database
from repro.engine.machines import M1, M2
from repro.engine.plan import PlanNode
from repro.engine.session import EngineSession
from repro.featurize.catcher import catch_plan
from repro.sql.generator import QueryGenerator
from repro.workloads.dataset import PlanDataset, collect_workload
from repro.workloads.zeroshot import COMPLEX_SPEC

# Pre-training databases for the serving workloads.
SERVE_TRAIN_DBS = ("employee", "basketball", "seznam")
# Databases whose plans are priced (select_cold) or that are tenants
# (tenant_hot); never part of the serving model's pre-training set.
SERVE_DBS = ("airline", "movielens", "walmart", "consumer")

MAX_CANDIDATES = 8   # an optimizer prices 1..8 candidate plans per query
TRAIN_PER_DB = 160   # serving workloads: pre-training queries per database
HELD_PER_DB = 60     # serving workloads: held-out queries per database


def stream_seed(seed: int, *parts: str) -> int:
    return zlib.crc32("/".join((str(seed),) + parts).encode())


def _generator(db_name: str, seed: int, stream: str) -> QueryGenerator:
    return QueryGenerator(load_database(db_name), COMPLEX_SPEC,
                          seed=stream_seed(seed, db_name, stream))


def labelled(db_names: Sequence[str], per_db: int, seed: int,
             stream: str, machine=M1) -> PlanDataset:
    """Executed (labelled) plans, ``per_db`` queries from each database."""
    parts = []
    for name in db_names:
        queries = _generator(name, seed, stream).generate_many(per_db)
        parts.append(collect_workload(load_database(name), queries,
                                      machine=machine, seed=seed))
    return PlanDataset.merge(parts)


def labelled_pairs(db_names: Sequence[str], per_db: int, seed: int,
                   stream: str) -> Tuple[PlanDataset, Dict[str, PlanDataset]]:
    """The same statements labelled on M1 (merged over ``db_names``) and on
    M2 (per database): workload 1 and the across-more workload 2."""
    on_m1, on_m2 = [], {}
    for name in db_names:
        queries = _generator(name, seed, stream).generate_many(per_db)
        database = load_database(name)
        on_m1.append(collect_workload(database, queries, machine=M1,
                                      seed=seed))
        on_m2[name] = collect_workload(database, queries, machine=M2,
                                       seed=seed + 1)
    return PlanDataset.merge(on_m1), on_m2


@dataclass
class Corpus:
    """The operator's data for the serving workloads."""

    train: PlanDataset                 # labelled on M1, SERVE_TRAIN_DBS
    held_m1: PlanDataset               # SERVE_DBS on M1: zero-shot q-error
    held_m2: Dict[str, PlanDataset]    # the same statements on M2, per db


def serving_corpus(seed: int) -> Corpus:
    held_m1, held_m2 = labelled_pairs(SERVE_DBS, HELD_PER_DB, seed,
                                      "heldout")
    return Corpus(labelled(SERVE_TRAIN_DBS, TRAIN_PER_DB, seed, "pretrain"),
                  held_m1, held_m2)


def distinct_plans(db_name: str, count: int, seed: int,
                   stream: str, exclude: set) -> List[PlanNode]:
    """``count`` explain plans from one database whose fingerprints are
    new to ``exclude``; ``exclude`` is updated in place."""
    session = EngineSession(load_database(db_name), M1, seed=seed)
    generator = _generator(db_name, seed, stream)
    plans: List[PlanNode] = []
    attempts = 0
    while len(plans) < count:
        attempts += 1
        if attempts > 20 * count + 100:
            raise RuntimeError(
                f"{db_name}: could not draw {count} distinct plans")
        plan = session.explain(generator.generate())
        key = catch_plan(plan).fingerprint()
        if key not in exclude:
            exclude.add(key)
            plans.append(plan)
    return plans


def candidate_count(index: int) -> int:
    """Candidates of the ``index``-th query: 1..MAX_CANDIDATES in a fixed
    mixed order (1, 4, 7, 2, 5, 8, 3, 6, ...).  The seed picks the plans,
    not the request sizes, so every seed prices the same size mix."""
    return 1 + (3 * index) % MAX_CANDIDATES


def candidate_groups(total: int) -> List[int]:
    """Request sizes in ``candidate_count`` order summing to ``total``."""
    sizes, left = [], total
    while left > 0:
        sizes.append(min(left, candidate_count(len(sizes))))
        left -= sizes[-1]
    return sizes


def cold_requests(seed: int, plan_count: int
                  ) -> Tuple[List[PlanNode], List[List[int]]]:
    """select_cold: fingerprint-unique plans split into requests.

    Returns the plans and, in cycle order, each request's plan indices.
    Plans are interleaved across databases so every request mixes
    workloads the way a shared optimizer service would see them.
    """
    seen: set = set()
    per_db = -(-plan_count // len(SERVE_DBS))
    by_db = [distinct_plans(name, per_db, seed, "cold", seen)
             for name in SERVE_DBS]
    plans = [by_db[i % len(by_db)][i // len(by_db)]
             for i in range(per_db * len(by_db))][:plan_count]
    requests, start = [], 0
    for size in candidate_groups(len(plans)):
        requests.append(list(range(start, start + size)))
        start += size
    return plans, requests


def tenant_working_sets(seed: int, groups_per_tenant: int
                        ) -> Dict[str, List[List[PlanNode]]]:
    """tenant_hot: per tenant, recurring queries of 1..8 candidate plans."""
    seen: set = set()
    working: Dict[str, List[List[PlanNode]]] = {}
    sizes = [candidate_count(g) for g in range(groups_per_tenant)]
    for name in SERVE_DBS:
        plans = distinct_plans(name, sum(sizes), seed, "hot", seen)
        groups, start = [], 0
        for size in sizes:
            groups.append(plans[start:start + size])
            start += size
        working[name] = groups
    return working


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """P(rank k) proportional to 1/(k+1)^skew, for k in [0, n)."""
    weights = 1.0 / np.arange(1, n + 1) ** skew
    return weights / weights.sum()


def zipf_draws(rng: np.random.Generator, count: int, n: int,
               skew: float) -> np.ndarray:
    """``count`` ranks in [0, n) drawn from ``zipf_weights``."""
    return rng.choice(n, size=count, p=zipf_weights(n, skew))


def zipf_block(rng: np.random.Generator, count: int, n: int,
               skew: float) -> np.ndarray:
    """``count`` ranks in [0, n), each as often as ``zipf_weights`` says
    (largest remainders round), in a random order."""
    exact = zipf_weights(n, skew) * count
    counts = np.floor(exact).astype(int)
    short = count - counts.sum()
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
    return rng.permutation(np.repeat(np.arange(n), counts))
