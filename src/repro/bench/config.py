"""Scale presets for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.catalog.zoo import ZOO_DATABASE_NAMES


@dataclass(frozen=True)
class BenchScale:
    """Every knob that trades fidelity for runtime.

    The paper's full scale (``PAPER``) uses 10,000 queries per database over
    all 20 databases and a 100,000-query IMDB training workload; ``DEFAULT``
    shrinks the workloads but keeps every protocol identical.
    """

    name: str
    # Workloads 1/2 (Zero-Shot benchmark)
    databases: Tuple[str, ...]
    queries_per_db: int
    # Workload 3 (MSCN benchmark)
    w3_train: int
    w3_synthetic: int
    w3_scale: int
    w3_job_light: int
    # Drift (Fig 7)
    drift_queries: int
    drift_factors: Tuple[float, ...]
    # Training budgets
    dace_epochs: int
    lora_epochs: int
    baseline_epochs: int
    queryformer_epochs: int
    queryformer_layers: int
    # Fig 8 / Fig 12 sweep
    training_db_counts: Tuple[int, ...]
    # Fig 9 sweep
    cold_start_counts: Tuple[int, ...]
    seed: int = 0
    # Primary label-collection machine ("M1" or "M2").  Workloads 1 and 3
    # are collected on this profile; workload 2 (across-more) always uses
    # the *other* machine, so sweeping ``machine`` as a matrix axis flips
    # the paper's hardware pairing end to end.
    machine: str = "M1"


SMOKE = BenchScale(
    name="smoke",
    databases=("airline", "credit", "walmart", "movielens", "imdb", "tpc_h"),
    queries_per_db=60,
    w3_train=150,
    w3_synthetic=50,
    w3_scale=50,
    w3_job_light=20,
    drift_queries=40,
    drift_factors=(1.0, 4.0),
    dace_epochs=10,
    lora_epochs=8,
    baseline_epochs=6,
    queryformer_epochs=4,
    queryformer_layers=2,
    training_db_counts=(1, 3, 5),
    cold_start_counts=(25, 100),
)

DEFAULT = BenchScale(
    name="default",
    databases=(
        "imdb", "tpc_h", "airline", "accidents", "baseball", "basketball",
        "credit", "employee", "financial", "genome", "movielens", "walmart",
    ),
    queries_per_db=200,
    w3_train=1500,
    w3_synthetic=300,
    w3_scale=200,
    w3_job_light=70,
    drift_queries=200,
    drift_factors=(1.0, 2.0, 5.0, 10.0),
    dace_epochs=30,
    lora_epochs=20,
    baseline_epochs=20,
    queryformer_epochs=10,
    queryformer_layers=4,
    training_db_counts=(1, 3, 5, 8, 11),
    cold_start_counts=(100, 400, 1000),
)

PAPER = BenchScale(
    name="paper",
    databases=tuple(ZOO_DATABASE_NAMES),
    queries_per_db=10_000,
    w3_train=100_000,
    w3_synthetic=5_000,
    w3_scale=500,
    w3_job_light=70,
    drift_queries=10_000,
    drift_factors=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
    dace_epochs=100,
    lora_epochs=50,
    baseline_epochs=100,
    queryformer_epochs=100,
    queryformer_layers=8,
    training_db_counts=(1, 3, 5, 10, 15, 19),
    cold_start_counts=(100, 1_000, 10_000, 100_000),
)

#: The one name→preset mapping; the CLI and the experiment matrix both
#: resolve scale names through here.
SCALES = {"smoke": SMOKE, "default": DEFAULT, "paper": PAPER}


def resolve_scale(name: str) -> BenchScale:
    """Resolve a scale name (case-insensitive) to its preset.

    Raises ``ValueError`` naming the valid scales on a miss, so every
    entry point reports the same actionable error.
    """
    key = str(name).strip().lower()
    try:
        return SCALES[key]
    except KeyError:
        raise ValueError(
            f"unknown bench scale {name!r}; valid scales: "
            f"{', '.join(sorted(SCALES))}"
        ) from None


def remeasure_below(run: Callable[[], dict], key: str, bound: float) -> dict:
    """``run()``, and once more if ``result[key]`` is under ``bound``.

    Wall-clock on a shared box can land one bad measurement session, so
    a timing gate re-measures once before declaring its contract broken
    and keeps the better of the two results.
    """
    result = run()
    if result[key] < bound:
        retry = run()
        if retry[key] > result[key]:
            result = retry
    return result
