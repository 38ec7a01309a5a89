"""Process-level caches for workloads and pre-trained models.

Several experiments share the same leave-one-out pre-training runs and the
same labelled workloads; building them once keeps a full benchmark pass
fast without changing any experiment's semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.config import BenchScale
from repro.baselines.zeroshot import ZeroShotModel
from repro.core import DACE, TrainingConfig
from repro.engine.machines import MachineProfile, other_machine, \
    resolve_machine
from repro.workloads import (
    PlanDataset,
    Workload3,
    build_workload3,
    workload1,
    workload2,
)

_WORKLOAD1: Dict[Tuple, Dict[str, PlanDataset]] = {}
_WORKLOAD2: Dict[Tuple, Dict[str, PlanDataset]] = {}
_WORKLOAD3: Dict[Tuple, Workload3] = {}
_DACE: Dict[Tuple, DACE] = {}
_ZEROSHOT: Dict[Tuple, ZeroShotModel] = {}


def clear_caches() -> None:
    for cache in (_WORKLOAD1, _WORKLOAD2, _WORKLOAD3, _DACE, _ZEROSHOT):
        cache.clear()


def primary_machine(scale: BenchScale) -> MachineProfile:
    """The scale's label-collection machine (the ``machine`` axis)."""
    return resolve_machine(getattr(scale, "machine", "M1"))


def _w1_key(scale: BenchScale) -> Tuple:
    return (scale.databases, scale.queries_per_db, scale.seed,
            primary_machine(scale).name)


def get_workload1(scale: BenchScale) -> Dict[str, PlanDataset]:
    key = _w1_key(scale)
    if key not in _WORKLOAD1:
        _WORKLOAD1[key] = workload1(
            queries_per_db=scale.queries_per_db,
            database_names=list(scale.databases),
            seed=scale.seed,
            machine=primary_machine(scale),
        )
    return _WORKLOAD1[key]


def get_workload2(scale: BenchScale) -> Dict[str, PlanDataset]:
    key = _w1_key(scale)
    if key not in _WORKLOAD2:
        _WORKLOAD2[key] = workload2(
            queries_per_db=scale.queries_per_db,
            database_names=list(scale.databases),
            seed=scale.seed,
            machine=other_machine(primary_machine(scale)),
        )
    return _WORKLOAD2[key]


def get_workload3(scale: BenchScale) -> Workload3:
    key = (scale.w3_train, scale.w3_synthetic, scale.w3_scale,
           scale.w3_job_light, scale.seed, primary_machine(scale).name)
    if key not in _WORKLOAD3:
        _WORKLOAD3[key] = build_workload3(
            train_queries=scale.w3_train,
            synthetic_queries=scale.w3_synthetic,
            scale_queries=scale.w3_scale,
            job_light_queries=scale.w3_job_light,
            seed=scale.seed,
            machine=primary_machine(scale),
        )
    return _WORKLOAD3[key]


def training_sets(
    scale: BenchScale, exclude: str, limit: Optional[int] = None
) -> List[PlanDataset]:
    """Workload-1 datasets of every database except ``exclude``."""
    w1 = get_workload1(scale)
    names = [n for n in scale.databases if n != exclude]
    if limit is not None:
        names = names[:limit]
    return [w1[name] for name in names]


def _dace_training(scale: BenchScale) -> TrainingConfig:
    return TrainingConfig(
        epochs=scale.dace_epochs, batch_size=64, lr=1e-3,
        patience=max(scale.dace_epochs // 4, 3), seed=scale.seed,
    )


def pretrain_dace(
    scale: BenchScale,
    exclude: str,
    num_training_dbs: Optional[int] = None,
    card_source: str = "estimated",
    alpha: Optional[float] = None,
    use_tree_attention: bool = True,
) -> DACE:
    """Leave-one-out pre-trained DACE (cached per configuration)."""
    from repro.core.model import DACEConfig
    from repro.featurize.loss_weights import DEFAULT_ALPHA

    alpha = DEFAULT_ALPHA if alpha is None else alpha
    key = ("dace", _w1_key(scale), exclude, num_training_dbs, card_source,
           alpha, use_tree_attention, scale.dace_epochs)
    if key not in _DACE:
        dace = DACE(
            config=DACEConfig(use_tree_attention=use_tree_attention),
            training=_dace_training(scale),
            alpha=alpha,
            card_source=card_source,
            seed=scale.seed,
        )
        dace.fit(training_sets(scale, exclude, num_training_dbs))
        _DACE[key] = dace
    return _DACE[key]


def pretrain_zeroshot(
    scale: BenchScale,
    exclude: str,
    num_training_dbs: Optional[int] = None,
) -> ZeroShotModel:
    """Leave-one-out pre-trained Zero-Shot (cached)."""
    key = ("zs", _w1_key(scale), exclude, num_training_dbs,
           scale.baseline_epochs)
    if key not in _ZEROSHOT:
        model = ZeroShotModel(epochs=scale.baseline_epochs, seed=scale.seed)
        model.fit(PlanDataset.merge(
            training_sets(scale, exclude, num_training_dbs)
        ))
        _ZEROSHOT[key] = model
    return _ZEROSHOT[key]
