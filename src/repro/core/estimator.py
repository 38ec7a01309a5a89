"""DACE: the high-level pre-trained cost estimator API.

Usage::

    dace = DACE()
    dace.fit(train_datasets)             # pre-train on many databases
    preds = dace.predict(test_dataset)   # zero-shot on an unseen database
    dace.fine_tune_lora(new_machine_ds)  # adapt to across-more cheaply
    embedding = dace.embed_plan(plan)    # pre-trained-encoder context
    dace.save(path); DACE.load(path)
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.model import DACEConfig, DACEModel
from repro.core.trainer import Trainer, TrainingConfig
from repro.engine.plan import PlanNode
from repro.featurize.encoder import PlanEncoder
from repro.featurize.loss_weights import DEFAULT_ALPHA
from repro.obs import MetricsRegistry
from repro.serve.concurrent import ConcurrentEstimatorService
from repro.serve.fleet import FleetGateway
from repro.serve.resilience import CostFallback, ResilientEstimator
from repro.serve.service import EstimatorService
from repro.workloads.dataset import PlanDataset

# Training options that no longer exist (the quantile objective, learning
# rate schedules, gradient clipping, weight decay), with the value every
# model trained without them saved.
_RETIRED_TRAINING = {
    "objective": "qerror",
    "quantile_tau": 0.5,
    "lr_schedule": "constant",
    "grad_clip": 0.0,
    "weight_decay": 0.0,
}

# Retired options that never changed a weight (the on-disk encoding
# cache served byte-exact arrays), dropped at any saved value.
_RETIRED_INERT = ("encode_cache", "encode_cache_dir")


def _saved_training(saved: dict) -> TrainingConfig:
    """A saved ``meta.json`` training block as a :class:`TrainingConfig`.

    A retired option at its old default is dropped; any other value
    means the model was trained for something else (a quantile model is
    not a q-error DACE), so loading refuses it.  Options that never
    changed the weights are dropped whatever their value.
    """
    fields = dict(saved)
    for key in _RETIRED_INERT:
        fields.pop(key, None)
    for key, default in _RETIRED_TRAINING.items():
        if key in fields and fields.pop(key) != default:
            raise ValueError(
                f"saved model was trained with retired option "
                f"{key}={saved[key]!r}; only {key}={default!r} loads"
            )
    return TrainingConfig(**fields)


class DACE:
    """Database-agnostic cost estimator (pre-trained estimator + encoder).

    All prediction and embedding calls route through ``self.service``, an
    :class:`~repro.serve.service.EstimatorService` — batched, cached,
    graph-free inference.  Anything that changes the weights (``fit``,
    ``fine_tune_lora``, loading) invalidates the service cache.
    """

    def __init__(
        self,
        config: Optional[DACEConfig] = None,
        training: Optional[TrainingConfig] = None,
        alpha: float = DEFAULT_ALPHA,
        card_source: str = "estimated",
        seed: int = 0,
        resilient: bool = False,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> None:
        # Defaults are constructed per instance: a def-time default would
        # be one shared (mutable) config across every DACE ever built.
        self.config = config if config is not None else DACEConfig()
        training = training if training is not None else TrainingConfig()
        self.training = replace(training, seed=seed)
        self.alpha = alpha
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.model = DACEModel(self.config, rng=rng)
        self.encoder = PlanEncoder(alpha=alpha, card_source=card_source)
        # One registry for the whole estimator: training epochs, serving
        # stage timings, and cache counters land in a single report.
        self.metrics = MetricsRegistry()
        self.trainer = Trainer(
            self.model, self.encoder, self.training, metrics=self.metrics
        )
        self.service = EstimatorService(
            self.model, self.encoder, batch_size=self.training.batch_size,
            metrics=self.metrics,
        )
        # With workers=N, predict* traffic funnels through a thread-pool
        # front-end that coalesces concurrent single-plan calls into
        # batched forwards (byte-identical to the serial path thanks to
        # the service's deterministic padding buckets).
        if workers is not None and shards is not None:
            raise ValueError(
                "workers and shards are exclusive: a fleet shard serves "
                "its misses on its own drain thread and has no worker pool"
            )
        self.workers = workers
        self.shards = shards
        # With shards=N, traffic instead goes through a FleetGateway:
        # N shard stacks (model replica + registry + drain thread) behind
        # consistent-hash routing with per-tenant LoRA resolution and
        # admission control.  resilient then applies *per shard*.
        self.fleet = (
            FleetGateway(
                self.model,
                self.encoder,
                shards=shards,
                batch_size=self.training.batch_size,
                metrics=self.metrics,
                resilient=resilient,
            )
            if shards is not None else None
        )
        self.pool = (
            ConcurrentEstimatorService(self.service, workers=workers)
            if workers is not None else None
        )
        # With resilient=True every predict* call goes through the fault
        # boundary: a failed or non-finite prediction is answered by the
        # optimizer-cost fallback instead of reaching the caller.
        self._resilient = resilient
        if self.fleet is not None:
            self.estimator = self.fleet
        else:
            base = self.pool if self.pool is not None else self.service
            self.estimator = self.resilient() if resilient else base

    # ------------------------------------------------------------------ #
    # Pre-training & inference
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge(datasets: Union[PlanDataset, Iterable[PlanDataset]]) -> PlanDataset:
        if isinstance(datasets, PlanDataset):
            return datasets
        return PlanDataset.merge(datasets)

    def fit(self, datasets: Union[PlanDataset, Iterable[PlanDataset]]) -> "DACE":
        """Pre-train on one or many databases' labelled workloads."""
        self.model.disable_lora()
        self.trainer.fit(self._merge(datasets))
        self.service.invalidate()
        if self.fleet is not None:
            self.fleet.sync(self.model)
        return self

    def predict(self, dataset: PlanDataset) -> np.ndarray:
        """Predicted latency (ms) per plan; no database knowledge needed."""
        return self.estimator.predict(dataset)

    def predict_plan(self, plan: PlanNode) -> float:
        """Predicted latency (ms) for a single plan."""
        return self.estimator.predict_plan(plan)

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted latency (ms) per plan, batched."""
        return self.estimator.predict_plans(plans)

    def predict_subplans(self, plan: PlanNode) -> np.ndarray:
        """Predicted latency (ms) for every sub-plan, in DFS order."""
        return self.service.predict_subplans(plan)

    def resilient(self) -> ResilientEstimator:
        """A fault-tolerant view of this estimator's serving path.

        The fallback tier reuses the encoder's fitted robust scaler so a
        degraded answer (the optimizer's own cost estimate) lands in the
        same log-latency space the model predicts in; metrics land on
        ``self.metrics``.
        """
        base = self.pool if self.pool is not None else self.service
        return ResilientEstimator(
            base,
            fallback=CostFallback(self.encoder.scaler),
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------ #
    # Multi-tenant fleet (shards=N)
    # ------------------------------------------------------------------ #
    def register_tenant(self, tag: str, adapter_state=None) -> "DACE":
        """Install a tenant's LoRA adapter set on every fleet shard.

        ``adapter_state`` maps adapter parameter names to arrays (the
        shape :meth:`ModelRegistry.adapter_state` returns); ``None``
        snapshots the adapters currently on ``self.model`` — the natural
        call right after :meth:`fine_tune_lora` for that tenant's
        workload.  Requires ``shards=N``.
        """
        if self.fleet is None:
            raise RuntimeError("register_tenant requires DACE(shards=N)")
        if adapter_state is None:
            adapter_state = {
                name: parameter.data.copy()
                for name, parameter in self.model.named_parameters()
                if ".lora_" in name
            }
        self.fleet.register_tenant(tag, adapter_state)
        return self

    def evict_tenant(self, tag: str) -> "DACE":
        """Drop a tenant's adapters and cached predictions fleet-wide."""
        if self.fleet is None:
            raise RuntimeError("evict_tenant requires DACE(shards=N)")
        self.fleet.evict_tenant(tag)
        return self

    # ------------------------------------------------------------------ #
    # LoRA fine-tuning (across-more, paper Sec. IV-D)
    # ------------------------------------------------------------------ #
    def fine_tune_lora(
        self,
        datasets: Union[PlanDataset, Iterable[PlanDataset]],
        epochs: Optional[int] = None,
        lr: Optional[float] = None,
    ) -> "DACE":
        """Adapt with LoRA: base weights frozen, only adapters train."""
        self.model.enable_lora()
        tuning = replace(
            self.training,
            epochs=epochs if epochs is not None else self.training.epochs,
            lr=lr if lr is not None else self.training.lr,
        )
        tuner = Trainer(self.model, self.encoder, tuning,
                        metrics=self.metrics)
        tuner.fit(self._merge(datasets))
        # Keep the adaptation visible in the estimator's training history
        # rather than discarding the throwaway trainer's record.
        self.trainer.history.extend(
            {**epoch, "phase": "fine_tune_lora"} for epoch in tuner.history
        )
        self.service.invalidate()
        if self.fleet is not None:
            self.fleet.sync(self.model)
        return self

    # ------------------------------------------------------------------ #
    # Pre-trained encoder (paper eq. 9)
    # ------------------------------------------------------------------ #
    def embed_plan(self, plan: PlanNode) -> np.ndarray:
        """64-dim context vector ``w_E`` for one plan."""
        return self.service.embed_plan(plan)

    def embed_dataset(self, dataset: PlanDataset) -> np.ndarray:
        """Context vectors for every plan: shape (len(dataset), 64)."""
        if len(dataset) == 0:
            return np.empty((0, self.config.hidden2))
        return self.service.embed_dataset(dataset)

    @property
    def embedding_dim(self) -> int:
        return self.config.hidden2

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str) -> None:
        """Save weights + scaler + config under ``path`` (a directory)."""
        os.makedirs(path, exist_ok=True)
        np.savez(os.path.join(path, "weights.npz"), **self.model.state_dict())
        scaler = self.encoder.state()
        np.savez(
            os.path.join(path, "scaler.npz"),
            center=scaler["center"],
            scale=scaler["scale"],
        )
        meta = {
            "config": asdict(self.config),
            "training": asdict(self.training),
            "alpha": self.alpha,
            "card_source": self.encoder.card_source,
            "seed": self.seed,
            "lora_enabled": self.model.lora_enabled,
            "resilient": self._resilient,
            "workers": self.workers,
            "shards": self.shards,
        }
        with open(os.path.join(path, "meta.json"), "w") as handle:
            json.dump(meta, handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "DACE":
        with open(os.path.join(path, "meta.json")) as handle:
            meta = json.load(handle)
        config_dict = dict(meta["config"])
        config_dict["lora_ranks"] = tuple(config_dict["lora_ranks"])
        config = DACEConfig(**config_dict)
        # Restore the training config too: the serving batch size derives
        # from it, and a different batch size changes inference chunking
        # (and therefore bit-level numerics) between save and load.
        training = (
            _saved_training(meta["training"]) if "training" in meta else None
        )
        dace = cls(
            config=config,
            training=training,
            alpha=meta["alpha"],
            card_source=meta.get("card_source", "estimated"),
            seed=meta["seed"],
            resilient=meta.get("resilient", False),
            workers=meta.get("workers"),
            shards=meta.get("shards"),
        )
        with np.load(os.path.join(path, "weights.npz")) as archive:
            state = {name: archive[name] for name in archive.files}
        dace.model.load_state_dict(state)
        with np.load(os.path.join(path, "scaler.npz")) as archive:
            dace.encoder.load_state({
                "alpha": meta["alpha"],
                "card_source": meta.get("card_source", "estimated"),
                "center": archive["center"],
                "scale": archive["scale"],
            })
        if meta.get("lora_enabled"):
            dace.model.enable_lora()
        if dace.fleet is not None:
            # Shard replicas were copied from the freshly-initialized
            # model in the constructor; re-seed them from the loaded one.
            dace.fleet.sync(dace.model)
        return dace

    # ------------------------------------------------------------------ #
    def num_parameters(self, include_lora: bool = False) -> int:
        total = self.model.num_parameters()
        if include_lora:
            return total
        return total - self.model.lora_num_parameters()

    def size_mb(self, include_lora: bool = False) -> float:
        """Model size in MB at float32, the unit of the paper's Tab II.

        By default counts the base model only (the paper's "DACE" row);
        ``include_lora=True`` adds the adapters (the "DACE-LoRA" row).
        """
        return 4 * self.num_parameters(include_lora) / 1e6

