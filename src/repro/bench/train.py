"""Training-pipeline throughput: encode-once vs re-encode-every-epoch.

The contract pinned here has two halves:

- **throughput** — the pre-encoded pipeline (one-time dataset encoding,
  size-bucketed padded batches reused across epochs, the fused
  graph-free training step, in-place Adam) must deliver at least 3x the
  epochs/second of the seed's training loop, which re-encoded every plan
  of every batch of every epoch (validation split included) and ran the
  autograd graph for every step;
- **bit-identity** — the speedup must be free: same seed, same loss
  trajectory, same final ``state_dict``, compared field by field against
  a faithful replica of the seed loop run on an identically-initialized
  model.

A LoRA control rides along: the pipelined model is LoRA-fine-tuned twice
from the same weights, once through the autograd graph and once through
the graph-free :class:`~repro.core.fused.FusedLoRAStep`; the record
carries the speedup and the bit-identity of losses and final weights.

The baseline replica below *is* the pre-change path: per-epoch size
bucketing, per-plan ``encode_plan`` calls (the seed ``encode_batch``
interior), per-epoch validation re-encoding, graph forward/backward,
the seed's out-of-place Adam, identical RNG consumption, identical
early stopping.

The workload is MSCN-style: predicate-heavy single-join queries with
IN-list filters over the airline database, encoded with the
workload-dependent extra features.  That is the regime the paper's
training sweeps live in — many epochs over modest per-split datasets
where per-epoch featurization rivals the optimization arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.bench.config import DEFAULT, BenchScale, remeasure_below
from repro.bench.timing import seconds
from repro.experiments.registry import cell
from repro.catalog.zoo import load_database
from repro.core.model import DACEConfig, DACEModel
from repro.core.trainer import Trainer, TrainingConfig, catch_dataset
from repro.featurize.encoder import PlanEncoder
from repro.metrics.tables import format_table
from repro.nn import no_grad
from repro.nn.losses import log_qerror_loss
from repro.sql.generator import QueryGenerator, WorkloadSpec
from repro.workloads.dataset import PlanDataset, collect_workload

_BATCH_SIZE = 64

#: The pre-encoded pipeline must reach this multiple of the seed loop's
#: epochs/second, from the default scale up: the smoke workload pads too
#: coarsely for the per-epoch cost ratio to be representative.
MIN_SPEEDUP = 3.0

_WORKLOAD: Dict[Tuple, PlanDataset] = {}


def _training_workload(scale: BenchScale) -> PlanDataset:
    """A synthetic MSCN-style workload: shallow plans, heavy predicates."""
    key = (scale.queries_per_db, scale.seed)
    if key not in _WORKLOAD:
        database = load_database("airline")
        spec = WorkloadSpec(
            max_joins=1, max_predicates=16, min_predicates=12,
            in_fraction=0.9, max_in_values=30,
        )
        queries = QueryGenerator(
            database, spec, seed=scale.seed
        ).generate_many(3 * scale.queries_per_db)
        _WORKLOAD[key] = collect_workload(
            database, queries, seed=scale.seed
        )
    return _WORKLOAD[key]


def _config(scale: BenchScale) -> TrainingConfig:
    epochs = max(scale.dace_epochs, 40)
    return TrainingConfig(
        epochs=epochs, batch_size=_BATCH_SIZE, validation_fraction=0.1,
        patience=epochs, seed=scale.seed,
    )


class _SeedAdam:
    """The seed commit's Adam, replicated byte for byte: out-of-place
    moment updates and a freshly allocated update array per parameter
    per step.  (The current :class:`repro.nn.optim.Adam` folds the same
    arithmetic in place — bit-identical values, fewer allocations —
    which is exactly what the bit-identity audit below certifies.)"""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            parameter.data = parameter.data - self.lr * update


def legacy_fit(
    model: DACEModel,
    encoder: PlanEncoder,
    config: TrainingConfig,
    train: PlanDataset,
) -> List[dict]:
    """The seed commit's ``Trainer.fit``, replicated operation for
    operation: every epoch re-encodes every batch through per-plan
    ``encode_plan`` calls, the validation split is re-encoded per epoch
    too, every step runs the autograd graph, and the optimizer is the
    seed's out-of-place Adam.  Returns the training history."""
    rng = np.random.default_rng(config.seed)
    plans = catch_dataset(train)
    if not encoder.is_fit:
        encoder.fit(plans)
    n_val = int(len(plans) * config.validation_fraction)
    if n_val >= 4:
        perm = rng.permutation(len(plans))
        val_plans = [plans[i] for i in perm[:n_val]]
        train_plans = [plans[i] for i in perm[n_val:]]
    else:
        val_plans, train_plans = [], list(plans)
    parameters = list(model.trainable_parameters())
    optimizer = _SeedAdam(parameters, lr=config.lr)

    def encode(chunk):
        # The seed encode_batch interior: one encode_plan call per plan.
        return encoder.encode_batch(
            chunk, node_features=[encoder.encode_plan(p) for p in chunk]
        )

    def epoch_loss(eval_plans):
        total, count = 0.0, 0
        with no_grad():
            for start in range(0, len(eval_plans), config.batch_size):
                chunk = eval_plans[start:start + config.batch_size]
                batch = encode(chunk)
                pred = model(batch)
                loss = log_qerror_loss(
                    pred, batch.labels_log, batch.loss_weights
                )
                total += loss.item() * len(chunk)
                count += len(chunk)
        return total / count

    history: List[dict] = []
    best_val, best_state, stale = float("inf"), None, 0
    for epoch in range(config.epochs):
        epoch_sum, seen = 0.0, 0
        order = sorted(range(len(train_plans)),
                       key=lambda i: train_plans[i].num_nodes)
        batches = [
            [train_plans[i] for i in order[s:s + config.batch_size]]
            for s in range(0, len(order), config.batch_size)
        ]
        rng.shuffle(batches)
        for chunk in batches:
            batch = encode(chunk)
            optimizer.zero_grad()
            pred = model(batch)
            loss = log_qerror_loss(pred, batch.labels_log,
                                   batch.loss_weights)
            loss.backward()
            optimizer.step()
            epoch_sum += loss.item() * len(chunk)
            seen += len(chunk)
        val_loss = epoch_loss(val_plans) if val_plans else float("nan")
        history.append({
            "epoch": epoch,
            "train_loss": epoch_sum / max(seen, 1),
            "val_loss": val_loss,
        })
        if val_plans:
            if val_loss < best_val - 1e-5:
                best_val, best_state, stale = val_loss, model.state_dict(), 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    if best_state is not None:
        model.load_state_dict(best_state)
    return history


def _losses(history: List[dict]) -> List[Tuple[float, float]]:
    return [(h["train_loss"], h["val_loss"]) for h in history]


def _same_losses(a: List[dict], b: List[dict]) -> bool:
    return len(a) == len(b) and all(
        x[0] == y[0] and (x[1] == y[1] or (np.isnan(x[1]) and np.isnan(y[1])))
        for x, y in zip(_losses(a), _losses(b))
    )


def _same_state(a: DACEModel, b: DACEModel) -> bool:
    state_a, state_b = a.state_dict(), b.state_dict()
    return set(state_a) == set(state_b) and all(
        np.array_equal(state_a[name], state_b[name]) for name in state_a
    )


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


class _GraphLoRAModel(DACEModel):
    """``DACEModel`` unchanged, but not the exact type the fused steps
    accept, so LoRA fine-tuning runs the autograd graph: the control."""


def lora_control(
    pretrained: DACEModel,
    encoder: PlanEncoder,
    config: TrainingConfig,
    train: PlanDataset,
) -> dict:
    """Autograd LoRA against graph-free LoRA from the same pre-trained
    weights and seed: epochs/second of each and the bit-identity audit
    of loss history and final weights (adapters included)."""
    runs = {}
    for name, cls in (("graph", _GraphLoRAModel), ("fused", DACEModel)):
        model = cls(pretrained.config)
        model.load_state_dict(pretrained.state_dict())
        model.enable_lora()
        trainer = Trainer(model, encoder, config)
        elapsed, _ = seconds(lambda: trainer.fit(train))
        runs[name] = (model, trainer.history, elapsed)
    graph, graph_history, graph_s = runs["graph"]
    fused, fused_history, fused_s = runs["fused"]
    graph_eps = len(graph_history) / graph_s
    fused_eps = len(fused_history) / fused_s
    return {
        "lora_epochs": len(fused_history),
        "lora_graph_seconds": graph_s,
        "lora_fused_seconds": fused_s,
        "lora_graph_epochs_per_s": graph_eps,
        "lora_fused_epochs_per_s": fused_eps,
        "lora_speedup": fused_eps / graph_eps,
        "lora_bit_identical": (_same_losses(graph_history, fused_history)
                               and _same_state(graph, fused)),
    }


# The speedup must be free (same losses, same final weights, exactly),
# and the graph-free LoRA step must reproduce autograd LoRA exactly.
@cell("train", checks={
    "identical_losses": lambda r, c: r["identical_losses"],
    "identical_weights": lambda r, c: r["identical_weights"],
    "speedup": lambda r, c: not r["gated"] or r["speedup"] >= MIN_SPEEDUP,
    "lora_bit_identical": lambda r, c: r["lora_bit_identical"],
})
def train_throughput(scale: BenchScale = DEFAULT) -> dict:
    """Epochs/second of both training paths, plus the bit-identity audit.

    Where the speedup gate is armed, a run under it is re-measured once.
    """
    gated = scale.queries_per_db >= DEFAULT.queries_per_db
    run = lambda: _train_throughput_once(scale)
    result = remeasure_below(run, "speedup", MIN_SPEEDUP) if gated else run()
    return dict(result, min_speedup=MIN_SPEEDUP, gated=gated)


def _train_throughput_once(scale: BenchScale) -> dict:
    """One measurement of both training paths."""
    train = _training_workload(scale)
    config = _config(scale)

    encoder_base = PlanEncoder(extra_features=True)
    model_base = DACEModel(
        DACEConfig(input_dim=encoder_base.dim),
        rng=np.random.default_rng(scale.seed),
    )
    base_seconds, base_history = seconds(
        lambda: legacy_fit(model_base, encoder_base, config, train)
    )

    encoder_pipe = PlanEncoder(extra_features=True)
    model_pipe = DACEModel(
        DACEConfig(input_dim=encoder_pipe.dim),
        rng=np.random.default_rng(scale.seed),
    )
    trainer = Trainer(model_pipe, encoder_pipe, config)
    pipe_seconds, _ = seconds(lambda: trainer.fit(train))
    pipe_history = trainer.history

    epochs = len(base_history)
    base_eps = epochs / base_seconds
    pipe_eps = len(pipe_history) / pipe_seconds
    speedup = pipe_eps / base_eps

    same_losses = _same_losses(base_history, pipe_history)
    same_weights = _same_state(model_base, model_pipe)
    lora = lora_control(model_pipe, encoder_pipe, config, train)

    rows = [
        ["re-encode/epoch", epochs, base_seconds, base_eps, 1.0],
        ["pre-encoded", len(pipe_history), pipe_seconds, pipe_eps, speedup],
        ["LoRA autograd", lora["lora_epochs"], lora["lora_graph_seconds"],
         lora["lora_graph_epochs_per_s"], 1.0],
        ["LoRA graph-free", lora["lora_epochs"], lora["lora_fused_seconds"],
         lora["lora_fused_epochs_per_s"], lora["lora_speedup"]],
    ]
    table = format_table(
        ["pipeline", "epochs", "seconds", "epochs/s", "speedup"], rows,
        title=f"Training throughput ({len(train)} plans, "
              f"batch={config.batch_size}, "
              f"bit-identical={_yes(same_losses and same_weights)}, "
              f"LoRA bit-identical={_yes(lora['lora_bit_identical'])})",
    )
    return {
        "table": table,
        "n_plans": len(train),
        "batch_size": config.batch_size,
        "epochs": epochs,
        "baseline_seconds": base_seconds,
        "pipelined_seconds": pipe_seconds,
        "baseline_epochs_per_s": base_eps,
        "pipelined_epochs_per_s": pipe_eps,
        "speedup": speedup,
        "identical_losses": same_losses,
        "identical_weights": same_weights,
        "bit_identical": same_losses and same_weights,
        **lora,
    }
