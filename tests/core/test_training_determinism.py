"""Bit-identity of the encode-once training pipeline.

``Trainer.fit`` now encodes once, reuses padded batches across epochs,
trains through the fused graph-free step, and evaluates validation loss
through ``DACEModel.infer`` — four separate shortcuts, each of which must
be invisible: same seed in, same loss history and same final weights
out, compared exactly against a faithful replica of the seed commit's
loop (per-epoch re-encoding, autograd graph, out-of-place Adam).
"""

import numpy as np
import pytest

from repro.core.fused import maybe_fused_step
from repro.core.model import DACEModel
from repro.core.trainer import Trainer, TrainingConfig, catch_dataset
from repro.featurize import PlanEncoder
from repro.nn import no_grad
from repro.nn.losses import log_qerror_loss


def _seed_adam_step(parameters, state, lr=1e-3, betas=(0.9, 0.999),
                    eps=1e-8):
    """One step of the seed commit's out-of-place Adam."""
    state["t"] += 1
    beta1, beta2 = betas
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for parameter, m, v in zip(parameters, state["m"], state["v"]):
        if parameter.grad is None:
            continue
        grad = parameter.grad
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad ** 2
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        parameter.data = parameter.data - lr * update


def _legacy_fit(model, encoder, config, train):
    """The seed commit's Trainer.fit, replicated operation for operation."""
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
    adam = {"t": 0, "m": [np.zeros_like(p.data) for p in parameters],
            "v": [np.zeros_like(p.data) for p in parameters]}

    def encode(chunk):
        return encoder.encode_batch(
            chunk, node_features=[encoder.encode_plan(p) for p in chunk]
        )

    def epoch_loss(eval_plans):
        total, count = 0.0, 0
        with no_grad():
            for start in range(0, len(eval_plans), config.batch_size):
                chunk = eval_plans[start:start + config.batch_size]
                batch = encode(chunk)
                loss = log_qerror_loss(
                    model(batch), batch.labels_log, batch.loss_weights
                )
                total += loss.item() * len(chunk)
                count += len(chunk)
        return total / count

    history = []
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
            for parameter in parameters:
                parameter.zero_grad()
            loss = log_qerror_loss(
                model(batch), batch.labels_log, batch.loss_weights
            )
            loss.backward()
            _seed_adam_step(parameters, adam, lr=config.lr)
            epoch_sum += loss.item() * len(chunk)
            seen += len(chunk)
        val_loss = epoch_loss(val_plans) if val_plans else float("nan")
        history.append({"epoch": epoch,
                        "train_loss": epoch_sum / max(seen, 1),
                        "val_loss": val_loss})
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


def _assert_same_run(history_a, history_b, model_a, model_b):
    assert len(history_a) == len(history_b)
    for a, b in zip(history_a, history_b):
        assert a["train_loss"] == b["train_loss"]
        assert a["val_loss"] == b["val_loss"] or (
            np.isnan(a["val_loss"]) and np.isnan(b["val_loss"])
        )
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


@pytest.fixture(scope="module")
def config():
    return TrainingConfig(epochs=5, batch_size=32,
                          validation_fraction=0.2, patience=5, seed=0)


def test_pipeline_matches_seed_loop_exactly(train_datasets, config):
    train = train_datasets[0]
    model_a = DACEModel(rng=np.random.default_rng(0))
    history_a = _legacy_fit(model_a, PlanEncoder(), config, train)

    model_b = DACEModel(rng=np.random.default_rng(0))
    trainer = Trainer(model_b, PlanEncoder(), config)
    trainer.fit(train)

    _assert_same_run(history_a, trainer.history, model_a, model_b)


def test_disk_cache_does_not_change_a_bit(train_datasets, config, tmp_path):
    """encode_cache=True: first fit populates the cache, second fit
    trains from the loaded arrays — identical runs either way."""
    train = train_datasets[0]
    runs = []
    for _ in range(2):
        model = DACEModel(rng=np.random.default_rng(0))
        cached_config = TrainingConfig(
            epochs=config.epochs, batch_size=config.batch_size,
            validation_fraction=config.validation_fraction,
            patience=config.patience, seed=config.seed,
            encode_cache=True, encode_cache_dir=str(tmp_path),
        )
        trainer = Trainer(model, PlanEncoder(), cached_config)
        trainer.fit(train)
        runs.append((trainer.history, model))
        assert trainer.metrics.counter("encodecache.misses").value + \
            trainer.metrics.counter("encodecache.hits").value > 0
    # Second run must have hit the cache for both splits.
    assert runs[1][1] is not None
    _assert_same_run(runs[0][0], runs[1][0], runs[0][1], runs[1][1])


def test_autograd_fallback_still_trains(train_datasets, config):
    """A ``DACEModel`` subclass falls back to the autograd path; make sure
    the fallback branch actually runs end to end."""
    class Custom(DACEModel):
        pass

    model = Custom(rng=np.random.default_rng(0))
    assert maybe_fused_step(model) is None
    fallback_config = TrainingConfig(
        epochs=2, batch_size=32, validation_fraction=0.2, patience=5,
        seed=0,
    )
    trainer = Trainer(model, PlanEncoder(), fallback_config)
    trainer.fit(train_datasets[0])
    assert len(trainer.history) == 2
    assert all(np.isfinite(h["train_loss"]) for h in trainer.history)
