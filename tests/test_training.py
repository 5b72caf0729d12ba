"""The single training path: pretraining and the sequential baseline as
blocked schedules of the one Trainer, one forward pass per training batch,
and the tracer's span names.

The reference loops below are the standalone training loops these functions
replaced, each batch paying a second forward pass inside its backward; the
Trainer must reproduce their parameters and Adam moments exactly.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import taskweave.encoder as encoder
from taskweave.config import default_config
from taskweave.datagen import Loader
from taskweave.encoder import GradBuffer, adam_step, batch_hard_triplet, embed
from taskweave.experiments import (
    build_splits,
    fresh_optimizer,
    init_encoder,
    make_trainer,
    pretrain_encoder,
    sequential_finetune,
)
from taskweave.seeding import stream

ROOT = Path(__file__).resolve().parents[1]


def small_config(seed=3):
    config = default_config(output_dir="unused", seed=seed)
    config.tasks = [
        dataclasses.replace(
            t, classes=6 if t.regime == "coarse-category" else 10, samples_per_class=8
        )
        for t in config.tasks
    ]
    config.encoder.hidden_dims = [16]
    config.encoder.embedding_dim = 8
    config.batch.identities = 4
    config.batch.positives = 4
    config.validate()
    return config


def reference_backward(params, inputs, grad_embeddings, buffer):
    """Backward pass that re-runs the forward pass it differentiates."""
    h = np.asarray(inputs, dtype=np.float64)
    hiddens = [h]
    n_layers = params.n_layers
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        h = np.tanh(z) if i < n_layers - 1 else z
        hiddens.append(h)
    norms = np.linalg.norm(h, axis=1)
    guarded = h.copy()
    low = norms < encoder.NORM_FLOOR
    if low.any():
        guarded[low, 0] += encoder.NORM_FLOOR
        norms = np.linalg.norm(guarded, axis=1)
    embeddings = guarded / norms[:, None]
    inner = np.einsum("ij,ij->i", grad_embeddings, embeddings)
    g = (grad_embeddings - inner[:, None] * embeddings) / norms[:, None]
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            g = g * (1.0 - hiddens[i + 1] ** 2)
        buffer.weights[i] += hiddens[i].T @ g
        buffer.biases[i] += g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i].T
    buffer.accumulation_count += 1


def reference_pretrain(config, params, opt_state, data, steps, batches_per_step, seed):
    loader = Loader(data, stream(seed, "pretrain-loader", data.name))
    buffer = GradBuffer.zeros_like(params)
    for _ in range(steps):
        for _ in range(batches_per_step):
            batch, _ = loader.next_batch(config.batch.identities, config.batch.positives)
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, config.margin)
            reference_backward(params, batch.features, grad_emb, buffer)
        adam_step(params, buffer, opt_state)


def reference_sequential(config, params, opt_state, task_data, total_batches, group_size, seed):
    names = list(task_data)
    loaders = {n: Loader(task_data[n], stream(seed, "seq-loader", n)) for n in names}
    base, extra = divmod(total_batches, len(names))
    buffer = GradBuffer.zeros_like(params)
    for i, name in enumerate(names):
        budget = base + (1 if i < extra else 0)
        done = 0
        while done < budget:
            take = min(group_size, budget - done)
            for _ in range(take):
                batch, _ = loaders[name].next_batch(
                    config.batch.identities, config.batch.positives
                )
                emb = embed(params, batch.features)
                _, grad_emb = batch_hard_triplet(emb, batch.labels, config.margin)
                reference_backward(params, batch.features, grad_emb, buffer)
            adam_step(params, buffer, opt_state)
            done += take


def assert_same_state(params_a, opt_a, params_b, opt_b):
    for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
        assert np.array_equal(a, b)
    moments_a = opt_a.m_weights + opt_a.m_biases + opt_a.v_weights + opt_a.v_biases
    moments_b = opt_b.m_weights + opt_b.m_biases + opt_b.v_weights + opt_b.v_biases
    for a, b in zip(moments_a, moments_b):
        assert np.array_equal(a, b)
    assert opt_a.step == opt_b.step


class TestReferenceLoops:
    @pytest.mark.parametrize("steps, per_step", [(5, 2), (4, 1)])
    def test_pretrain_matches_reference(self, steps, per_step):
        config = small_config()
        train, _ = build_splits(config)
        data = train.tasks["objects"]
        params, opt = init_encoder(config)
        ref_params, ref_opt = params.copy(), fresh_optimizer(config, params)
        pretrain_encoder(config, params, opt, data, steps, per_step, seed=17)
        reference_pretrain(config, ref_params, ref_opt, data, steps, per_step, seed=17)
        assert opt.step == steps
        assert_same_state(params, opt, ref_params, ref_opt)

    # 11 batches over 3 tasks: budgets 4, 4, 3 (uneven divmod); groups of 3
    # leave a partial last group of 1 for the first two tasks.
    @pytest.mark.parametrize("total, group", [(11, 3), (12, 4), (2, 5)])
    def test_sequential_matches_reference(self, total, group):
        config = small_config()
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        params, opt = init_encoder(config)
        ref_params, ref_opt = params.copy(), fresh_optimizer(config, params)
        sequential_finetune(config, params, opt, tasks, total, group, seed=29)
        reference_sequential(config, ref_params, ref_opt, tasks, total, group, seed=29)
        assert_same_state(params, opt, ref_params, ref_opt)

    def test_sequential_step_count(self):
        config = small_config()
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        params, opt = init_encoder(config)
        trainer = sequential_finetune(config, params, opt, tasks, 7, 2, seed=29)
        # Budgets 3, 2, 2 in groups of at most 2: steps of 2, 1 | 2 | 2.
        assert trainer.step == opt.step == 4


class TestOneForwardPerBatch:
    @pytest.fixture
    def forward_calls(self, monkeypatch):
        calls = []
        original = encoder._forward

        def counting(params, inputs):
            calls.append(inputs.shape[0])
            return original(params, inputs)

        monkeypatch.setattr(encoder, "_forward", counting)
        return calls

    @pytest.mark.parametrize("cadence, passes", [(10**6, 1), (1, 2)])
    def test_interleaved_steps(self, forward_calls, cadence, passes):
        config = small_config()
        config.curriculum.accuracy_cadence = cadence
        train, _ = build_splits(config)
        params, opt = init_encoder(config)
        trainer = make_trainer(config, "balanced", train.tasks, params, opt, "t")
        batches = sum(trainer.train_step().batches_consumed for _ in range(3))
        # Without an accuracy pass, one forward pass per batch; with it, one
        # more per batch on the updated parameters.
        assert len(forward_calls) == passes * batches

    def test_adaptive_steps(self, forward_calls):
        config = small_config()
        config.curriculum.accuracy_cadence = 10**6
        config.curriculum.total_batches = 5
        train, _ = build_splits(config)
        params, opt = init_encoder(config)
        trainer = make_trainer(config, "adaptive", train.tasks, params, opt, "t")
        forward_calls.clear()  # the step-0 probe pass
        assert sum(trainer.train_step().batches_consumed for _ in range(3)) == 15
        assert len(forward_calls) == 15

    def test_pretrain_and_sequential(self, forward_calls):
        config = small_config()
        config.curriculum.accuracy_cadence = 10**6
        train, _ = build_splits(config)
        params, opt = init_encoder(config)
        pretrain_encoder(config, params, opt, train.tasks["objects"], 3, 2, seed=1)
        assert len(forward_calls) == 6
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        sequential_finetune(config, params, opt, tasks, 7, 3, seed=2)
        assert len(forward_calls) == 6 + 7


class TestSubsample:
    def test_blocked_baseline_honours_subsample(self):
        config = default_config(output_dir="unused")
        config.curriculum.subsample = {"persons": 0.5}
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        params, opt = init_encoder(config)
        interleaved = make_trainer(config, "balanced", train.tasks, params.copy(), opt, "t")
        blocked = sequential_finetune(config, params, fresh_optimizer(config, params), tasks, 3, 1, 9)
        full = train.tasks["persons"].n_samples
        assert blocked.loaders["persons"].size == interleaved.loaders["persons"].size == full // 2
        assert blocked.loaders["faces_hq"].size == train.tasks["faces_hq"].n_samples


class TestTracerSpans:
    def test_every_span_resolves(self, monkeypatch):
        path = ROOT / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracer)
        spec.loader.exec_module(tracer)
        missing = []
        for layer, names in tracer.SPANS.items():
            module = importlib.import_module(f"taskweave.{layer}")
            for name in names:
                owner = module
                for part in name.split("."):
                    owner = getattr(owner, part, None)
                if not callable(owner):
                    missing.append(f"{layer}.{name}")
        assert missing == []
