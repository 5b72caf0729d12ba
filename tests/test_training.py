"""The single training path: pretraining and the sequential baseline as
blocked schedules of the one Trainer, one stacked kernel call per optimizer
step, and the tracer's span names.

The reference loops below are the standalone training loops these functions
replaced, each batch paying a second forward pass inside its backward; the
Trainer must reproduce their parameters and Adam moments exactly. The
reference step is the per-batch step the stacked kernel replaced; the
Trainer must reproduce its losses and accuracies as well.
"""

import dataclasses
import importlib
import json
import os
import pickle
import shutil
from copy import deepcopy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import taskweave.encoder as encoder
from conftest import load_tracer, load_worker, tree_bytes
from taskweave import curriculum, experiments, forking
from taskweave.config import OptimizerConfig, default_config
from taskweave.curriculum import (
    ADAPTIVE,
    BALANCED,
    BLOCKED,
    Trainer,
    balanced_epoch,
    blocked_schedule,
    make_loaders,
    sample_allocation,
)
from taskweave.datagen import Loader
from taskweave.errors import ContractError, NumericError, ValidationError
from taskweave.encoder import (
    GradBuffer,
    accumulate,
    adam_step,
    backward,
    batch_hard_triplet,
    embed,
    hardest_distances,
    id_masks,
    init_params,
    save_checkpoint,
)
from taskweave.artifacts import RunResult
from taskweave.experiments import (
    INTERLEAVED_ADAPTIVE,
    INTERLEAVED_BALANCED,
    SEQUENTIAL,
    build_splits,
    init_encoder,
    pretrain_encoder,
    run,
    run_forgetting_comparison,
    sequential_finetune,
)
from taskweave.metrics import EXPERT
from taskweave.scoring import class_centroids, evaluate_row, rows_to_table
from taskweave.seeding import derive_seed, stream


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


# The scored fields of a task's step record, in a step that was not scored.
UNSCORED = dict.fromkeys(("improvement", "goal_distance", "score", "probability"))


def batches_spent(records):
    """The batches that a list of step records allocated."""
    return sum(task["allocation"] for record in records for task in record["tasks"].values())


def reference_backward(params, inputs, grad_embeddings, grads):
    """Backward pass that re-runs the forward pass it differentiates, adding
    each layer's gradient into ``grads``: per-layer arrays, the weights in
    layer order, then the biases."""
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
        grads[i] += hiddens[i].T @ g
        grads[n_layers + i] += g.sum(axis=0)
        if i > 0:
            g = g @ params.weights[i].T


def reference_optimizer(config, params):
    """The fresh Adam state a Trainer builds for itself, for the reference
    loops to step."""
    return encoder.OptimState.for_params(params, **vars(config.optimizer))


def reference_pretrain(config, params, opt_state, data, seed):
    fg = config.forgetting
    loader = Loader(data, stream(seed, "pretrain-loader", data.name))
    buffer = GradBuffer.zeros_like(params)
    grads = arena_layers(buffer.flat, params)
    for _ in range(fg.pretrain_steps):
        for _ in range(fg.pretrain_batches_per_step):
            batch, _ = loader.next_batch(config.batch.identities, config.batch.positives)
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, config.margin)
            reference_backward(params, batch.features, grad_emb, grads)
            buffer.accumulation_count += 1
        adam_step(params, buffer, opt_state)


def reference_sequential(config, params, opt_state, task_data, total_batches, group_size, seed):
    names = list(task_data)
    loaders = {n: Loader(task_data[n], stream(seed, "seq-loader", n)) for n in names}
    base, extra = divmod(total_batches, len(names))
    buffer = GradBuffer.zeros_like(params)
    grads = arena_layers(buffer.flat, params)
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
                reference_backward(params, batch.features, grad_emb, grads)
                buffer.accumulation_count += 1
            adam_step(params, buffer, opt_state)
            done += take


def assert_same_state(params_a, opt_a, params_b, opt_b):
    for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(opt_a.m, opt_b.m)
    assert np.array_equal(opt_a.v, opt_b.v)
    assert opt_a.step == opt_b.step


class TestReferenceLoops:
    @pytest.mark.parametrize("steps, per_step", [(5, 2), (4, 1)])
    def test_pretrain_matches_reference(self, steps, per_step):
        config = small_config()
        config.forgetting.pretrain_steps = steps
        config.forgetting.pretrain_batches_per_step = per_step
        train, _ = build_splits(config)
        data = train.tasks["objects"]
        params = init_encoder(config)
        ref_params, ref_opt = params.copy(), reference_optimizer(config, params)
        trainer = pretrain_encoder(config, params, data)
        seed = derive_seed(config.seed, "pretrain")
        reference_pretrain(config, ref_params, ref_opt, data, seed=seed)
        assert trainer.opt_state.step == steps
        assert_same_state(params, trainer.opt_state, ref_params, ref_opt)

    # The step size is one interleaved step's batch count: 4 or 8 on the 4
    # tasks. 17 batches over 3 tasks: budgets 6, 6, 5 (uneven divmod) in
    # steps of 4 leave a partial last step each; 25 give 9, 8, 8 in steps
    # of 8; 2 give 1, 1, 0.
    @pytest.mark.parametrize("total, per_task", [(17, 1), (25, 2), (2, 2)])
    def test_sequential_matches_reference(self, total, per_task):
        config = small_config()
        config.curriculum.batches_per_task = per_task
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        params = init_encoder(config)
        ref_params, ref_opt = params.copy(), reference_optimizer(config, params)
        trainer = sequential_finetune(config, params, tasks, total)
        seed = derive_seed(config.seed, "finetune-sequential")
        step = len(config.tasks) * per_task
        reference_sequential(config, ref_params, ref_opt, tasks, total, step, seed=seed)
        assert_same_state(params, trainer.opt_state, ref_params, ref_opt)

    # Steps of 1 to 3 batches, driven through the Trainer by hand: 11
    # batches over 3 tasks give budgets 4, 4, 3.
    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_blocked_steps_match_reference(self, group):
        config = small_config()
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        params = init_encoder(config)
        ref_params, ref_opt = params.copy(), reference_optimizer(config, params)
        seed = derive_seed(config.seed, "finetune-sequential")
        trainer = Trainer(config, BALANCED, tasks, params, seed, "seq-loader")
        for allocation in blocked_schedule(list(tasks), 11, group):
            trainer.train_step(allocation)
        reference_sequential(config, ref_params, ref_opt, tasks, 11, group, seed=seed)
        assert_same_state(params, trainer.opt_state, ref_params, ref_opt)

    def test_sequential_step_count(self):
        config = small_config()
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        trainer = sequential_finetune(config, init_encoder(config), tasks, 17)
        # Budgets 6, 6, 5 in steps of at most 4: steps of 4, 2 | 4, 2 | 4, 1.
        assert trainer.step == trainer.opt_state.step == 6


class TestOneForwardPerBatch:
    """One forward pass per optimizer step, over all of the step's batches;
    one more, over the same batches, for the accuracy pass. Both the cached
    forward pass of the training kernel and the cache-free one of ``embed``
    run the layers through ``encoder._layers``, so counting its calls counts
    every forward pass."""

    @pytest.fixture
    def forward_rows(self, monkeypatch):
        rows = []
        original = encoder._layers

        def counting(params, h):
            rows.append(int(np.prod(h.shape[:-1])))
            return original(params, h)

        monkeypatch.setattr(encoder, "_layers", counting)
        return rows

    @pytest.mark.parametrize("cadence, passes", [(10**6, 1), (1, 2)])
    def test_interleaved_steps(self, forward_rows, cadence, passes):
        config = small_config()
        config.curriculum.accuracy_cadence = cadence
        train, _ = build_splits(config)
        seed = derive_seed(config.seed, "t")
        trainer = Trainer(config, BALANCED, train.tasks, init_encoder(config), seed)
        batch = config.batch.identities * config.batch.positives
        reports = [trainer.train_step() for _ in range(3)]
        expected = [batches_spent([r]) * batch for r in reports for _ in range(passes)]
        assert forward_rows == expected

    def test_adaptive_steps(self, forward_rows):
        config = small_config()
        config.curriculum.accuracy_cadence = 10**6
        config.curriculum.total_batches = 5
        train, _ = build_splits(config)
        seed = derive_seed(config.seed, "t")
        trainer = Trainer(config, ADAPTIVE, train.tasks, init_encoder(config), seed)
        forward_rows.clear()  # the step-0 probe pass
        assert batches_spent([trainer.train_step() for _ in range(3)]) == 15
        assert forward_rows == [5 * config.batch.identities * config.batch.positives] * 3

    def test_pretrain_and_sequential(self, forward_rows):
        config = small_config()
        config.curriculum.accuracy_cadence = 10**6
        config.forgetting.pretrain_steps = 3
        config.forgetting.pretrain_batches_per_step = 2
        batch = config.batch.identities * config.batch.positives
        train, _ = build_splits(config)
        params = init_encoder(config)
        pretrain_encoder(config, params, train.tasks["objects"])
        assert forward_rows == [2 * batch] * 3
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        sequential_finetune(config, params, tasks, 7)
        # Budgets 3, 2, 2 in steps of at most 4: one step per task.
        assert forward_rows[3:] == [3 * batch, 2 * batch, 2 * batch]


def reference_accuracy(params, batches):
    satisfied = total = 0
    for batch in batches:
        d_pos, d_neg, _, _ = hardest_distances(embed(params, batch.features), batch.labels)
        satisfied += int((d_pos < d_neg).sum())
        total += len(d_pos)
    return satisfied / total


class ReferenceTrainer(Trainer):
    """The Trainer before its step was stacked: one ``accumulate`` per batch,
    and an accuracy pass of one ``embed`` and ``hardest_distances`` per batch."""

    def seed_initial_accuracies(self):
        for name, data in self.task_data.items():
            rng = stream(self.seed, "probe", name)
            batches = [self._probe_batch(data, rng) for _ in range(self.curriculum.probe_batches)]
            self.states[name].metric_log.append((0, reference_accuracy(self.params, batches)))

    def train_step(self, allocations=None):
        self.step += 1
        scoring = dict.fromkeys(self.task_names, UNSCORED)
        if allocations is not None:
            mode = BLOCKED
            allocations = {name: int(allocations.get(name, 0)) for name in self.task_names}
        else:
            mode = self.mode
            if mode == BALANCED:
                alloc_list = [self.curriculum.batches_per_task] * self.n_tasks
            else:
                scoring = self._score_tasks()
                probs = [scoring[name]["probability"] for name in self.task_names]
                alloc_list = sample_allocation(probs, self.total_batches, self.alloc_rng)
            allocations = {name: int(a) for name, a in zip(self.task_names, alloc_list)}
        losses = {name: 0.0 for name in self.task_names}
        exhausted = {name: False for name in self.task_names}
        used = {name: [] for name in self.task_names}
        for name in self.task_names:
            for _ in range(allocations[name]):
                batch, flag = self.loaders[name].next_batch(self.identities, self.positives)
                losses[name] += accumulate(
                    self.params, batch.features, batch.labels, self.margin, self.buffer
                )
                exhausted[name] = exhausted[name] or flag
                used[name].append(batch)
        adam_step(self.params, self.buffer, self.opt_state)
        accuracies = {name: None for name in self.task_names}
        if self.step % self.curriculum.accuracy_cadence == 0:
            for name in self.task_names:
                if used[name]:
                    accuracies[name] = reference_accuracy(self.params, used[name])
                    self.states[name].metric_log.append((self.step, accuracies[name]))
        for name in self.task_names:
            self.states[name].last_allocation = allocations[name]
        tasks = {
            name: {
                "allocation": allocations[name],
                "loss": losses[name],
                "accuracy": accuracies[name],
                "exhausted": exhausted[name],
                **scoring[name],
            }
            for name in self.task_names
        }
        return {"step": self.step, "mode": mode, "tasks": tasks}


def trainer_and_reference(config, mode, tasks):
    params = init_encoder(config)
    return [cls(config, mode, tasks, params.copy(), seed=41) for cls in (Trainer, ReferenceTrainer)]


def assert_same_steps(trainer, reference, allocations):
    for allocation in allocations:
        report = trainer.train_step(allocation)
        expected = reference.train_step(allocation)
        # The records hold every allocation, loss, accuracy, flag and
        # adaptive score.
        assert report == expected
    assert_same_state(trainer.params, trainer.opt_state, reference.params, reference.opt_state)
    for name in trainer.task_names:
        assert trainer.states[name].metric_log == reference.states[name].metric_log


class TestStackedStepMatchesReference:
    @pytest.mark.parametrize("cadence", [1, 2])
    def test_balanced(self, cadence):
        config = small_config()
        config.curriculum.accuracy_cadence = cadence
        config.curriculum.batches_per_task = 2
        train, _ = build_splits(config)
        trainer, reference = trainer_and_reference(config, "balanced", train.tasks)
        assert_same_steps(trainer, reference, [None] * 6)

    def test_adaptive(self):
        config = small_config()
        config.curriculum.accuracy_cadence = 1
        config.curriculum.total_batches = 6
        train, _ = build_splits(config)
        trainer, reference = trainer_and_reference(config, "adaptive", train.tasks)
        assert_same_steps(trainer, reference, [None] * 8)

    def test_blocked(self):
        config = small_config()
        config.curriculum.accuracy_cadence = 1
        train, _ = build_splits(config)
        trainer, reference = trainer_and_reference(config, "balanced", train.tasks)
        assert_same_steps(trainer, reference, blocked_schedule(trainer.task_names, 11, 3))


class TestStepMasks:
    def test_built_once_per_stack_size(self, monkeypatch):
        # Balanced steps stack 4 batches; blocked steps of at most 3 stack 3,
        # then the remainder's 2. Each size builds its masks once.
        config = small_config()
        train, _ = build_splits(config)
        trainer = Trainer(config, BALANCED, train.tasks, init_encoder(config), seed=41)
        built = []

        def counted(ids):
            built.append(ids.shape)
            return id_masks(ids)

        monkeypatch.setattr(curriculum, "id_masks", counted)
        for _ in range(3):
            trainer.train_step()
        for allocation in blocked_schedule(trainer.task_names, 10, 3):
            trainer.train_step(allocation)
        assert built == [(4, 16), (3, 16), (2, 16)]
        assert sorted(trainer._masks) == [2, 3, 4]
        for masks in trainer._masks.values():
            assert not any(mask.flags.writeable for mask in masks)


def triplet_stack(data, max_batches=4):
    """B batches of equal size: permuted P*K ids and coordinates drawn from a
    few exact values (ties, coincident rows, signed zeros) or from floats."""
    n_batches = data.draw(st.integers(1, max_batches), label="B")
    n_ids = data.draw(st.integers(2, 5), label="n_ids")
    k = data.draw(st.integers(2, 4), label="k")
    pattern = np.repeat(np.arange(n_ids), k).tolist()
    ids = np.array([data.draw(st.permutations(pattern)) for _ in range(n_batches)])
    coords = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
        st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
    )
    width = data.draw(st.integers(1, 4), label="width")
    stack = data.draw(arrays(np.float64, (n_batches, ids.shape[1], width), elements=coords))
    return stack, ids


class TestStackedKernelMatchesPerBatch:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_hard_triplet(self, data):
        emb, ids = triplet_stack(data)
        margin = data.draw(st.sampled_from([0.0, 0.35, 100.0]), label="margin")
        losses, grad = batch_hard_triplet(emb, ids, margin)
        mined = hardest_distances(emb, ids)
        assert losses.shape == (emb.shape[0],)
        for b in range(emb.shape[0]):
            loss, expected = batch_hard_triplet(emb[b], ids[b], margin)
            assert losses[b] == loss
            assert grad[b].tobytes() == expected.tobytes()
            for stacked, single in zip(mined, hardest_distances(emb[b], ids[b])):
                assert stacked[b].tobytes() == single.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_batch_stack_is_the_single_call(self, data):
        emb, ids = triplet_stack(data, max_batches=1)
        losses, grad = batch_hard_triplet(emb, ids, 0.35)
        loss, expected = batch_hard_triplet(emb[0], ids[0], 0.35)
        assert isinstance(loss, float) and losses.tolist() == [loss]
        assert grad[0].tobytes() == expected.tobytes()

    @staticmethod
    def assert_accumulates_per_batch(params, features, ids):
        # Both buffers start from the same non-zero gradient, so adding a
        # step's batches as one sum would show in the last bits.
        rng = np.random.default_rng(7)
        stacked, single = GradBuffer.zeros_like(params), GradBuffer.zeros_like(params)
        for a, b in zip(arena_layers(stacked.flat, params), arena_layers(single.flat, params)):
            a[...] = b[...] = rng.standard_normal(a.shape)
        losses = accumulate(params, features, ids, 0.35, stacked)
        expected = [accumulate(params, x, i, 0.35, single) for x, i in zip(features, ids)]
        assert losses.tolist() == expected
        assert stacked.accumulation_count == single.accumulation_count == ids.shape[0]
        assert stacked.flat.tobytes() == single.flat.tobytes()
        embedded = embed(params, features)
        for b in range(ids.shape[0]):
            # The B = 1 stack: one batch's own product. A 2-D call runs in
            # padded blocks of EMBED_ROWS rows, whose bits differ at some widths.
            assert embedded[b].tobytes() == embed(params, features[b][None])[0].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_accumulate(self, data):
        # Inputs with all-zero rows give zero outputs under the zero initial
        # biases, so their embeddings take the NORM_FLOOR nudge.
        features, ids = triplet_stack(data)
        zero_rows = data.draw(arrays(bool, ids.shape), label="zero_rows")
        features[zero_rows] = 0.0
        params = init_params([features.shape[2], 5, 3], np.random.default_rng(ids.size))
        self.assert_accumulates_per_batch(params, features, ids)

    # Layer widths and batch shapes where one matrix product over all B·n
    # rows differs in the last bits from B products of n rows on an AVX-512
    # OpenBLAS: the row count changes the kernel and the row tiling.
    @pytest.mark.parametrize(
        "dims, n_batches, p, k",
        [([37, 17], 6, 2, 5), ([19, 18, 23], 3, 3, 5), ([24, 32, 2, 39], 4, 7, 5), ([34, 39, 37], 5, 4, 3)],
    )
    def test_accumulate_wide_layers(self, dims, n_batches, p, k):
        rng = np.random.default_rng(sum(dims))
        params = init_params(dims, rng)
        ids = np.stack([rng.permutation(np.repeat(np.arange(p), k)) for _ in range(n_batches)])
        features = rng.standard_normal((n_batches, p * k, dims[0]))
        self.assert_accumulates_per_batch(params, features, ids)

    def test_contracts_hold_per_batch(self):
        emb = np.random.default_rng(0).standard_normal((2, 4, 3))
        with pytest.raises(encoder.ContractError, match="twice"):
            hardest_distances(emb, np.array([[0, 0, 1, 1], [0, 0, 1, 2]]))
        with pytest.raises(encoder.ContractError, match="align"):
            hardest_distances(emb, np.array([0, 0, 1, 1]))
        params = init_params([3, 4, 2], np.random.default_rng(1))
        params.weights[1][0, 0] = np.inf
        with pytest.raises(encoder.NumericError) as err:
            embed(params, np.ones((2, 4, 3)))
        assert err.value.layer == 1
        with pytest.raises(encoder.ContractError, match="ambient"):
            embed(params, np.ones((2, 4, 5)))


def reference_adam_step(params, buffer, state, hyper):
    """The per-array Adam step the packed one replaced: ``params``,
    ``buffer`` and ``state`` hold plain per-layer lists."""
    state.step += 1
    t = state.step
    b1, b2 = hyper["beta1"], hyper["beta2"]
    lr, wd = hyper["learning_rate"], hyper["weight_decay"]
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    groups = (
        (params.weights, buffer.weights, state.m_weights, state.v_weights),
        (params.biases, buffer.biases, state.m_biases, state.v_biases),
    )
    for values, grads, ms, vs in groups:
        for value, grad, m, v in zip(values, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad**2
            update = lr * (m / bias1) / (np.sqrt(v / bias2) + hyper["epsilon"])
            if wd:
                update = update + lr * wd * value
            value -= update
            if not np.isfinite(value).all():
                raise NumericError("non-finite parameters after optimizer step")
    for array in layers(buffer):
        array[:] = 0.0
    buffer.accumulation_count = 0


def per_array(arrays):
    return [np.array(a) for a in arrays]


def assert_same_bytes(packed, plain):
    assert len(packed) == len(plain)
    for a, b in zip(packed, plain):
        assert a.tobytes() == b.tobytes()


def layers(holder):
    return holder.weights + holder.biases


def arena_layers(arena, params):
    """Per-layer views of ``arena`` in ``params``' layout: the weights in
    layer order, then the biases."""
    shapes = [a.shape for a in layers(params)]
    pieces = np.split(arena, np.cumsum([a.size for a in layers(params)])[:-1])
    return [piece.reshape(shape) for piece, shape in zip(pieces, shapes)]


def moments(state):
    return state.m_weights + state.m_biases + state.v_weights + state.v_biases


# Few exact values make ties, signed zeros and cancellations common.
EXACT_OR_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 1e-3]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
)


class TestArenaMatchesPerArray:
    """The packed arenas against tests-only copies of the per-array code
    they replaced: the Adam step array by array, and the backward pass
    adding each layer's gradient batch by batch (``reference_backward``,
    one call per batch, in batch order). Every compare is by ``tobytes``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_steps_bitwise_equal(self, data):
        n_layers = data.draw(st.integers(1, 3), label="layers")
        dims = data.draw(st.lists(st.integers(1, 6), min_size=n_layers + 1, max_size=n_layers + 1))
        n_batches = data.draw(st.integers(1, 5), label="B")
        rows = data.draw(st.integers(2, 6), label="rows")
        hyper = dict(
            learning_rate=0.1,
            beta1=0.9,
            beta2=0.999,
            epsilon=1e-8,
            weight_decay=data.draw(st.sampled_from([0.0, 1e-6]), label="weight_decay"),
        )
        params = init_params(dims, np.random.default_rng(sum(dims)))
        opt = encoder.OptimState.for_params(params, **hyper)
        buffer = GradBuffer.zeros_like(params)
        ref = SimpleNamespace(
            weights=per_array(params.weights), biases=per_array(params.biases), n_layers=n_layers
        )
        m, v = (per_array(arena_layers(moment, params)) for moment in (opt.m, opt.v))
        ref_opt = SimpleNamespace(
            step=0,
            m_weights=m[:n_layers],
            m_biases=m[n_layers:],
            v_weights=v[:n_layers],
            v_biases=v[n_layers:],
        )
        # The first step adds into a buffer that already holds values,
        # signed zeros among them.
        for array in arena_layers(buffer.flat, params):
            array[...] = data.draw(arrays(np.float64, array.shape, elements=EXACT_OR_FLOAT))
        grads = per_array(arena_layers(buffer.flat, params))
        ref_buffer = SimpleNamespace(
            weights=grads[:n_layers], biases=grads[n_layers:], accumulation_count=0
        )
        for _ in range(data.draw(st.integers(3, 4), label="steps")):
            features, grads = (
                data.draw(arrays(np.float64, (n_batches, rows, width), elements=EXACT_OR_FLOAT))
                for width in (dims[0], dims[-1])
            )
            backward(params, encoder._forward(params, features), grads, buffer)
            for x, g in zip(features, grads):
                reference_backward(ref, x, g, layers(ref_buffer))
                ref_buffer.accumulation_count += 1
            assert buffer.accumulation_count == ref_buffer.accumulation_count == n_batches
            assert_same_bytes(arena_layers(buffer.flat, params), layers(ref_buffer))

            adam_step(params, buffer, opt)
            reference_adam_step(ref, ref_buffer, ref_opt, hyper)
            assert opt.step == ref_opt.step
            assert_same_bytes(layers(params), layers(ref))
            assert_same_bytes(
                arena_layers(opt.m, params) + arena_layers(opt.v, params), moments(ref_opt)
            )
            assert_same_bytes(arena_layers(buffer.flat, params), layers(ref_buffer))

    @pytest.mark.parametrize("where", ["first weight", "last bias"])
    def test_non_finite_update_raises(self, where):
        params = init_params([3, 4, 2], np.random.default_rng(2))
        opt = encoder.OptimState.for_params(params, **vars(OptimizerConfig()))
        buffer = GradBuffer.zeros_like(params)
        # The arena starts with the first weight and ends with the last bias.
        buffer.flat[0 if where == "first weight" else -1] = np.nan
        buffer.accumulation_count = 1
        with pytest.raises(NumericError, match="non-finite"):
            adam_step(params, buffer, opt)

    def test_every_array_is_a_view_of_its_arena(self):
        params = init_params([3, 4, 2], np.random.default_rng(3))
        views = layers(params)
        assert params.flat.size == sum(v.size for v in views)
        assert np.concatenate([v.ravel() for v in views]).tobytes() == params.flat.tobytes()
        assert all(np.shares_memory(params.flat, v) for v in views)
        # A copy, pickled or not, owns its own arena.
        for copy in (params.copy(), pickle.loads(pickle.dumps(params))):
            assert copy.flat.tobytes() == params.flat.tobytes()
            assert not np.shares_memory(copy.flat, params.flat)
            assert all(np.shares_memory(copy.flat, w) for w in copy.weights)

    @pytest.mark.parametrize(
        "clone", [deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
    )
    def test_buffer_and_moments_copy_into_their_own_arenas(self, clone):
        rng = np.random.default_rng(3)
        params = init_params([3, 4, 2], rng)
        buffer = GradBuffer.zeros_like(params)
        buffer.flat[:] = rng.standard_normal(buffer.flat.size)
        buffer.accumulation_count = 2
        hyper = vars(dataclasses.replace(OptimizerConfig(), learning_rate=0.1))
        opt = encoder.OptimState.for_params(params, **hyper)
        opt.m[:], opt.v[:] = rng.standard_normal((2, opt.m.size))
        opt.step = 5
        for original, names in ((buffer, ["flat"]), (opt, ["m", "v"])):
            copied = clone(original)
            assert type(copied) is type(original)
            for f in dataclasses.fields(original):
                a, b = getattr(copied, f.name), getattr(original, f.name)
                if f.name in names:
                    assert a.tobytes() == b.tobytes()
                    assert not np.shares_memory(a, b)
                else:
                    assert a == b

    def test_checkpoint_bytes_and_round_trip(self, tmp_path):
        params = init_params([5, 7, 3], np.random.default_rng(4))
        params.biases[0][:] = [0.5, -0.0, 0.0, 1e-300, -2.0, 3.0, -1.0]
        plain = SimpleNamespace(weights=per_array(params.weights), biases=per_array(params.biases))
        out = RunResult(tmp_path)
        save_checkpoint(params, out, "arena.npz")
        # The checkpoint format, written from plain per-layer arrays.
        arrays = {"version": np.array([encoder.CHECKPOINT_VERSION]), "n_layers": np.array([2])}
        for i, (w, b) in enumerate(zip(plain.weights, plain.biases)):
            arrays[f"w{i}"], arrays[f"b{i}"] = w, b
        out.npz("plain.npz", arrays)
        assert (tmp_path / "arena.npz").read_bytes() == (tmp_path / "plain.npz").read_bytes()
        loaded = encoder.load_checkpoint(tmp_path / "arena.npz")
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert_same_bytes(layers(loaded), layers(plain))


class TestSubsample:
    def test_blocked_baseline_honours_subsample(self):
        config = default_config(output_dir="unused")
        config.curriculum.subsample = {"persons": 0.5}
        train, _ = build_splits(config)
        tasks = {n: d for n, d in train.tasks.items() if n != "objects"}
        params = init_encoder(config)
        seed = derive_seed(config.seed, "t")
        interleaved = Trainer(config, BALANCED, train.tasks, params.copy(), seed)
        blocked = sequential_finetune(config, params, tasks, 3)
        full = train.tasks["persons"].n_samples
        assert blocked.loaders["persons"].size == interleaved.loaders["persons"].size == full // 2
        assert blocked.loaders["faces_hq"].size == train.tasks["faces_hq"].n_samples


def reference_row(params, train_corpus, eval_corpus, config):
    """One model's score row: every eval task and the coarse train tasks
    behind the class centroids embedded up front, then scored."""
    eval_emb = {n: embed(params, d.features) for n, d in eval_corpus.tasks.items()}
    coarse = {n: d for n, d in train_corpus.tasks.items() if d.regime == "coarse-category"}
    train_emb = {n: embed(params, d.features) for n, d in coarse.items()}
    centroids = class_centroids(lambda d: train_emb[d.name], train_corpus)
    return evaluate_row(lambda d: eval_emb[d.name], eval_corpus, centroids, config)


def write_lines(out, rel, records):
    """JSONL as the writer formats it: one compact, key-sorted line per
    record."""
    out.write(rel, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode())


def reference_forgetting_comparison(config):
    """The forgetting pipeline as it was written before its fine-tunes shared
    one loop: a blocked pretraining, three hand-written fine-tune blocks, and
    every trainer seeded by an integer derived at the call site."""
    fg = config.forgetting
    out = RunResult(config.output_dir)
    out.start()

    train_corpus, eval_corpus = build_splits(config)
    params = init_encoder(config)
    data = train_corpus.tasks[fg.pretrain_task]
    seed = derive_seed(config.seed, "pretrain")
    tasks = {data.name: data}
    records = []
    pretrainer = Trainer(config, BALANCED, tasks, params, seed, "pretrain-loader", records.append)
    budget = fg.pretrain_steps * fg.pretrain_batches_per_step
    for allocation in blocked_schedule([data.name], budget, fg.pretrain_batches_per_step):
        pretrainer.train_step(allocation)
    write_lines(out, "traces/pretrain.jsonl", records)
    save_checkpoint(params, out, "checkpoints/encoder_pretrained.npz")

    top1_col = f"{fg.pretrain_task}:top1"
    baseline_row = reference_row(params, train_corpus, eval_corpus, config)
    baseline_acc = baseline_row[top1_col]

    finetune_tasks = {n: d for n, d in train_corpus.tasks.items() if n != fg.pretrain_task}
    models = {}

    balanced_params = params.copy()
    seed = derive_seed(config.seed, "finetune-balanced")
    records = []
    tasks = train_corpus.tasks
    trainer = Trainer(config, BALANCED, tasks, balanced_params, seed, trace=records.append)
    for _ in range(fg.finetune_epochs):
        trainer.run_epoch()
    balanced_batches = batches_spent(records)
    write_lines(out, "traces/finetune_balanced.jsonl", records)
    models[INTERLEAVED_BALANCED] = balanced_params

    adaptive_params = params.copy()
    seed = derive_seed(config.seed, "finetune-adaptive")
    records = []
    tasks = train_corpus.tasks
    trainer = Trainer(config, ADAPTIVE, tasks, adaptive_params, seed, trace=records.append)
    for _ in range(fg.finetune_epochs):
        trainer.run_epoch()
    write_lines(out, "traces/finetune_adaptive.jsonl", records)
    models[INTERLEAVED_ADAPTIVE] = adaptive_params
    adaptive_batches = batches_spent(records)

    sequential_params = params.copy()
    seed = derive_seed(config.seed, "finetune-sequential")
    records = []
    trainer = Trainer(
        config, BALANCED, finetune_tasks, sequential_params, seed, "seq-loader", records.append
    )
    group = len(train_corpus.tasks) * config.curriculum.batches_per_task
    for allocation in blocked_schedule(list(finetune_tasks), balanced_batches, group):
        trainer.train_step(allocation)
    write_lines(out, "traces/finetune_sequential.jsonl", records)
    models[SEQUENTIAL] = sequential_params

    order = [SEQUENTIAL, INTERLEAVED_BALANCED, INTERLEAVED_ADAPTIVE]
    batches = dict(zip(order, [balanced_batches, balanced_batches, adaptive_batches]))
    rows = {
        name: reference_row(models[name], train_corpus, eval_corpus, config)
        for name in order
    }
    table, floored = rows_to_table(rows)
    table.to_csv(out, "tables/forgetting_scores.csv")
    indexed_rows = [
        [name] + [float(v) for v in table.row(name)] + [table.index_for(name, EXPERT)]
        for name in order
    ]
    out.rows(
        "tables/forgetting_scores_indexed.csv",
        ["model"] + table.columns + ["multitask_index_expert"],
        indexed_rows,
    )
    report = {
        "pretrain_task": fg.pretrain_task,
        "pretrain_accuracy": baseline_acc,
        "finetune_total_batches": balanced_batches,
        "models": {
            name: {
                "batches": batches[name],
                "pretrain_task_accuracy": rows[name][top1_col],
                "pretrain_task_drop": baseline_acc - rows[name][top1_col],
                "multitask_index_expert": table.index_for(name, EXPERT),
            }
            for name in order
        },
    }
    out.json("forgetting_report.json", report)
    out.finish(config.seed, report, floored_cells=floored)


class TestForgettingMatchesReference:
    """The one fine-tune loop and the shared blocked body write, byte for
    byte, the files of the hand-written pipeline they replaced."""

    @pytest.mark.parametrize("seed", [3, 72025])
    def test_byte_identical_tree(self, tmp_path, seed):
        config = small_config(seed)
        config.evaluation.verification_pairs = 200
        config.forgetting.pretrain_steps = 6
        config.forgetting.pretrain_batches_per_step = 2
        config.forgetting.finetune_epochs = 1
        config.curriculum.steps_per_epoch = 5
        config.output_dir = str(tmp_path / "reference")
        reference_forgetting_comparison(config)
        run_forgetting_comparison(config, output_dir=tmp_path / "refactored")
        expected = tree_bytes(tmp_path / "reference")
        assert len(expected) == 9
        assert tree_bytes(tmp_path / "refactored") == expected

    def test_each_blocked_phase_runs_once(self, monkeypatch, tmp_path):
        tracer = load_tracer(monkeypatch.setitem)
        config = small_config()
        config.output_dir = str(tmp_path / "out")
        config.evaluation.verification_pairs = 100
        config.forgetting.pretrain_steps = 2
        config.forgetting.finetune_epochs = 1
        with tracer.Tracer() as traced:
            run_forgetting_comparison(config)
        counts = traced.counts()
        assert counts["experiments.pretrain_encoder"] == 1
        assert counts["experiments.sequential_finetune"] == 1


def forgetting_config(tmp_path, seed=3):
    config = small_config(seed)
    config.evaluation.verification_pairs = 200
    config.forgetting.pretrain_steps = 6
    config.forgetting.pretrain_batches_per_step = 2
    config.forgetting.finetune_epochs = 1
    config.curriculum.steps_per_epoch = 5
    config.output_dir = str(tmp_path)
    return config


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="without fork and an affinity mask the fine-tunes run in this process",
)


def balanced_finetune_trainer(config, train):
    seed = derive_seed(config.seed, "finetune-balanced")
    return Trainer(config, BALANCED, train.tasks, init_encoder(config), seed)


def planned_and_spent(config):
    """The balanced fine-tune's planned batch total and the total the same
    trainer then spends, under the forgetting comparison's seed name."""
    train, _ = build_splits(config)
    epochs = config.forgetting.finetune_epochs
    trainer = balanced_finetune_trainer(config, train)
    planned = trainer.planned_batches(epochs)
    for _ in range(epochs):
        trainer.run_epoch()
    return planned, trainer.batches


def loader_states(trainer):
    return {
        name: (loader._rng.bit_generator.state, loader.order.tolist(), loader.cursor)
        for name, loader in trainer.loaders.items()
    }


class TestBudgetPlan:
    """The balanced trainer knows its budget before any fine-tune runs:
    replaying fresh loaders of its own recipe through the shared epoch rule
    gives the batch total it then spends, and the comparison refuses to
    write a fine-tune file when the two disagree."""

    @pytest.mark.parametrize("seed", [72025, 3, 7])
    def test_plan_matches_the_stock_balanced_run(self, seed):
        planned, spent = planned_and_spent(default_config(output_dir="unused", seed=seed))
        assert planned == spent
        if seed == 72025:
            assert planned == 888

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_plan_matches_the_tiny_balanced_run(self, tmp_path, epochs):
        config = forgetting_config(tmp_path)
        config.forgetting.finetune_epochs = epochs
        planned, spent = planned_and_spent(config)
        assert planned == spent

    def test_plan_runs_no_kernel(self, monkeypatch, tmp_path):
        config = forgetting_config(tmp_path)
        train, _ = build_splits(config)
        tracer = load_tracer(monkeypatch.setitem)
        trainer = balanced_finetune_trainer(config, train)
        draws = []
        draw = Loader.draw

        def spy(loader, p, k):
            draws.append(loader.task)
            return draw(loader, p, k)

        monkeypatch.setattr(Loader, "draw", spy)
        with tracer.Tracer() as traced:
            planned = trainer.planned_batches(1)
        # Planning draws each batch and gathers none: no span fires, not
        # even ``Loader.next_batch``.
        assert sum(traced.counts().values()) == 0
        assert len(draws) == planned
        assert sorted(set(draws)) == sorted(train.tasks)

    def test_planning_leaves_the_trainer_untouched(self, tmp_path):
        config = forgetting_config(tmp_path)
        train, _ = build_splits(config)
        trainer = balanced_finetune_trainer(config, train)
        before = loader_states(trainer)
        first = trainer.planned_batches(2)
        assert trainer.planned_batches(2) == first
        assert loader_states(trainer) == before
        assert trainer.step == trainer.batches == 0

    def test_only_a_balanced_trainer_plans(self, tmp_path):
        config = forgetting_config(tmp_path)
        train, _ = build_splits(config)
        seed = derive_seed(config.seed, "finetune-adaptive")
        trainer = Trainer(config, ADAPTIVE, train.tasks, init_encoder(config), seed)
        with pytest.raises(ContractError, match="only a balanced trainer"):
            trainer.planned_batches(1)

    def test_epoch_cap(self, tmp_path):
        config = forgetting_config(tmp_path)
        train, _ = build_splits(config)
        loaders = make_loaders(train.tasks, config.curriculum, 1, "loader")
        calls = []

        def never_exhausts():
            calls.append(1)
            return dict.fromkeys(loaders, False)

        with pytest.raises(ContractError, match="internal bound"):
            balanced_epoch(never_exhausts, loaders, 1, 16)
        largest = max(loader.size for loader in loaders.values())
        assert len(calls) == 10 * (largest // 16 + 2)

    @needs_fork
    @pytest.mark.usefixtures("leaves_no_process_or_fd")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_disagreeing_plan_writes_no_finetune_file(self, monkeypatch, tmp_path, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        plan = Trainer.planned_batches
        monkeypatch.setattr(Trainer, "planned_batches", lambda *a: plan(*a) + 1)
        with pytest.raises(ContractError, match="balanced fine-tune spent"):
            run_forgetting_comparison(forgetting_config(tmp_path))
        assert sorted(tree_bytes(tmp_path)) == [
            "checkpoints/encoder_pretrained.npz",
            "traces/pretrain.jsonl",
        ]


class TestBatchesPerModel:
    """Each model's entry in the forgetting report gives the batches its
    fine-tune spent: the sum of the allocations in its trace."""

    TRACES = {
        SEQUENTIAL: "finetune_sequential",
        INTERLEAVED_BALANCED: "finetune_balanced",
        INTERLEAVED_ADAPTIVE: "finetune_adaptive",
    }

    @pytest.mark.parametrize("stock", [False, True], ids=["tiny", "stock"])
    def test_batches_are_the_trace_allocations(self, tmp_path, stock):
        config = default_config() if stock else forgetting_config(tmp_path)
        run_forgetting_comparison(config, output_dir=tmp_path)
        report = json.loads((tmp_path / "forgetting_report.json").read_text())
        batches = {name: entry["batches"] for name, entry in report["models"].items()}
        for name, trace in self.TRACES.items():
            lines = (tmp_path / "traces" / f"{trace}.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            spent = sum(t["allocation"] for r in records for t in r["tasks"].values())
            assert batches[name] == spent, name
        assert report["finetune_total_batches"] == batches[SEQUENTIAL]
        if stock:
            assert batches == {
                SEQUENTIAL: 888, INTERLEAVED_BALANCED: 888, INTERLEAVED_ADAPTIVE: 800
            }


@needs_fork
@pytest.mark.usefixtures("leaves_no_process_or_fd")
class TestParallelFinetunes:
    """The forgetting comparison's three fine-tunes are independent items of
    one ``forked_map``, each giving back its model's score row, its batch
    count and its trace text. The sequential item runs in this process: it
    plans the balanced budget, tunes the blocked baseline on it and scores
    the baseline, and gives the pretrained model's score row beside its
    own. On two or more CPUs the balanced and adaptive items run in a
    forked child each, tuning and scoring their model; on one CPU all
    three run here, in that order. The tree must be
    the one-CPU tree byte for byte, a failure must surface as the one-CPU
    run raises it, and no child or pipe may outlive the call."""

    def force_cpus(self, monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.mark.parametrize("seed", [3, 72025])
    def test_tree_bitwise_equal_on_any_cpu_count(self, monkeypatch, tmp_path, seed):
        trees = {}
        for cpus in (1, 2, 3, 4):
            self.force_cpus(monkeypatch, cpus)
            assert forking.cpu_workers(2) == min(cpus, 2)
            run_forgetting_comparison(forgetting_config(tmp_path / str(cpus), seed))
            trees[cpus] = tree_bytes(tmp_path / str(cpus))
        assert len(trees[1]) == 9
        assert trees[2] == trees[1]
        assert trees[3] == trees[1]
        assert trees[4] == trees[1]

    def fail(self, monkeypatch, shares):
        """Make share 0 fail in the sequential fine-tune, share 1 in the
        adaptive one, or both."""
        if 0 in shares:

            def failing_sequential(*args, **kwargs):
                raise ValueError("the sequential fine-tune failed")

            monkeypatch.setattr(experiments, "sequential_finetune", failing_sequential)
        if 1 in shares:
            run_epoch = Trainer.run_epoch

            def failing_epoch(self):
                if self.mode == ADAPTIVE:
                    raise NumericError("non-finite adaptive loss", layer=1)
                return run_epoch(self)

            monkeypatch.setattr(Trainer, "run_epoch", failing_epoch)

    @pytest.mark.parametrize(
        "shares, error, message",
        [
            ({0}, ValueError, "the sequential fine-tune failed"),
            ({1}, NumericError, "non-finite adaptive loss (layer 1)"),
            ({0, 1}, ValueError, "the sequential fine-tune failed"),
        ],
    )
    def test_failure_raises_as_on_one_cpu(self, monkeypatch, tmp_path, shares, error, message):
        self.fail(monkeypatch, shares)
        caught = {}
        for cpus in (1, 2):
            self.force_cpus(monkeypatch, cpus)
            with pytest.raises(error) as caught[cpus]:
                run_forgetting_comparison(forgetting_config(tmp_path / str(cpus)))
            assert type(caught[cpus].value) is error
            assert str(caught[cpus].value) == message
        # Only the pretraining's files are written before the fine-tunes.
        assert tree_bytes(tmp_path / "2") == tree_bytes(tmp_path / "1")
        assert sorted(tree_bytes(tmp_path / "1")) == [
            "checkpoints/encoder_pretrained.npz",
            "traces/pretrain.jsonl",
        ]
        assert caught[1].value.__cause__ is None
        cause = caught[2].value.__cause__
        if 0 in shares:
            assert cause is None  # share 0 ran in this process
        else:
            # The child's traceback reaches the frame that raised.
            assert isinstance(cause, forking._RemoteTraceback)
            assert "in failing_epoch" in str(cause)
            assert f"NumericError: {message}" in str(cause)
            assert caught[2].value.layer == 1

    @pytest.mark.parametrize("cpus, children", [(1, 0), (2, 2), (3, 2), (4, 2)])
    def test_one_child_per_interleaved_finetune(self, monkeypatch, tmp_path, cpus, children):
        self.force_cpus(monkeypatch, cpus)
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(forking.os, "fork", counting_fork)
        run_forgetting_comparison(forgetting_config(tmp_path))
        assert len(forks) == children

    def test_balanced_failure_raises_as_on_one_cpu(self, monkeypatch, tmp_path):
        run_epoch = Trainer.run_epoch

        def failing_epoch(self):
            if self.mode == BALANCED:
                raise NumericError("non-finite balanced loss", layer=0)
            return run_epoch(self)

        monkeypatch.setattr(Trainer, "run_epoch", failing_epoch)
        caught = {}
        for cpus in (1, 2):
            self.force_cpus(monkeypatch, cpus)
            with pytest.raises(NumericError) as caught[cpus]:
                run_forgetting_comparison(forgetting_config(tmp_path / str(cpus)))
            assert str(caught[cpus].value) == "non-finite balanced loss (layer 0)"
            assert caught[cpus].value.layer == 0
        assert tree_bytes(tmp_path / "2") == tree_bytes(tmp_path / "1")
        assert sorted(tree_bytes(tmp_path / "1")) == [
            "checkpoints/encoder_pretrained.npz",
            "traces/pretrain.jsonl",
        ]
        assert caught[1].value.__cause__ is None
        cause = caught[2].value.__cause__
        assert isinstance(cause, forking._RemoteTraceback)
        assert "in failing_epoch" in str(cause)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_this_process_fires_every_expected_span(self, monkeypatch, tmp_path, cpus):
        # The benchmark traces only this process, so the fine-tune kept here
        # must reach every span its worker predicts for the workload.
        worker = load_worker(monkeypatch.setitem)
        self.force_cpus(monkeypatch, cpus)
        counts = []
        for run_index in range(2):
            with worker.Tracer() as traced:
                # Looked up on the module so the tracer's wrapper runs.
                experiments.run_forgetting_comparison(
                    forgetting_config(tmp_path / str(run_index))
                )
            counts.append(traced.counts())
        fired = {name for name, calls in counts[0].items() if calls > 0}
        expected = {name for name, where in worker.EXPECTED_SPANS.items() if "forgetting" in where}
        assert fired == expected
        assert counts[1] == counts[0]

    def test_missing_steps_per_epoch_fails_before_any_file(self, tmp_path):
        config = forgetting_config(tmp_path / "out")
        config.curriculum.steps_per_epoch = None
        with pytest.raises(ValidationError, match="config.curriculum.steps_per_epoch"):
            run_forgetting_comparison(config)
        assert not (tmp_path / "out").exists()

    def test_empty_pretrain_task_fails_before_any_file(self, tmp_path):
        config = forgetting_config(tmp_path / "out")
        config.forgetting.pretrain_task = ""
        with pytest.raises(ValidationError, match="config.forgetting.pretrain_task"):
            run_forgetting_comparison(config)
        assert not (tmp_path / "out").exists()


@needs_fork
@pytest.mark.usefixtures("leaves_no_process_or_fd")
class TestParallelGeometry:
    """The geometry suite's window probes run on forked workers while this
    process runs the suite's other analyses as item 0 of the same map. The
    tree must be the one-CPU tree byte for byte, and every span the
    benchmark expects must fire in this process, the same number of times
    on any number of CPUs."""

    def force_cpus(self, monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_tree_bitwise_equal_on_any_cpu_count(self, monkeypatch, tmp_path):
        trees = {}
        out = tmp_path / "out"
        for cpus in (1, 2, 3):
            self.force_cpus(monkeypatch, cpus)
            # One directory for every run, since config.json records it.
            shutil.rmtree(out, ignore_errors=True)
            run(default_config(), output_dir=out)
            trees[cpus] = tree_bytes(out)
        assert "geometry/probe_window.csv" in trees[1]
        assert trees[2] == trees[1]
        assert trees[3] == trees[1]

    def test_this_process_fires_every_expected_span(self, monkeypatch, tmp_path):
        # The benchmark traces only this process, so the analyses that run
        # alongside the windows must stay here.
        worker = load_worker(monkeypatch.setitem)
        counts = {}
        for cpus in (1, 2):
            self.force_cpus(monkeypatch, cpus)
            config = worker.build_config("pipeline", 72025, tmp_path / str(cpus))
            with worker.Tracer() as traced:
                # Looked up on the module so the tracer's wrapper runs.
                experiments.run(config)
            counts[cpus] = traced.counts()
        fired = {name for name, calls in counts[1].items() if calls > 0}
        expected = {name for name, where in worker.EXPECTED_SPANS.items() if "pipeline" in where}
        assert fired == expected
        assert counts[2] == counts[1]


class TestTracerSpans:
    def test_every_span_resolves(self, monkeypatch):
        tracer = load_tracer(monkeypatch.setitem)
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


class TestWriterSpans:
    """The benchmark tracer wraps ``datagen.Corpus.save`` and
    ``encoder.save_checkpoint``; both pipelines must still reach them, as
    ``perfbench/worker.py``'s ``EXPECTED_SPANS`` predicts."""

    @pytest.mark.parametrize(
        "pipeline, corpus_saves",
        [(run, 2), (run_forgetting_comparison, 0)],
    )
    def test_save_spans_fire(self, monkeypatch, tmp_path, pipeline, corpus_saves):
        tracer = load_tracer(monkeypatch.setitem)
        config = small_config()
        config.output_dir = str(tmp_path / "out")
        config.training.epochs = 1
        config.evaluation.suites = ["scores"]
        config.evaluation.verification_pairs = 100
        config.forgetting.pretrain_steps = 2
        config.forgetting.finetune_epochs = 1
        with tracer.Tracer() as traced:
            pipeline(config)
        counts = traced.counts()
        assert counts["datagen.Corpus.save"] == corpus_saves
        assert counts["encoder.save_checkpoint"] == 1


class TestBenchmarkConfigs:
    """Every benchmark workload's config validates, so a stricter
    ``validate`` cannot break the benchmark at set-up unseen."""

    WORKLOADS = ("pipeline", "forgetting", "scale-scores")

    @pytest.mark.parametrize("seed", [1, 72025])
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_builds_and_validates(self, monkeypatch, tmp_path, workload, seed):
        worker = load_worker(monkeypatch.setitem)
        assert worker.WORKLOADS == self.WORKLOADS
        config = worker.build_config(workload, seed, tmp_path / "out")
        config.validate()
        assert not (tmp_path / "out").exists()


class TestStepSpans:
    """A step still reaches every encoder span through the module namespaces
    the benchmark tracer wraps: one kernel call per step, and one more
    ``embed`` and ``hardest_distances`` for the accuracy pass."""

    @pytest.mark.parametrize("cadence, accuracy_passes", [(10**6, 0), (1, 1)])
    def test_one_step(self, monkeypatch, cadence, accuracy_passes):
        tracer = load_tracer(monkeypatch.setitem)
        config = small_config()
        config.curriculum.accuracy_cadence = cadence
        train, _ = build_splits(config)
        seed = derive_seed(config.seed, "t")
        trainer = Trainer(config, BALANCED, train.tasks, init_encoder(config), seed)
        with tracer.Tracer() as traced:
            trainer.train_step()
        counts = traced.counts()
        assert counts["curriculum.Trainer.train_step"] == 1
        assert counts["encoder.batch_hard_triplet"] == 1
        assert counts["encoder.backward"] == 1
        assert counts["encoder.adam_step"] == 1
        assert counts["encoder.embed"] == accuracy_passes
        assert counts["encoder.hardest_distances"] == 1 + accuracy_passes
