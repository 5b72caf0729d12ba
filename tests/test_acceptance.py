"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from taskweave.config import default_config
from taskweave.curriculum import (
    Trainer,
    distance_from_goal,
    relative_improvement,
    task_scores_to_probabilities,
)
from taskweave.datagen import Loader
from taskweave.encoder import (
    GradBuffer,
    _forward,
    backward,
    batch_hard_triplet,
    embed,
    init_params,
)
from taskweave.experiments import (
    build_splits,
    bundled_reference_table,
    init_encoder,
    run,
    run_forgetting_comparison,
    score_paper_table,
    verification_pair_plan,
)
from taskweave.geometry import Subspace, linear_task_probe, pca, principal_angles, projection_sweep
from taskweave.metrics import ScoreTable, multitask_index, roc_auc
from taskweave.seeding import derive_seed, stream


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


@pytest.fixture(scope="module")
def benchmark_model(tmp_path_factory):
    """Balanced-curriculum training on the default benchmark (5 epochs),
    shared by the separability and reconstruction criteria."""
    config = default_config(output_dir=str(tmp_path_factory.mktemp("benchmark")))
    train_corpus, eval_corpus = build_splits(config)
    params = init_encoder(config)
    seed = derive_seed(config.seed, "train")
    trainer = Trainer(config, "balanced", train_corpus.tasks, params, seed)
    for _ in range(config.training.epochs * config.curriculum.steps_per_epoch):
        trainer.train_step()
    return config, eval_corpus, params


def test_criterion_1_scheduler_conformance():
    with criterion(1, "two-stage normalization floor/sum over 1000 random score vectors"):
        rng = np.random.default_rng(160_493)
        start = time.perf_counter()
        for _ in range(1000):
            scores = rng.uniform(0.0, 10.0, 4) * rng.integers(0, 2, 4)
            p = task_scores_to_probabilities(scores, 0.05)
            assert p.min() >= 0.05 - 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(
            task_scores_to_probabilities([0.97, 0.01, 0.01, 0.01], 0.05),
            [0.85, 0.05, 0.05, 0.05],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            task_scores_to_probabilities([1.0, 0.0, 0.0, 0.0], 0.05),
            [0.85, 0.05, 0.05, 0.05],
            atol=1e-12,
        )
        assert elapsed < 1.0, f"conformance sweep took {elapsed:.3f}s"


def test_criterion_2_formula_unit_suite():
    with criterion(2, "improvement/distance/score and index formulas match hand values to 1e-12"):
        eps = 1e-8
        assert abs(relative_improvement(0.5, 0.6, 2, eps) - (0.1 + eps)) < 1e-12
        assert abs(relative_improvement(0.7, 0.7, 3, eps) - eps) < 1e-12
        assert abs(relative_improvement(0.8, 0.6, 1, eps) - (0.25 + eps)) < 1e-12
        assert abs(distance_from_goal(0.9, 0.45) - 0.5) < 1e-12
        assert abs(distance_from_goal(0.8, 0.8)) < 1e-12
        assert abs(distance_from_goal(0.8, 0.95)) < 1e-12
        improvement = relative_improvement(0.5, 0.6, 2, eps)
        shortfall = distance_from_goal(0.9, 0.45)
        assert abs(shortfall / improvement - 0.5 / (0.1 + eps)) < 1e-12
        # Reference-relative index: at-reference rows score 0, and the
        # two-column hand case averages (-0.5, 1.0) to 0.25.
        assert abs(multitask_index([0.9, 0.7], [0.9, 0.7])) < 1e-12
        assert abs(multitask_index([0.5, 1.0], [1.0, 0.5]) - 0.25) < 1e-12
        table = ScoreTable(
            models=["top", "mid"],
            columns=["a", "b"],
            values=np.array([[0.8, 0.6], [0.4, 0.3]]),
        )
        assert abs(table.index_for("top", "expert")) < 1e-12
        assert abs(table.index_for("mid", "expert") - (-0.5)) < 1e-12
        assert abs(table.index_for("mid", "human", {"a": 0.4, "b": 0.3})) < 1e-12


def test_criterion_3_gradient_oracle():
    with criterion(3, "full-pipeline parameter gradients match finite differences < 1e-4"):
        start = time.perf_counter()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params([5, 7, 4], rng)
            x = rng.standard_normal((12, 5))
            ids = np.repeat(np.arange(4), 3)

            emb = embed(params, x)
            _, grad_emb = batch_hard_triplet(emb, ids, 0.35)
            buffer = GradBuffer.zeros_like(params)
            backward(params, _forward(params, x), grad_emb, buffer)
            analytic = buffer.flat

            fd = np.zeros_like(analytic)
            h = 1e-6
            k = 0
            for arr in params.weights + params.biases:
                flat = arr.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = batch_hard_triplet(embed(params, x), ids, 0.35)[0]
                    flat[i] = orig - h
                    down = batch_hard_triplet(embed(params, x), ids, 0.35)[0]
                    flat[i] = orig
                    fd[k] = (up - down) / (2 * h)
                    k += 1
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel < 1e-4, f"seed {seed}: relative error {rel:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s"


def test_criterion_4_gradient_coupling_identity():
    with criterion(4, "summed buffer equals elementwise sum of per-batch gradients within 1e-12"):
        config = default_config(output_dir="unused")
        train_corpus, _ = build_splits(config)
        params = init_encoder(config)
        batches = []
        for name, data in train_corpus.tasks.items():
            loader = Loader(data, stream(41, "coupling", name))
            batches.append(loader.next_batch(config.batch.identities, config.batch.positives))

        coupled = GradBuffer.zeros_like(params)
        singles = []
        for batch in batches:
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, config.margin)
            backward(params, _forward(params, batch.features), grad_emb, coupled)
            solo = GradBuffer.zeros_like(params)
            backward(params, _forward(params, batch.features), grad_emb, solo)
            singles.append(solo.flat)
        assert coupled.accumulation_count == len(batches)
        np.testing.assert_allclose(coupled.flat, np.sum(singles, axis=0), rtol=0, atol=1e-12)


def test_criterion_5_benchmark_table_indices():
    with criterion(5, "published-table indices: interleaved models top-2 (expert), sign split (human)"):
        expert = score_paper_table(bundled_reference_table(), "expert")
        assert {model for model, _ in expert[:2]} == {"EVA02+IMIC-A", "EVA02+IMIC-B"}
        table = ScoreTable.from_csv(bundled_reference_table())
        zeroshot = {m for m, g in table.groups.items() if g == "zeroshot"}
        expert_values = dict(expert)
        top_two_floor = min(expert_values["EVA02+IMIC-A"], expert_values["EVA02+IMIC-B"])
        assert all(expert_values[m] < top_two_floor for m in zeroshot)

        human = dict(score_paper_table(bundled_reference_table(), "human"))
        assert human["EVA02+IMIC-A"] > 0
        assert human["EVA02+IMIC-B"] > 0
        assert all(human[m] < 0 for m in zeroshot)
        print("  expert ranking:", [(m, round(v, 5)) for m, v in expert])


def test_criterion_6_forgetting_comparison(tmp_path):
    with criterion(6, "sequential pretrain-task drop >= 2x balanced; interleaved indices higher"):
        config = default_config(output_dir=str(tmp_path / "forgetting"))
        start = time.perf_counter()
        result = run_forgetting_comparison(config)
        elapsed = time.perf_counter() - start
        models = result.results["models"]
        seq = models["sequential"]
        bal = models["interleaved-balanced"]
        ada = models["interleaved-adaptive"]
        print(
            f"  drops: sequential {seq['pretrain_task_drop']:+.4f}, "
            f"balanced {bal['pretrain_task_drop']:+.4f}, adaptive {ada['pretrain_task_drop']:+.4f}"
        )
        print(
            f"  expert indices: sequential {seq['multitask_index_expert']:+.4f}, "
            f"balanced {bal['multitask_index_expert']:+.4f}, adaptive {ada['multitask_index_expert']:+.4f}"
        )
        assert seq["pretrain_task_drop"] >= 2.0 * bal["pretrain_task_drop"]
        assert bal["multitask_index_expert"] > seq["multitask_index_expert"]
        assert ada["multitask_index_expert"] > seq["multitask_index_expert"]
        assert elapsed < 300.0, f"forgetting comparison took {elapsed:.1f}s"


def test_criterion_7_linear_separability(benchmark_model):
    with criterion(7, "10-fold linear task probe >= 95% after balanced training"):
        _, eval_corpus, params = benchmark_model
        names = list(eval_corpus.tasks)
        pooled = np.vstack([embed(params, eval_corpus.tasks[n].features) for n in names])
        tags = np.concatenate(
            [np.full(eval_corpus.tasks[n].n_samples, i) for i, n in enumerate(names)]
        )
        mean, std = linear_task_probe(pooled, tags, folds=10)
        print(f"  task probe accuracy: {mean:.4f} +/- {std:.4f}")
        assert mean >= 0.95


def test_criterion_8_principal_angle_analytics():
    with criterion(8, "constructed subspace pairs give exact canonical angles within 1e-8"):
        rng = np.random.default_rng(3)
        space = pca(rng.standard_normal((40, 6)))
        assert (principal_angles(space, space) < 1e-8).all()

        def axes(dim, *indices):
            basis = np.zeros((dim, len(indices)))
            for col, idx in enumerate(indices):
                basis[idx, col] = 1.0
            return Subspace(basis, np.ones(len(indices)), np.zeros(dim))

        orthogonal = principal_angles(axes(4, 0, 1), axes(4, 2, 3))
        np.testing.assert_allclose(orthogonal, np.pi / 2, atol=1e-8)

        tilted = np.zeros((4, 2))
        tilted[0, 0] = 1.0
        tilted[1, 1] = tilted[2, 1] = 1.0 / np.sqrt(2.0)
        shared = principal_angles(axes(4, 0, 1), Subspace(tilted, np.ones(2), np.zeros(4)))
        np.testing.assert_allclose(shared, [0.0, np.pi / 4], atol=1e-8)


def test_criterion_9_subspace_reconstruction(benchmark_model):
    with criterion(9, "full cross-task basis preserves AUC to 1e-10; analog curves reported"):
        config, eval_corpus, params = benchmark_model
        plan = {n: verification_pair_plan(d, config) for n, d in eval_corpus.tasks.items()}
        names = list(eval_corpus.tasks)
        emb = {n: embed(params, eval_corpus.tasks[n].features) for n in names}

        def auc_eval(task):
            pairs = plan[task]

            def closure(coords):
                normed = coords / np.linalg.norm(coords, axis=1, keepdims=True)
                genuine = np.einsum(
                    "ij,ij->i", normed[pairs.genuine[:, 0]], normed[pairs.genuine[:, 1]]
                )
                impostor = np.einsum(
                    "ij,ij->i", normed[pairs.impostor[:, 0]], normed[pairs.impostor[:, 1]]
                )
                return roc_auc(genuine, impostor)

            return closure

        first_within = {}
        for src in names:
            basis = pca(emb[src], center=False)
            for tgt in names:
                if tgt == src:
                    continue
                sweep = projection_sweep(basis, emb[tgt], auc_eval(tgt), max_k=200)
                final_delta = sweep[-1][2]
                assert sweep[-1][0] == basis.dim
                assert abs(final_delta) < 1e-10, f"{src}->{tgt}: {final_delta:.2e}"
                hit = next((k for k, _, d in sweep if abs(d) <= 0.02), None)
                first_within[f"{src}->{tgt}"] = hit
        assert all(k is not None for k in first_within.values())
        print("  first k with cross-task AUC delta within 0.02:")
        for pair, k in first_within.items():
            print(f"    {pair}: {k}")


def test_criterion_10_run_determinism(tmp_path):
    with criterion(10, "identical (config, seed) reproduces byte-identical tables and traces"):
        def reduced(out):
            config = default_config(output_dir=str(out))
            config.training.epochs = 1
            config.evaluation.verification_pairs = 300
            config.evaluation.projection_max_pcs = 24
            return config

        run(reduced(tmp_path / "a"))
        run(reduced(tmp_path / "b"))
        compared = 0
        for rel in ["tables/metrics.csv", "traces/scheduler.jsonl"] + [
            p.relative_to(tmp_path / "a").as_posix()
            for p in (tmp_path / "a" / "geometry").glob("*.csv")
        ]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
            compared += 1
        assert compared >= 6
        summary_a = json.loads((tmp_path / "a" / "summary.json").read_text())
        summary_b = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary_a["results"] == summary_b["results"]
