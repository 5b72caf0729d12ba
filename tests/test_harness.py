"""Config parsing, the experiment runner, artifact layout, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import taskweave
from taskweave.cli import main
from taskweave.config import ExperimentConfig, default_config
from taskweave.errors import ContractError, ValidationError
from taskweave.experiments import (
    PairPlan,
    TaskPairs,
    _cosine_auc_eval,
    _sample_pairs,
    build_splits,
    bundled_reference_table,
    evaluate_row,
    init_encoder,
    run,
    run_forgetting_comparison,
    score_paper_table,
)
from taskweave.metrics import ScoreTable
from taskweave.seeding import stream


def tiny_config(output_dir, seed=13) -> ExperimentConfig:
    """A fast benchmark: 4 small tasks, 1 epoch, small encoder."""
    config = default_config(output_dir=str(output_dir), seed=seed)
    for task in config.tasks:
        object.__setattr__(task, "classes", 6 if task.regime == "coarse-category" else 10)
        object.__setattr__(task, "samples_per_class", 8)
    config.encoder.hidden_dims = [16]
    config.encoder.embedding_dim = 8
    config.batch.identities = 4
    config.batch.positives = 4
    config.training.epochs = 1
    config.evaluation.verification_pairs = 200
    config.evaluation.probe_folds = 4
    config.evaluation.projection_max_pcs = 8
    config.forgetting.pretrain_steps = 10
    config.forgetting.finetune_epochs = 1
    config.validate()
    return config


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = default_config(output_dir=str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_file(path)
        assert loaded.to_dict() == config.to_dict()

    def test_unknown_top_level_key(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["typo_section"] = {}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="typo_section"):
            ExperimentConfig.from_file(path)

    def test_unknown_nested_key(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["optimizer"]["learning_rat"] = 1.0
        del payload["optimizer"]["learning_rate"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="learning_rat"):
            ExperimentConfig.from_file(path)

    def test_unknown_mode(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["curriculum"]["mode"] = "round-robin"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="mode"):
            ExperimentConfig.from_file(path)

    def test_wrong_schema_version(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["schema_version"] = 99
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="schema_version"):
            ExperimentConfig.from_file(path)

    def test_goal_for_unknown_task(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["curriculum"]["goals"]["ghost_task"] = 0.9
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="ghost_task"):
            ExperimentConfig.from_file(path)


class TestRun:
    def test_artifact_tree_and_summary(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        result = run(config)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for artifact in summary["artifacts"]:
            assert (tmp_path / "out" / artifact).exists(), artifact
        assert (tmp_path / "out" / "tables" / "metrics.csv").exists()
        assert (tmp_path / "out" / "traces" / "scheduler.jsonl").exists()
        assert result.results["scores"]

    def test_scores_only_suite(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        run(config)
        assert not (tmp_path / "out" / "geometry").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config_a = tiny_config(tmp_path / "a")
        config_b = tiny_config(tmp_path / "b")
        run(config_a)
        run(config_b)
        for rel in ("tables/metrics.csv", "traces/scheduler.jsonl"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_adaptive_mode_runs(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.curriculum.mode = "adaptive"
        config.curriculum.steps_per_epoch = 3
        config.evaluation.suites = ["scores"]
        result = run(config)
        trace = (tmp_path / "out" / "traces" / "scheduler.jsonl").read_text().splitlines()
        assert len(trace) == 3
        record = json.loads(trace[0])
        assert record["mode"] == "adaptive"
        assert all(e["probability"] is not None for e in record["tasks"].values())

    def test_corpus_files_not_mutated_by_eval(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        run(config)
        manifest = tmp_path / "out" / "corpus" / "manifest.json"
        before = manifest.read_bytes()
        from taskweave.encoder import load_checkpoint
        from taskweave.experiments import build_splits, evaluate_row

        train_corpus, eval_corpus = build_splits(config)
        params = load_checkpoint(tmp_path / "out" / "checkpoints" / "encoder_final.npz")
        evaluate_row(params, train_corpus, eval_corpus, config)
        assert manifest.read_bytes() == before

    def test_seed_override_leaves_config_unchanged(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        before = config.to_dict()
        run(config, seed=99)
        assert config.to_dict() == before
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 99


class TestProjectedAuc:
    def test_zero_norm_projected_row_raises(self):
        pairs = TaskPairs(genuine=np.array([[0, 1]]), impostor=np.array([[0, 2]]))
        evaluate = _cosine_auc_eval(pairs)
        coords = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        assert evaluate(coords) == 1.0
        coords[2] = 0.0
        with pytest.raises(ContractError, match="zero norm"):
            evaluate(coords)


def choice_loop_pairs(labels, n_pairs, rng):
    """The plain sampler: every draw a ``Generator.choice`` call."""
    classes = np.unique(labels)
    members = {int(c): np.flatnonzero(labels == c) for c in classes}
    eligible = [c for c in classes if members[int(c)].size >= 2]
    genuine = np.empty((n_pairs, 2), dtype=int)
    for i in range(n_pairs):
        c = int(rng.choice(eligible))
        genuine[i] = rng.choice(members[c], size=2, replace=False)
    impostor = np.empty((n_pairs, 2), dtype=int)
    for i in range(n_pairs):
        a, b = rng.choice(classes, size=2, replace=False)
        impostor[i, 0] = rng.choice(members[int(a)])
        impostor[i, 1] = rng.choice(members[int(b)])
    return genuine, impostor


class TestPairSampler:
    LAYOUTS = {
        "balanced": np.repeat(np.arange(6), 5),
        "singleton_class": np.array([0, 0, 0, 1, 2, 2, 3, 3, 3, 3]),
        "uneven_shuffled": np.random.default_rng(7).permutation(
            np.repeat([4, 9, 11, 30], [2, 7, 1, 13])
        ),
        "two_classes": np.array([1, 0, 1, 0]),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_choice_loop(self, layout, seed):
        labels = self.LAYOUTS[layout]
        expected = choice_loop_pairs(labels, 300, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        got = _sample_pairs(labels, 300, rng)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        # Both samplers leave the stream at the same point.
        reference = np.random.default_rng(seed)
        choice_loop_pairs(labels, 300, reference)
        assert rng.integers(0, 2**62) == reference.integers(0, 2**62)

    def test_singleton_class_never_forms_a_genuine_pair(self):
        labels = self.LAYOUTS["singleton_class"]
        genuine, impostor = _sample_pairs(labels, 500, np.random.default_rng(0))
        assert (labels[genuine[:, 0]] == labels[genuine[:, 1]]).all()
        assert (genuine[:, 0] != genuine[:, 1]).all()
        assert not (labels[genuine] == 1).any()
        assert (labels[impostor[:, 0]] != labels[impostor[:, 1]]).all()
        assert (labels[impostor] == 1).any()


class TestPairPlan:
    def test_lazy_draws_match_eager_per_task_streams(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        _, eval_corpus = build_splits(config)
        plan = PairPlan(eval_corpus, config)
        names = list(eval_corpus.tasks)
        assert list(plan) == names and len(plan) == len(names)
        assert names[0] in plan and "unknown" not in plan
        assert plan._drawn == {}
        # Access order does not matter: each task has its own stream.
        for name in reversed(names):
            rng = stream(config.seed, "pairs", name)
            genuine, impostor = _sample_pairs(
                eval_corpus.tasks[name].labels, config.evaluation.verification_pairs, rng
            )
            np.testing.assert_array_equal(plan[name].genuine, genuine)
            np.testing.assert_array_equal(plan[name].impostor, impostor)
        assert plan[names[0]] is plan[names[0]]
        with pytest.raises(KeyError):
            plan["unknown"]

    def test_unscored_task_is_never_drawn(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        train_corpus, eval_corpus = build_splits(config)
        plan = PairPlan(eval_corpus, config)
        params, _ = init_encoder(config)
        evaluate_row(params, train_corpus, eval_corpus, config, plan)
        coarse = {n for n, d in eval_corpus.tasks.items() if d.regime == "coarse-category"}
        assert coarse and set(plan._drawn) == set(eval_corpus.tasks) - coarse


def test_import_skips_scipy_optimize():
    src = str(Path(taskweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, taskweave.experiments; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestForgettingComparison:
    def test_seed_override_leaves_config_unchanged(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.forgetting.finetune_epochs = 0
        before = config.to_dict()
        run_forgetting_comparison(config, seed=99)
        assert config.to_dict() == before

    def test_zero_finetune_leaves_models_identical(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.forgetting.finetune_epochs = 0
        result = run_forgetting_comparison(config)
        models = result.results["models"]
        assert set(models) == {"sequential", "interleaved-balanced", "interleaved-adaptive"}
        for stats in models.values():
            assert stats["pretrain_task_drop"] == 0.0
            assert stats["multitask_index_expert"] == 0.0

    def test_report_shape(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        run_forgetting_comparison(config)
        table = ScoreTable.from_csv(tmp_path / "out" / "tables" / "forgetting_scores.csv")
        assert len(table.models) == 3
        assert len(table.columns) >= 8
        assert not np.isnan(table.values).any()
        indexed = (tmp_path / "out" / "tables" / "forgetting_scores_indexed.csv").read_text()
        header = indexed.splitlines()[0].split(",")
        assert header[-1] == "multitask_index_expert"
        assert len(indexed.splitlines()) == 4


class TestSubsample:
    def test_subsample_fraction_shrinks_loader(self, tmp_path):
        from taskweave.experiments import build_splits, init_encoder, make_trainer

        config = tiny_config(tmp_path / "out")
        config.curriculum.subsample = {"persons": 0.5}
        train_corpus, _ = build_splits(config)
        params, opt_state = init_encoder(config)
        trainer = make_trainer(config, "balanced", train_corpus.tasks, params, opt_state, "t")
        full = train_corpus.tasks["persons"].n_samples
        assert trainer.loaders["persons"].size == full // 2
        assert trainer.loaders["objects"].size == train_corpus.tasks["objects"].n_samples


class TestScoreTableScoring:
    def test_row_of_maxima_ranks_first(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "model,c1,c2\nbest,0.9,0.8\nother,0.5,0.8\n"
        )
        ranking = score_paper_table(path, "expert")
        assert ranking[0] == ("best", 0.0)

    def test_bundled_table_expert_ordering(self):
        ranking = score_paper_table(bundled_reference_table(), "expert")
        top_two = {model for model, _ in ranking[:2]}
        assert top_two == {"EVA02+IMIC-A", "EVA02+IMIC-B"}

    def test_bundled_table_human_signs(self):
        table = ScoreTable.from_csv(bundled_reference_table())
        ranking = dict(score_paper_table(bundled_reference_table(), "human"))
        assert ranking["EVA02+IMIC-A"] > 0
        assert ranking["EVA02+IMIC-B"] > 0
        for model, group in table.groups.items():
            if group == "zeroshot":
                assert ranking[model] < 0


class TestCli:
    def write_config(self, tmp_path) -> Path:
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        return path

    def test_gen(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["gen", "-c", str(self.write_config(tmp_path))])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "corpus" / "manifest.json").exists()

    def test_train_then_eval_and_analyze(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        result = runner.invoke(main, ["train", "-c", str(config)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["eval", "-c", str(config)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["analyze", "-c", str(config)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "geometry" / "principal_angles.csv").exists()

    def test_eval_without_checkpoint_fails_cleanly(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["eval", "-c", str(self.write_config(tmp_path))])
        assert result.exit_code == 2
        assert "checkpoint" in result.output

    def test_invalid_config_exit_code_and_no_artifacts(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path / "out")).to_dict()
        payload["curriculum"]["mode"] = "bogus"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        runner = CliRunner()
        result = runner.invoke(main, ["train", "-c", str(path)])
        assert result.exit_code == 2
        assert "mode" in result.output
        assert not (tmp_path / "out").exists()

    def test_numeric_failure_exit_code(self, tmp_path):
        # Non-finite parameters must surface as the numeric-error exit status.
        runner = CliRunner()
        config_path = self.write_config(tmp_path)
        assert runner.invoke(main, ["train", "-c", str(config_path)]).exit_code == 0
        ckpt = tmp_path / "out" / "checkpoints" / "encoder_final.npz"
        data = dict(np.load(ckpt))
        data["w0"][0, 0] = np.inf
        np.savez(ckpt, **data)
        result = runner.invoke(main, ["eval", "-c", str(config_path)])
        assert result.exit_code == 3
        assert "non-finite" in result.output

    def test_score_table_default(self):
        runner = CliRunner()
        result = runner.invoke(main, ["score-table", "--mode", "expert"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0].split()[1].startswith("EVA02+IMIC")

    def test_seed_override(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        result = runner.invoke(
            main, ["gen", "-c", str(config), "--seed", "777", "-o", str(tmp_path / "o2")]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o2" / "corpus" / "manifest.json").read_text())
        base = json.loads((Path(tmp_path) / "config.json").read_text())
        assert manifest["seed"] != base["seed"]
