"""Config parsing, the experiment runner, artifact layout, and the CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import taskweave
from taskweave.cli import main
from taskweave.config import ExperimentConfig, default_config
from taskweave.errors import ConfigurationError, ContractError, NumericError, ValidationError
from taskweave.experiments import (
    RunResult,
    TaskPairs,
    _compare_forgetting,
    _cosine_auc_eval,
    _sample_pairs,
    build_splits,
    bundled_reference_table,
    evaluate_row,
    init_encoder,
    rows_to_table,
    run,
    run_forgetting_comparison,
    score_paper_table,
    verification_pair_plan,
)
from taskweave.metrics import ScoreTable
from taskweave.seeding import stream


# The fields of a task entry that have no default.
REQUIRED_TASK_FIELDS = ["name", "regime", "classes", "samples_per_class", "within_class_spread"]


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

    @pytest.mark.parametrize(
        "section",
        ["encoder", "optimizer", "batch", "curriculum", "training", "evaluation", "forgetting"],
    )
    def test_unknown_key_in_every_section(self, tmp_path, section):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload[section]["stray_key"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=rf"stray_key.*config\.{section}$"):
            ExperimentConfig.from_file(path)

    def test_unknown_task_key_names_its_path(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["corpus"]["tasks"][2]["colour"] = "red"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=r"colour.*config\.corpus\.tasks\[2\]"):
            ExperimentConfig.from_file(path)

    # A missing field used to escape the loader as a bare TypeError from
    # the TaskGenSpec constructor.
    @pytest.mark.parametrize("field", REQUIRED_TASK_FIELDS)
    def test_missing_task_field_names_its_path(self, tmp_path, field):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        del payload["corpus"]["tasks"][1][field]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=re.escape(f"config.corpus.tasks[1].{field}")):
            ExperimentConfig.from_file(path)

    def test_unknown_evaluation_suite(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["evaluation"]["suites"] = ["scores", "vibes"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="vibes"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("name", ["per,sons", 'per"sons', "per\rsons", "per\nsons"])
    def test_csv_unsafe_task_name_rejected_at_load(self, tmp_path, name):
        # Task names become CSV cells and file names; the loader rejects an
        # unsafe one before any training is paid for.
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["corpus"]["tasks"][3]["name"] = name
        payload["curriculum"]["goals"][name] = payload["curriculum"]["goals"].pop("persons")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="must not contain"):
            ExperimentConfig.from_file(path)

    def test_task_entries_list_every_spec_field(self, tmp_path):
        config = default_config(output_dir=str(tmp_path))
        expected = {
            "name",
            "regime",
            "classes",
            "samples_per_class",
            "within_class_spread",
            "between_class_spread",
            "degradation_noise",
            "twin",
        }
        assert all(set(t) == expected for t in config.to_dict()["corpus"]["tasks"])
        train, _ = build_splits(config)
        train.save(RunResult(tmp_path), "corpus")
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        for entry in manifest["tasks"]:
            assert set(entry) == expected | {"shape", "labels", "file"}

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_int(self, tmp_path, seed):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["seed"] = seed
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "field", ["pretrain_steps", "pretrain_batches_per_step", "finetune_epochs"]
    )
    @pytest.mark.parametrize("value", [0, -3, 1.5, True, "2"])
    def test_forgetting_counts_must_be_positive_ints(self, tmp_path, field, value):
        # Zero steps or epochs used to run to completion with empty traces
        # and every pretrain_task_drop at 0.0.
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["forgetting"][field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"config.forgetting.{field}"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("folds", [1, 0, -1, True, 4.0])
    def test_probe_folds_must_be_at_least_two(self, tmp_path, folds):
        config = default_config(output_dir=str(tmp_path))
        config.evaluation.probe_folds = folds
        with pytest.raises(ValidationError, match="config.evaluation.probe_folds"):
            config.validate()

    def test_probe_window_must_fit_the_embedding(self, tmp_path):
        config = default_config(output_dir=str(tmp_path))
        dim = config.encoder.embedding_dim
        for window in (1, dim):
            config.evaluation.probe_window = window
            config.validate()
        for window in (0, dim + 1, True):
            config.evaluation.probe_window = window
            with pytest.raises(ValidationError, match="config.evaluation.probe_window"):
                config.validate()

    # One id per batch mined a same-id row as the "negative"; 0 ids divided
    # by zero; 11 ids (one more than the 10 objects classes), one positive
    # per id and a bool passed validation and failed at the first step.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("identities", 1),
            ("identities", 0),
            ("identities", 11),
            ("identities", True),
            ("identities", 4.0),
            ("positives", 1),
            ("positives", 0),
            ("positives", True),
            ("positives", 4.0),
        ],
    )
    def test_batch_shape_must_give_positives_and_negatives(self, tmp_path, field, value):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["batch"][field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=rf"config\.batch\.{field}"):
            ExperimentConfig.from_file(path)

    def test_identities_may_reach_the_smallest_class_count(self, tmp_path):
        config = default_config(output_dir=str(tmp_path))
        fewest = min(t.classes for t in config.tasks)
        for identities in (2, fewest):
            config.batch.identities = identities
            config.validate()

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("training", "epochs", 0),
            ("training", "epochs", 1.5),
            ("curriculum", "steps_per_epoch", 0),
            ("curriculum", "steps_per_epoch", True),
            ("evaluation", "verification_pairs", 0),
            ("evaluation", "verification_pairs", 4),
            ("evaluation", "far_values", [1.5]),
            ("evaluation", "far_values", [0.0]),
            ("evaluation", "far_values", [0.01, 0.01]),
            ("evaluation", "far_values", [True]),
            ("evaluation", "far_values", 0.01),
        ],
    )
    def test_settings_that_fail_after_training_are_rejected(
        self, tmp_path, section, field, value
    ):
        # Each of these used to validate: zero epochs or steps wrote a
        # complete-looking run of an untrained encoder, and the scoring
        # settings raised ContractError after training, leaving a partial
        # tree.
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload[section][field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=f"config.{section}.{field}"):
            ExperimentConfig.from_file(path)

    # A number written as a JSON string used to raise a bare TypeError
    # inside validate() (epsilon, subsample, variance_fraction, ambient_dim)
    # or pass unchecked (the optimizer's fields, margin).
    @pytest.mark.parametrize(
        "where, value",
        [
            ("curriculum.epsilon", "1e-8"),
            ("curriculum.subsample", {"persons": "0.5"}),
            ("curriculum.goals", {"objects": "0.95"}),
            ("curriculum.total_batches", "8"),
            ("evaluation.variance_fraction", "0.9"),
            ("evaluation.far_values", ["0.01"]),
            ("optimizer.learning_rate", "0.1"),
            ("optimizer.beta1", True),
            ("optimizer.learning_rate", False),
            ("encoder.hidden_dims", [48.0]),
            ("encoder.embedding_dim", "24"),
            ("corpus.tasks[0].classes", "10"),
            ("corpus.tasks[0].within_class_spread", None),
            ("corpus.ambient_dim", "24"),
            ("margin", "0.35"),
            ("output_dir", 5),
        ],
    )
    def test_values_must_have_their_field_types(self, tmp_path, where, value):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        *keys, field = re.split(r"\.|\[", where.replace("]", ""))
        target = payload
        for key in keys:
            target = target[int(key) if key.isdigit() else key]
        target[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=re.escape(f"config.{where} must be of type")):
            ExperimentConfig.from_file(path)

    def test_an_integer_is_a_number(self, tmp_path):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["optimizer"].update(learning_rate=1, beta1=0, weight_decay=0)
        payload["evaluation"]["variance_fraction"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        loaded = ExperimentConfig.from_file(path)
        assert loaded.optimizer.learning_rate == 1 and loaded.evaluation.variance_fraction == 1

    def test_smallest_scoring_settings_run(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.curriculum.steps_per_epoch = None
        config.evaluation.verification_pairs = 5
        config.evaluation.far_values = [0.5]
        config.evaluation.suites = ["scores"]
        config.validate()
        run(config)
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_adaptive_without_steps_per_epoch_fails_before_any_file(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.curriculum.mode = "adaptive"
        config.curriculum.steps_per_epoch = None
        with pytest.raises(ValidationError, match="config.curriculum.steps_per_epoch"):
            run(config)
        assert not (tmp_path / "out").exists()

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


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def set_field(config: ExperimentConfig, where: str, value) -> None:
    """Set the field that the loader's error path ``where`` names, such as
    ``config.corpus.tasks[0].classes``; the JSON ``corpus`` section's
    fields live on the config itself."""
    *keys, name = re.split(r"\.|\[", where.replace("]", ""))[1:]
    target = config
    for key in keys:
        if key != "corpus":
            target = target[int(key)] if key.isdigit() else getattr(target, key)
    object.__setattr__(target, name, value)


class TestArtifactWriter:
    def test_nested_nan_raises_numeric_error_and_leaves_no_file(self, tmp_path):
        out = RunResult(tmp_path / "out")
        with pytest.raises(NumericError, match="tables/bad.json"):
            out.json("tables/bad.json", {"a": [1.0, {"b": float("nan")}]})
        assert not (tmp_path / "out").exists()
        assert out.artifacts == []

    def test_jsonl_nan_raises_numeric_error(self, tmp_path):
        out = RunResult(tmp_path)
        with pytest.raises(NumericError, match="t.jsonl"):
            out.lines("t.jsonl", [{"loss": 1.0}, {"loss": float("inf")}])
        assert files_under(tmp_path) == set()

    def test_formats(self, tmp_path):
        out = RunResult(tmp_path)
        out.json("a.json", {"b": 1, "a": 0.1})
        out.lines("empty.jsonl", [])
        out.lines("two.jsonl", [{"y": 1, "x": 2}, {}])
        out.rows("t.csv", ["name", "k", "v"], [["p", 3, np.float64(0.1)], ["q", 4, np.nan]])
        assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": 0.1,\n  "b": 1\n}\n'
        assert (tmp_path / "empty.jsonl").read_bytes() == b""
        assert (tmp_path / "two.jsonl").read_bytes() == b'{"x": 2, "y": 1}\n{}\n'
        assert (tmp_path / "t.csv").read_bytes() == b"name,k,v\np,3,0.1\nq,4,\n"
        assert out.artifacts == ["a.json", "empty.jsonl", "two.jsonl", "t.csv"]

    def test_replaces_an_earlier_file(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "x" / "y.bin").write_bytes(b"old contents")
        out = RunResult(tmp_path)
        out.write("x/y.bin", b"22")
        assert (tmp_path / "x" / "y.bin").read_bytes() == b"22"
        assert files_under(tmp_path) == {"x/y.bin"}

    @pytest.mark.parametrize("rel", ["../escape.txt", "/abs.txt"])
    def test_rejected_paths(self, tmp_path, rel):
        with pytest.raises(ContractError):
            RunResult(tmp_path / "out").write(rel, b"x")
        assert not (tmp_path / "out").exists()

    def test_cell_needing_quotes_is_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="quoting"):
            RunResult(tmp_path).rows("t.csv", ["model"], [["a,b"]])

    def test_finish_writes_summary_outside_manifest(self, tmp_path):
        out = RunResult(tmp_path)
        out.write("a.txt", b"a")
        out.finish({"seed": 1})
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {"seed": 1, "artifacts": ["a.txt"]}
        assert out.artifacts == ["a.txt"]


class TestManifest:
    """Each pipeline's manifest is exactly the files it left on disk."""

    @pytest.mark.parametrize("pipeline", [run, run_forgetting_comparison])
    def test_manifest_equals_files_on_disk(self, tmp_path, pipeline):
        outdir = tmp_path / "out"
        result = pipeline(tiny_config(outdir))
        summary = json.loads((outdir / "summary.json").read_text())
        on_disk = files_under(outdir) - {"summary.json"}
        assert all(isinstance(a, str) for a in result.artifacts)
        assert sorted(result.artifacts) == summary["artifacts"] == sorted(on_disk)
        assert summary["floored_cells"] == []

    def test_killed_run_leaves_no_summary_and_no_temp_file(self, tmp_path, monkeypatch):
        import taskweave.experiments as experiments

        outdir = tmp_path / "out"
        run(tiny_config(outdir))
        assert (outdir / "summary.json").is_file()

        def killed(*args, **kwargs):
            raise RuntimeError("killed mid-analysis")

        monkeypatch.setattr(experiments, "principal_angles", killed)
        with pytest.raises(RuntimeError, match="killed"):
            run(tiny_config(outdir))
        left = files_under(outdir)
        assert "summary.json" not in left
        assert not [f for f in left if f.endswith(".tmp")]
        assert "geometry/probe_window.csv" in left


class TestProjectedAuc:
    def test_zero_norm_projected_row_raises(self):
        pairs = TaskPairs(genuine=np.array([[0, 1]]), impostor=np.array([[0, 2]]))
        evaluate = _cosine_auc_eval(pairs)
        coords = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        assert evaluate(coords) == 1.0
        coords[2] = 0.0
        with pytest.raises(ContractError, match="zero norm"):
            evaluate(coords)


def positions(labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's position among the rows of its class, in row order."""
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    position = np.empty(labels.size, dtype=int)
    position[order] = np.arange(labels.size) - np.repeat(starts, sizes)
    return position[rows]


def assert_near_uniform(codes: np.ndarray, n_values: int) -> None:
    """Every one of ``n_values`` outcomes is drawn, each count within five
    binomial standard deviations of ``codes.size / n_values``."""
    counts = np.bincount(codes, minlength=n_values)
    assert counts.size == n_values
    p = 1.0 / n_values
    assert np.abs(counts - codes.size * p).max() <= 5 * np.sqrt(codes.size * p * (1 - p))


def assert_valid_pairs(labels: np.ndarray, genuine: np.ndarray, impostor: np.ndarray) -> None:
    """Genuine pairs are two distinct rows of one class, impostor pairs two
    rows of distinct classes."""
    for pairs in (genuine, impostor):
        assert pairs.ndim == 2 and pairs.shape[1] == 2
        assert ((0 <= pairs) & (pairs < labels.size)).all()
    assert (genuine[:, 0] != genuine[:, 1]).all()
    assert (labels[genuine[:, 0]] == labels[genuine[:, 1]]).all()
    assert (labels[impostor[:, 0]] != labels[impostor[:, 1]]).all()


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
    def test_pairs_are_valid_and_repeat_for_a_seed(self, layout, seed):
        labels = self.LAYOUTS[layout]
        genuine, impostor = _sample_pairs(labels, 300, np.random.default_rng(seed))
        assert genuine.shape == impostor.shape == (300, 2)
        assert_valid_pairs(labels, genuine, impostor)
        again = _sample_pairs(labels, 300, np.random.default_rng(seed))
        np.testing.assert_array_equal(again[0], genuine)
        np.testing.assert_array_equal(again[1], impostor)

    @pytest.mark.parametrize("layout", ["balanced", "uneven_shuffled"])
    def test_genuine_draws_are_uniform(self, layout):
        # Uniform over the eligible classes, then over the ordered pairs of
        # distinct members of the class drawn.
        labels = self.LAYOUTS[layout]
        genuine, _ = _sample_pairs(labels, 30_000, np.random.default_rng(3))
        classes, sizes = np.unique(labels, return_counts=True)
        eligible = classes[sizes >= 2]
        cls = labels[genuine[:, 0]]
        assert_near_uniform(np.searchsorted(eligible, cls), eligible.size)
        a, b = positions(labels, genuine[:, 0]), positions(labels, genuine[:, 1])
        for c, size in zip(classes, sizes):
            if size >= 2:
                mine = cls == c
                # Ordered pairs of distinct members, coded 0 .. size·(size − 1) − 1.
                codes = a[mine] * (size - 1) + b[mine] - (b[mine] > a[mine])
                assert_near_uniform(codes, size * (size - 1))

    @pytest.mark.parametrize("layout", ["balanced", "uneven_shuffled"])
    def test_impostor_draws_are_uniform(self, layout):
        # Uniform over the ordered pairs of distinct classes, then over the
        # members of each side's class.
        labels = self.LAYOUTS[layout]
        _, impostor = _sample_pairs(labels, 30_000, np.random.default_rng(4))
        classes, sizes = np.unique(labels, return_counts=True)
        ca = np.searchsorted(classes, labels[impostor[:, 0]])
        cb = np.searchsorted(classes, labels[impostor[:, 1]])
        n = classes.size
        assert_near_uniform(ca * (n - 1) + cb - (cb > ca), n * (n - 1))
        for side, cls in ((0, ca), (1, cb)):
            members = positions(labels, impostor[:, side])
            for c, size in enumerate(sizes):
                if size >= 2:
                    assert_near_uniform(members[cls == c], size)

    def test_singleton_class_never_forms_a_genuine_pair(self):
        labels = self.LAYOUTS["singleton_class"]
        genuine, impostor = _sample_pairs(labels, 500, np.random.default_rng(0))
        assert_valid_pairs(labels, genuine, impostor)
        assert not (labels[genuine] == 1).any()
        assert (labels[impostor[:, 0]] == 1).any()
        assert (labels[impostor[:, 1]] == 1).any()

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM],
        ids=lambda g: g.__name__,
    )
    def test_every_bit_generator_draws_valid_repeatable_pairs(self, bit_generator):
        labels = self.LAYOUTS["uneven_shuffled"]
        genuine, impostor = _sample_pairs(labels, 300, np.random.Generator(bit_generator(5)))
        assert_valid_pairs(labels, genuine, impostor)
        again = _sample_pairs(labels, 300, np.random.Generator(bit_generator(5)))
        np.testing.assert_array_equal(again[0], genuine)
        np.testing.assert_array_equal(again[1], impostor)

    def test_single_class_has_no_impostor_pair(self):
        with pytest.raises(ContractError, match="two classes"):
            _sample_pairs(np.zeros(6, dtype=int), 3, np.random.default_rng(0))

    def test_no_class_of_two_rows_has_no_genuine_pair(self):
        with pytest.raises(ContractError, match="a class of two rows"):
            _sample_pairs(np.arange(5), 3, np.random.default_rng(0))


def eval_layout(layout: str, seed: int, output_dir) -> ExperimentConfig:
    """The stock config, or its ``scale-scores`` variant: every class four
    times as large and 6000 pairs per task."""
    config = default_config(output_dir=str(output_dir), seed=seed)
    if layout == "scale-scores":
        config.tasks = [
            dataclasses.replace(t, samples_per_class=4 * t.samples_per_class)
            for t in config.tasks
        ]
        config.evaluation.verification_pairs = 6000
    return config


class TestPairPlan:
    # The eval corpora of the stock and ``scale-scores`` layouts over a
    # range of seeds, the stock seed (72025) included.
    @pytest.mark.parametrize(
        "layout, seed",
        [(layout, seed) for layout in ("stock", "scale-scores") for seed in range(1, 21)]
        + [("stock", 72025), ("scale-scores", 72025), ("scale-scores", 859)],
    )
    def test_eval_tasks_draw_valid_pairs_over_every_class(self, layout, seed, tmp_path):
        config = eval_layout(layout, seed, tmp_path / "out")
        _, eval_corpus = build_splits(config)
        plan = verification_pair_plan(eval_corpus, config)
        shape = (config.evaluation.verification_pairs, 2)
        for name, pairs in plan.items():
            labels = eval_corpus.tasks[name].labels
            assert pairs.genuine.shape == pairs.impostor.shape == shape
            assert_valid_pairs(labels, pairs.genuine, pairs.impostor)
            # Every class of the task forms a genuine pair and sits on
            # both impostor sides.
            classes = np.unique(labels)
            np.testing.assert_array_equal(np.unique(labels[pairs.genuine]), classes)
            for side in (0, 1):
                np.testing.assert_array_equal(np.unique(labels[pairs.impostor[:, side]]), classes)

    def test_draws_match_per_task_streams(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        _, eval_corpus = build_splits(config)
        plan = verification_pair_plan(eval_corpus, config)
        # Draw order does not matter: each task has its own stream.
        for name in reversed(list(eval_corpus.tasks)):
            rng = stream(config.seed, "pairs", name)
            genuine, impostor = _sample_pairs(
                eval_corpus.tasks[name].labels, config.evaluation.verification_pairs, rng
            )
            np.testing.assert_array_equal(plan[name].genuine, genuine)
            np.testing.assert_array_equal(plan[name].impostor, impostor)

    def test_plan_holds_every_eval_task(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        _, eval_corpus = build_splits(config)
        plan = verification_pair_plan(eval_corpus, config)
        assert list(plan) == list(eval_corpus.tasks)
        shape = (config.evaluation.verification_pairs, 2)
        for name, pairs in plan.items():
            assert pairs.genuine.shape == pairs.impostor.shape == shape
            assert_valid_pairs(eval_corpus.tasks[name].labels, pairs.genuine, pairs.impostor)

    def test_task_order_does_not_move_the_pairs(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        _, eval_corpus = build_splits(config)
        plan = verification_pair_plan(eval_corpus, config)
        eval_corpus.tasks = dict(reversed(eval_corpus.tasks.items()))
        reordered = verification_pair_plan(eval_corpus, config)
        assert list(reordered) == list(reversed(list(plan)))
        for name, pairs in plan.items():
            np.testing.assert_array_equal(reordered[name].genuine, pairs.genuine)
            np.testing.assert_array_equal(reordered[name].impostor, pairs.impostor)


class TestEvaluateRow:
    # Column order per regime as the score tables have always written it.
    COLUMNS = {
        "coarse-category": ["top1", "top5"],
        "fine-identity": ["auc", "ver_acc", "rank1", "tar_far0.001", "tar_far0.01"],
        "fine-identity-degraded": ["auc", "rank1", "rank5"],
        "intermediate": ["auc", "rank1", "tar_far0.001", "tar_far0.01"],
    }

    def test_columns_in_regime_order(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.evaluation.far_values = [0.001, 0.01]
        train_corpus, eval_corpus = build_splits(config)
        params, _ = init_encoder(config)
        row = evaluate_row(params, train_corpus, eval_corpus, config)
        expected = [
            f"{name}:{column}"
            for name, data in eval_corpus.tasks.items()
            for column in self.COLUMNS[data.regime]
        ]
        assert list(row) == expected

    def test_one_ranking_per_task(self, tmp_path, monkeypatch):
        from taskweave import experiments, metrics

        calls = []

        def recording(*args):
            calls.append(args)
            return metrics.rank_k(*args)

        monkeypatch.setattr(experiments, "rank_k", recording)
        config = tiny_config(tmp_path / "out")
        train_corpus, eval_corpus = build_splits(config)
        params, _ = init_encoder(config)
        row = evaluate_row(params, train_corpus, eval_corpus, config)
        assert len(calls) == len(eval_corpus.tasks)
        for (name, data), args in zip(eval_corpus.tasks.items(), calls):
            retrieval = [c for c in self.COLUMNS[data.regime] if c[:3] in ("top", "ran")]
            ks = [int(c[-1]) for c in retrieval]
            assert list(args[4]) == ks
            # Each rate is the one a single-k call on the same sets gives.
            for column, k in zip(retrieval, ks):
                assert row[f"{name}:{column}"] == metrics.rank_k(*args[:4], k)


def test_import_skips_scipy_optimize():
    src = str(Path(taskweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, taskweave.experiments; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_loads_no_process_pools():
    # The window probes fork with os alone; multiprocessing or
    # concurrent.futures would add to every start-up and to the peak RSS.
    src = str(Path(taskweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, taskweave.experiments; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestValidateOnEntry:
    """A config changed in code after it was built is validated before the
    output directory is touched: an earlier run's summary stays."""

    def earlier_run(self, tmp_path) -> Path:
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text("{}")
        return out

    def test_run(self, tmp_path):
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        config.training.epochs = 0
        with pytest.raises(ValidationError, match="config.training.epochs"):
            run(config)
        assert files_under(out) == {"summary.json"}

    def test_forgetting_comparison(self, tmp_path):
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        config.forgetting.finetune_epochs = 0
        with pytest.raises(ValidationError, match="config.forgetting.finetune_epochs"):
            run_forgetting_comparison(config)
        assert files_under(out) == {"summary.json"}

    @pytest.mark.parametrize("field, value", [("identities", 11), ("positives", 1)])
    def test_batch_shape_fails_before_any_file(self, tmp_path, field, value):
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        setattr(config.batch, field, value)
        with pytest.raises(ValidationError, match=f"config.batch.{field}"):
            run(config)
        assert files_under(out) == {"summary.json"}

    STOCK_GOALS = {"objects": 0.95, "faces_hq": 0.95, "faces_lq": 0.9, "persons": 0.95}
    # (section, field, value, error, match): settings that the trainers, the
    # loaders or the geometry suite would reject, or, for
    # projection_max_pcs = 0, accept with empty projection tables.
    BAD_SETTINGS = {
        "epsilon": ("curriculum", "epsilon", 0.0, ConfigurationError, "epsilon"),
        "floor": ("curriculum", "floor", 0.3, ConfigurationError, "floor"),
        "goal_value": (
            "curriculum", "goals", {**STOCK_GOALS, "faces_lq": 1.5}, ConfigurationError,
            "goal for task 'faces_lq'",
        ),
        "missing_goal": (
            "curriculum", "goals", {t: g for t, g in STOCK_GOALS.items() if t != "persons"},
            ConfigurationError,
            r"goals missing for tasks: \['persons'\]",
        ),
        "subsample": (
            "curriculum", "subsample", {"persons": 0.0}, ValidationError,
            r"config.curriculum.subsample\['persons'\]",
        ),
        "accuracy_cadence": ("curriculum", "accuracy_cadence", 0, ConfigurationError, "cadence"),
        "probe_batches": ("curriculum", "probe_batches", 0, ConfigurationError, "probe_batches"),
        "total_batches": ("curriculum", "total_batches", 0, ConfigurationError, "total_batches"),
        "variance_fraction": (
            "evaluation", "variance_fraction", 1.5, ValidationError, "variance_fraction",
        ),
        "projection_max_pcs": (
            "evaluation", "projection_max_pcs", 0, ValidationError, "projection_max_pcs",
        ),
        "learning_rate": (
            "optimizer", "learning_rate", -1.0, ValidationError, "config.optimizer.learning_rate",
        ),
        "learning_rate_inf": (
            "optimizer", "learning_rate", float("inf"), ValidationError,
            "config.optimizer.learning_rate",
        ),
        "beta1": ("optimizer", "beta1", 1.5, ValidationError, "config.optimizer.beta1"),
        "beta2": ("optimizer", "beta2", 1.0, ValidationError, "config.optimizer.beta2"),
        "adam_epsilon": ("optimizer", "epsilon", 0.0, ValidationError, "config.optimizer.epsilon"),
        "weight_decay": (
            "optimizer", "weight_decay", -1e-6, ValidationError, "config.optimizer.weight_decay",
        ),
    }

    @pytest.mark.parametrize("setting", sorted(BAD_SETTINGS))
    @pytest.mark.parametrize("entry", [run, run_forgetting_comparison], ids=lambda f: f.__name__)
    def test_every_setting_fails_before_any_file(self, tmp_path, entry, setting):
        section, field, value, error, match = self.BAD_SETTINGS[setting]
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        setattr(getattr(config, section), field, value)
        with pytest.raises(error, match=match):
            entry(config)
        assert files_under(out) == {"summary.json"}

    # A value of the wrong type set in code used to raise a bare TypeError
    # from a comparison in validate(), or to pass unchecked into the run.
    WRONG_TYPES = {
        "config.margin": "0.35",
        "config.corpus.ambient_dim": "24",
        "config.corpus.tasks[0].within_class_spread": "0.45",
        "config.encoder.hidden_dims": ["16"],
        "config.optimizer.beta1": "0.9",
        "config.batch.identities": "4",
        "config.curriculum.epsilon": "1e-8",
        "config.training.epochs": "1",
        "config.evaluation.variance_fraction": "0.9",
        "config.forgetting.pretrain_task": 3,
    }

    @pytest.mark.parametrize("where", sorted(WRONG_TYPES))
    @pytest.mark.parametrize("entry", [run, run_forgetting_comparison], ids=lambda f: f.__name__)
    def test_code_built_values_are_type_checked_before_any_file(self, tmp_path, entry, where):
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        set_field(config, where, self.WRONG_TYPES[where])
        with pytest.raises(ValidationError, match=re.escape(f"{where} must be of type")):
            entry(config)
        assert files_under(out) == {"summary.json"}

    # A negative margin used to validate and train.
    @pytest.mark.parametrize("margin", [-1.0, float("inf"), float("nan")])
    @pytest.mark.parametrize("entry", [run, run_forgetting_comparison], ids=lambda f: f.__name__)
    def test_margin_must_be_finite_and_non_negative(self, tmp_path, entry, margin):
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        config.margin = margin
        with pytest.raises(ValidationError, match="config.margin must be a finite number >= 0"):
            entry(config)
        assert files_under(out) == {"summary.json"}

    def test_seed_override_is_validated(self, tmp_path):
        out = self.earlier_run(tmp_path)
        with pytest.raises(ValidationError, match="config.seed"):
            run(tiny_config(out), seed=-1)
        with pytest.raises(ValidationError, match="config.seed"):
            run_forgetting_comparison(tiny_config(out), seed=-1)
        assert files_under(out) == {"summary.json"}


class TestForgettingComparison:
    def test_seed_override_leaves_config_unchanged(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        before = config.to_dict()
        run_forgetting_comparison(config, seed=99)
        assert config.to_dict() == before

    def test_zero_finetune_leaves_models_identical(self, tmp_path):
        # validate() rejects a fine-tune of zero epochs, so this calls the
        # comparison's body, one level below the validating entry point.
        config = tiny_config(tmp_path / "out")
        config.forgetting.finetune_epochs = 0
        result = _compare_forgetting(config, RunResult(tmp_path / "out"))
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


    def test_writes_a_trace_per_training_phase(self, tmp_path):
        outdir = tmp_path / "out"
        config = tiny_config(outdir)
        run_forgetting_comparison(config)
        traces = {}
        for phase in ("pretrain", "finetune_sequential", "finetune_balanced", "finetune_adaptive"):
            lines = (outdir / "traces" / f"{phase}.jsonl").read_text().splitlines()
            traces[phase] = [json.loads(line) for line in lines]
            assert traces[phase], phase
            assert [r["step"] for r in traces[phase]] == list(range(1, len(lines) + 1))
        assert {r["mode"] for r in traces["pretrain"]} == {"blocked"}
        assert {r["mode"] for r in traces["finetune_sequential"]} == {"blocked"}
        assert {r["mode"] for r in traces["finetune_balanced"]} == {"balanced"}
        assert {r["mode"] for r in traces["finetune_adaptive"]} == {"adaptive"}
        report = json.loads((outdir / "forgetting_report.json").read_text())
        balanced = sum(
            e["allocation"] for r in traces["finetune_balanced"] for e in r["tasks"].values()
        )
        assert report["finetune_total_batches"] == balanced
        fg = config.forgetting
        assert len(traces["pretrain"]) == fg.pretrain_steps
        for record in traces["pretrain"]:
            allocated = {n: e["allocation"] for n, e in record["tasks"].items() if e["allocation"]}
            assert allocated == {fg.pretrain_task: fg.pretrain_batches_per_step}
        per_step = [
            {n: e["allocation"] for n, e in r["tasks"].items()}
            for r in traces["finetune_sequential"]
        ]
        assert all(step.get(fg.pretrain_task, 0) == 0 for step in per_step)
        assert sum(sum(step.values()) for step in per_step) == balanced
        cap = len(config.tasks) * config.curriculum.batches_per_task
        assert max(sum(step.values()) for step in per_step) <= cap


class TestFlooredCells:
    def test_zero_retrieval_score_is_floored_and_named(self):
        rows = {
            "a": {"t:rank1": 0.0, "t:auc": 0.75},
            "b": {"t:rank1": 0.5, "t:auc": 0.0},
        }
        table, floored = rows_to_table(rows)
        assert floored == ["a|t:rank1", "b|t:auc"]
        assert table.values[0, 0] == 1e-9
        assert table.values[1, 1] == 1e-9
        assert table.values[0, 1] == 0.75

    def test_unfloored_table_names_nothing(self):
        _, floored = rows_to_table({"a": {"t:rank1": 1e-9, "t:auc": 1.0}})
        assert floored == []


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

    def test_eval_and_analyze_leave_their_own_summaries(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        trained = (out / "summary.json").read_bytes()
        checkpoint = str(out / "checkpoints" / "encoder_final.npz")

        result = runner.invoke(main, ["eval", "-c", str(config)])
        assert result.exit_code == 0, result.output
        evaluated = json.loads((out / "eval_summary.json").read_text())
        train_summary = json.loads(trained)
        assert evaluated["command"] == "eval"
        assert evaluated["checkpoint"] == checkpoint
        assert evaluated["artifacts"] == ["tables/metrics.csv"]
        # The same parameters and pairs: the train run's scores, under the
        # eval table's model name.
        assert evaluated["results"] == train_summary["results"]["scores"]
        prefix = f"encoder+{train_summary['mode']}|"
        assert evaluated["floored_cells"] == [
            "encoder|" + cell.removeprefix(prefix) for cell in train_summary["floored_cells"]
        ]

        result = runner.invoke(main, ["analyze", "-c", str(config)])
        assert result.exit_code == 0, result.output
        analyzed = json.loads((out / "analyze_summary.json").read_text())
        assert analyzed["command"] == "analyze"
        assert analyzed["checkpoint"] == checkpoint
        geometry = sorted(str(p.relative_to(out)) for p in (out / "geometry").iterdir())
        assert analyzed["artifacts"] == geometry
        assert analyzed["results"] == json.loads((out / "geometry" / "summary.json").read_text())
        assert (out / "summary.json").read_bytes() == trained

    @pytest.mark.parametrize(
        "command, summary, target",
        [
            ("eval", "eval_summary.json", "rows_to_table"),
            ("analyze", "analyze_summary.json", "pca"),
        ],
    )
    def test_failed_command_leaves_no_summary(
        self, tmp_path, monkeypatch, command, summary, target
    ):
        import taskweave.experiments as experiments

        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        assert runner.invoke(main, [command, "-c", str(config)]).exit_code == 0
        assert (out / summary).exists()

        def fail(*args, **kwargs):
            raise NumericError("injected failure")

        # Fails after the command has started rewriting files.
        monkeypatch.setattr(experiments, target, fail)
        result = runner.invoke(main, [command, "-c", str(config)])
        assert result.exit_code == 3
        assert "injected failure" in result.output
        assert not (out / summary).exists()
        assert (out / "summary.json").exists()

    def test_eval_without_checkpoint_fails_cleanly(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["eval", "-c", str(self.write_config(tmp_path))])
        assert result.exit_code == 2
        assert "checkpoint" in result.output

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("curriculum", "mode", "bogus"),
            ("curriculum", "epsilon", "1e-8"),
            ("optimizer", "learning_rate", "0.1"),
        ],
    )
    def test_invalid_config_exit_code_and_no_artifacts(self, tmp_path, section, field, value):
        payload = default_config(output_dir=str(tmp_path / "out")).to_dict()
        payload[section][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        runner = CliRunner()
        result = runner.invoke(main, ["train", "-c", str(path)])
        assert result.exit_code == 2
        assert field in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", REQUIRED_TASK_FIELDS)
    def test_missing_task_field_exit_code_and_no_artifacts(self, tmp_path, field):
        payload = default_config(output_dir=str(tmp_path / "out")).to_dict()
        del payload["corpus"]["tasks"][0][field]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        result = CliRunner().invoke(main, ["train", "-c", str(path)])
        assert result.exit_code == 2
        assert f"config.corpus.tasks[0].{field}" in result.output
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

    def test_non_finite_json_exit_code(self, tmp_path, monkeypatch):
        import taskweave.experiments as experiments

        runner = CliRunner()
        config_path = self.write_config(tmp_path)
        assert runner.invoke(main, ["train", "-c", str(config_path)]).exit_code == 0
        monkeypatch.setattr(
            experiments, "linear_task_probe", lambda *a, **k: (float("nan"), 0.0)
        )
        result = runner.invoke(main, ["analyze", "-c", str(config_path)])
        assert result.exit_code == 3
        assert "geometry/summary.json" in result.output
        assert not (tmp_path / "out" / "geometry" / "summary.json").exists()

    def test_score_table_default(self):
        runner = CliRunner()
        result = runner.invoke(main, ["score-table", "--mode", "expert"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0].split()[1].startswith("EVA02+IMIC")

    def test_negative_seed_override_is_a_validation_error(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        result = runner.invoke(main, ["gen", "-c", str(config), "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "seed" in result.output
        assert not (tmp_path / "out").exists()

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
