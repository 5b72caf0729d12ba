"""Config parsing, the experiment runner, artifact layout, and the CLI."""

import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import weakref
from pathlib import Path
from typing import get_args, get_type_hints
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

import taskweave
from conftest import tree_bytes
from taskweave import experiments, scoring
from taskweave.artifacts import RunResult, _json_text, csv_text
from taskweave.cli import main
from taskweave.config import ExperimentConfig, default_config
from taskweave.curriculum import Trainer
from taskweave.datagen import Bound, ranged
from taskweave.encoder import embed, save_checkpoint
from taskweave.errors import ContractError, NumericError, ValidationError
from taskweave.experiments import (
    build_splits,
    bundled_reference_table,
    encoder_embedder,
    init_encoder,
    run,
    run_forgetting_comparison,
    score_paper_table,
    score_suites,
)
from taskweave.metrics import ScoreTable, roc_auc
from taskweave.scoring import (
    TaskPairs,
    _cosine_auc_eval,
    _probe_gallery_split,
    _sample_pairs,
    class_centroids,
    evaluate_row,
    geometry_headlines,
    rows_to_table,
    verification_pair_plan,
)
from taskweave.seeding import derive_seed, stream


# The fields of a task entry that have no default.
REQUIRED_TASK_FIELDS = ["name", "regime", "classes", "samples_per_class", "within_class_spread"]


def score_params(params, train_corpus, eval_corpus, config) -> dict[str, float]:
    """The score row of ``params``: the eval tasks embedded and scored
    against the train-class centroids."""
    embedder = encoder_embedder(params)
    return evaluate_row(embedder, eval_corpus, class_centroids(embedder, train_corpus), config)


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

    def test_absent_margin_takes_the_field_default(self, tmp_path):
        # A config file without a margin gets the one the field declares,
        # whatever that is: the loader spells no default of its own.
        @dataclasses.dataclass
        class Wider(ExperimentConfig):
            margin: float = ranged(Bound(0), default=0.5)

        payload = default_config(output_dir=str(tmp_path)).to_dict()
        del payload["margin"]
        assert ExperimentConfig.from_dict(payload).margin == 0.35
        assert Wider.from_dict(payload).margin == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match=f"cannot read config {tmp_path}/none.json"):
            ExperimentConfig.from_file(tmp_path / "none.json")

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

    # Every run trains epochs × steps_per_epoch steps of one group of
    # batches, so a config of the balanced epoch rule is refused by name:
    # its adaptive step size, and an unset steps_per_epoch.
    @pytest.mark.parametrize("mode", ["balanced", "adaptive"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("total_batches", None, "unknown key(s) ['total_batches'] in config.curriculum"),
            ("total_batches", 4, "unknown key(s) ['total_batches'] in config.curriculum"),
            (
                "steps_per_epoch",
                None,
                "config.curriculum.steps_per_epoch must be of type int, got None",
            ),
        ],
    )
    def test_settings_of_the_epoch_rule_are_refused(self, tmp_path, mode, key, value, message):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        payload["curriculum"].update({"mode": mode, key: value})
        with pytest.raises(ValidationError) as caught:
            ExperimentConfig.from_dict(payload)
        assert str(caught.value) == message

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

    # A section of the wrong JSON type used to escape the loader as a bare
    # TypeError, or to be iterated as a list of its keys.
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(encoder=5), "config.encoder must be a JSON object, got 5"),
            (lambda p: p.update(corpus=5), "config.corpus must be a JSON object, got 5"),
            (
                lambda p: p["corpus"].update(tasks=[5]),
                "config.corpus.tasks[0] must be a JSON object, got 5",
            ),
            (
                lambda p: p["corpus"].update(tasks={"a": 1}),
                "config.corpus.tasks must be a JSON array, got {'a': 1}",
            ),
        ],
    )
    def test_section_of_wrong_type_names_its_path(self, tmp_path, edit, message):
        payload = default_config(output_dir=str(tmp_path)).to_dict()
        edit(payload)
        with pytest.raises(ValidationError) as caught:
            ExperimentConfig.from_dict(payload)
        assert str(caught.value) == message

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
        assert set(manifest) == {"manifest_version", "seed", "ambient_dim", "split", "tasks"}
        for entry in manifest["tasks"]:
            assert set(entry) == expected

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
            ("curriculum.steps_per_epoch", "8"),
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
        config.evaluation.verification_pairs = 5
        config.evaluation.far_values = [0.5]
        config.evaluation.suites = ["scores"]
        config.validate()
        run(config)
        assert (tmp_path / "out" / "summary.json").is_file()

    @pytest.mark.parametrize("mode", ["balanced", "adaptive"])
    def test_unset_steps_per_epoch_fails_before_any_file(self, tmp_path, mode):
        config = tiny_config(tmp_path / "out")
        config.curriculum.mode = mode
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


def alive_before_each_embed(monkeypatch, features: list) -> list:
    """Record, at each ``embed`` of one of the tracked ``features`` (weak
    references in task order), which of the earlier tasks' features are
    alive."""
    alive = []

    def tracked_embed(params, inputs):
        task = next((i for i, ref in enumerate(features) if ref() is inputs), None)
        if task is not None:
            alive.append([ref() is not None for ref in features[:task]])
        return embed(params, inputs)

    monkeypatch.setattr(experiments, "embed", tracked_embed)
    return alive


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

    def test_both_modes_train_one_budget(self, tmp_path):
        # A run of either mode trains epochs × steps_per_epoch steps, each
        # of one group of len(tasks) × batches_per_task batches.
        spent = {}
        for mode in ("balanced", "adaptive"):
            config = tiny_config(tmp_path / mode)
            config.curriculum.mode = mode
            config.curriculum.batches_per_task = 2
            config.curriculum.steps_per_epoch = 3
            config.training.epochs = 2
            config.evaluation.suites = ["scores"]
            run(config)
            summary = json.loads((tmp_path / mode / "summary.json").read_text())
            lines = (tmp_path / mode / "traces" / "scheduler.jsonl").read_text().splitlines()
            assert len(lines) == summary["steps"] == 2 * 3
            group = len(config.tasks) * 2
            steps = [
                sum(task["allocation"] for task in json.loads(line)["tasks"].values())
                for line in lines
            ]
            assert steps == [group] * len(lines)
            spent[mode] = sum(steps)
        assert spent["balanced"] == spent["adaptive"]

    def test_corpus_files_not_mutated_by_eval(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        run(config)
        manifest = tmp_path / "out" / "corpus" / "manifest.json"
        before = manifest.read_bytes()
        from taskweave.encoder import load_checkpoint

        train_corpus, eval_corpus = build_splits(config)
        params = load_checkpoint(tmp_path / "out" / "checkpoints" / "encoder_final.npz")
        score_params(params, train_corpus, eval_corpus, config)
        assert manifest.read_bytes() == before

    def test_scoring_holds_no_trainer_and_one_task_at_a_time(self, tmp_path, monkeypatch):
        # Weak references to every trainer run() builds and every embedding
        # its scoring computes: the trainer must be gone when scoring
        # starts, and each embedding before the next one is computed.
        trainers, embeddings, alive_at_embed = [], [], []

        def tracked_trainer(*args, **kwargs):
            trainer = Trainer(*args, **kwargs)
            trainers.append(weakref.ref(trainer))
            return trainer

        def tracked_embed(params, inputs):
            alive_at_embed.append(sum(ref() is not None for ref in embeddings))
            emb = embed(params, inputs)
            embeddings.append(weakref.ref(emb))
            return emb

        def checked_score_suites(*args):
            assert len(trainers) == 1 and trainers[0]() is None
            return score_suites(*args)

        monkeypatch.setattr(experiments, "Trainer", tracked_trainer)
        monkeypatch.setattr(experiments, "embed", tracked_embed)
        monkeypatch.setattr(experiments, "score_suites", checked_score_suites)
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        run(config)
        # The centroid train task and the four eval tasks, once each.
        assert alive_at_embed == [0] * 5
        assert all(ref() is None for ref in embeddings)

    @pytest.mark.parametrize("suites", [["scores"], ["scores", "geometry"]])
    def test_each_split_is_alive_only_in_its_phase(self, tmp_path, monkeypatch, suites):
        # Weak references to every array of each split that run() builds:
        # no eval array is alive while the trainer is built, and no train
        # array when scoring starts (the centroids are all it keeps).
        arrays = {"train": [], "eval": []}

        def tracked_build_splits(*args):
            corpora = build_splits(*args)
            for corpus in corpora:
                for data in corpus.tasks.values():
                    arrays[corpus.split].extend(map(weakref.ref, (data.features, data.labels)))
            return corpora

        def alive(split):
            return [ref for ref in arrays[split] if ref() is not None]

        def checked_trainer(*args, **kwargs):
            assert len(arrays["train"]) == 8 and alive("eval") == []
            return Trainer(*args, **kwargs)

        def checked_score_suites(*args):
            assert len(arrays["eval"]) == 8 and alive("train") == []
            return score_suites(*args)

        monkeypatch.setattr(experiments, "build_splits", tracked_build_splits)
        monkeypatch.setattr(experiments, "Trainer", checked_trainer)
        monkeypatch.setattr(experiments, "score_suites", checked_score_suites)
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = suites
        run(config)
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_scores_draw_each_tasks_pairs_when_they_score_it(self, tmp_path, monkeypatch):
        # Without the geometry suite, one task's pairs are alive at a time.
        # Only the three tasks with a pair metric draw them, not the coarse
        # one, and each draw is its task's own stream's.
        drawn, alive_at_draw, draws = [], [], []
        sample_pairs = scoring._sample_pairs

        def tracked(*args):
            alive_at_draw.append(sum(ref() is not None for ref in drawn))
            pairs = sample_pairs(*args)
            drawn.extend(map(weakref.ref, pairs))
            draws.append([p.tobytes() for p in pairs])
            return pairs

        monkeypatch.setattr(scoring, "_sample_pairs", tracked)
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        run(config)
        assert alive_at_draw == [0, 0, 0]
        _, eval_corpus = build_splits(config)
        n_pairs = config.evaluation.verification_pairs
        expected = [
            [p.tobytes() for p in sample_pairs(d.labels, n_pairs, stream(config.seed, "pairs", n))]
            for n, d in eval_corpus.tasks.items()
            if d.regime != "coarse-category"
        ]
        assert len(expected) == 3 and draws == expected

    @staticmethod
    def track_eval_features(monkeypatch) -> list:
        """Weak references to each eval task's features, in task order, as
        run() builds the eval split."""
        features = []

        def tracked_build_splits(*args):
            corpora = build_splits(*args)
            for corpus in corpora:
                if corpus.split == "eval":
                    features.extend(weakref.ref(d.features) for d in corpus.tasks.values())
            return corpora

        monkeypatch.setattr(experiments, "build_splits", tracked_build_splits)
        return features

    def test_scores_drop_each_tasks_features_once_embedded(self, tmp_path, monkeypatch):
        # Without the geometry suite, when the embedder is called for an
        # eval task, no earlier task's features are alive.
        features = self.track_eval_features(monkeypatch)
        earlier_alive = alive_before_each_embed(monkeypatch, features)
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        run(config)
        assert earlier_alive == [[False] * task for task in range(4)]

    def test_geometry_reads_one_pooled_matrix_and_no_features(self, tmp_path, monkeypatch):
        # With both suites, no eval task's features are alive when the
        # geometry suite starts, and every embedding array the suites read
        # is the one pooled matrix the suite gets or a row slice of it.
        features = self.track_eval_features(monkeypatch)
        suite_args, reads = [], []

        def checked_geometry_suite(*args):
            assert len(features) == 4 and all(ref() is None for ref in features)
            suite_args.append(args)
            return geometry_suite(*args)

        def reading(fn, position):
            def read(*args, **kwargs):
                reads.append(args[position])
                return fn(*args, **kwargs)

            return read

        geometry_suite = experiments.geometry_suite
        monkeypatch.setattr(experiments, "geometry_suite", checked_geometry_suite)
        readers = {
            "task_scores": 1,
            "linear_task_probe": 0,
            "sliding_window_probe": 0,
            "pca": 0,
            "task_subspace": 0,
            "projection_sweep": 1,
            "cross_task_projection_eval": 2,
        }
        for name, position in readers.items():
            monkeypatch.setattr(scoring, name, reading(getattr(scoring, name), position))
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores", "geometry"]
        run(config)
        [(pooled, eval_emb, *_)] = suite_args
        assert pooled.flags.c_contiguous and pooled.flags.owndata
        assert all(e.base is pooled for e in eval_emb.values())
        # Per task: its scores, a PCA, a subspace, three sweeps and a
        # self-projection; and the pooled probe, window probes and PCA.
        assert len(reads) == 4 * 7 + 3
        assert sum(X is pooled for X in reads) == 3
        for X in reads:
            assert X is pooled or any(X is e for e in eval_emb.values())
            assert np.shares_memory(X, pooled)

    def test_seed_override_leaves_config_unchanged(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        config.evaluation.suites = ["scores"]
        before = config.to_dict()
        run(config, seed=99)
        assert config.to_dict() == before
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_output_dir_override_is_recorded(self, tmp_path):
        config = tiny_config(tmp_path / "declared")
        config.evaluation.suites = ["scores"]
        before = config.to_dict()
        out = tmp_path / "actual"
        run(config, output_dir=out)
        assert config.to_dict() == before
        assert not (tmp_path / "declared").exists()
        recorded = ExperimentConfig.from_file(out / "config.json")
        assert recorded.output_dir == str(out)
        first = {rel: (out / rel).read_bytes() for rel in files_under(out)}
        # Running the recorded config again rewrites the same tree.
        run(recorded)
        assert {rel: (out / rel).read_bytes() for rel in files_under(out)} == first


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def dirs_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_dir()}


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

    # The text is json's, indented or on one line.
    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize(
        "payload",
        [
            {"plain": [1, 2], "s": "\x001"},
            # Strings that start with NUL.
            {"b": "\x000", "c": ["\x00", [9]]},
            {"\x00key": [0, 0]},
            # A step record: nested floats at the edges of repr, None, bools
            # and text outside ASCII, written by the one compact encoder.
            {
                "step": 7,
                "tasks": {"b": {"loss": 0.1, "accuracy": None}, "a": {"loss": -0.0}},
                "weights": [1e-300, 1.7976931348623157e308, 2.0**-1074],
                "measured": [True, False],
                "note": "é\n\"",
            },
        ],
    )
    def test_text_is_json_dumps(self, payload, indent):
        expected = json.dumps(payload, indent=indent, sort_keys=True)
        assert _json_text("t.json", payload, indented=indent is not None) == expected

    @pytest.mark.parametrize("indented", [False, True])
    @pytest.mark.parametrize(
        "value",
        [np.array([5, 6]), np.zeros((2, 2), dtype=int), np.array([1.0]), np.array([True]), {1, 2}],
    )
    def test_other_objects_are_not_serializable(self, value, indented):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_text("t.json", {"v": value}, indented)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_jsonl_nan_raises_numeric_error(self, tmp_path, bad):
        out = RunResult(tmp_path)
        with pytest.raises(NumericError, match="t.jsonl"), out.stream("t.jsonl") as trace:
            trace({"loss": 1.0})
            trace({"loss": {"deep": [bad]}})
        assert files_under(tmp_path) == set()
        assert out.artifacts == []

    def test_csv_text_is_what_rows_writes(self, tmp_path):
        header = ["task", "k", "value"]
        rows = [["a", 1, 0.1], ["b", np.int64(2), np.float64(-0.0)], ["c", 3, np.nan]]
        RunResult(tmp_path).rows("t.csv", header, rows)
        assert (tmp_path / "t.csv").read_bytes() == csv_text("t.csv", header, rows).encode()
        with pytest.raises(ContractError, match="t.csv: cell 'a,b' would need CSV quoting"):
            csv_text("t.csv", header, [["a,b", 1, 0.5]])

    def test_formats(self, tmp_path):
        out = RunResult(tmp_path)
        out.json("a.json", {"b": 1, "a": 0.1})
        with out.stream("empty.jsonl"):
            pass
        with out.stream("two.jsonl") as trace:
            trace({"y": 1, "x": 2})
            trace({})
        out.rows("t.csv", ["name", "k", "v"], [["p", 3, np.float64(0.1)], ["q", 4, np.nan]])
        assert (tmp_path / "a.json").read_bytes() == b'{\n  "a": 0.1,\n  "b": 1\n}\n'
        assert (tmp_path / "empty.jsonl").read_bytes() == b""
        assert (tmp_path / "two.jsonl").read_bytes() == b'{"x": 2, "y": 1}\n{}\n'
        assert (tmp_path / "t.csv").read_bytes() == b"name,k,v\np,3,0.1\nq,4,\n"
        assert out.artifacts == ["a.json", "empty.jsonl", "two.jsonl", "t.csv"]

    def test_a_stream_is_whole_or_absent(self, tmp_path):
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / "a.jsonl").write_bytes(b"old contents")
        out = RunResult(tmp_path)
        with out.stream("t/a.jsonl") as trace:
            trace({"step": 1})
            # Until the block ends the lines go to the hidden sibling.
            assert files_under(tmp_path) == {"t/a.jsonl", "t/.a.jsonl.tmp"}
            assert (tmp_path / "t" / "a.jsonl").read_bytes() == b"old contents"
            assert out.artifacts == []
        assert files_under(tmp_path) == {"t/a.jsonl"}
        assert (tmp_path / "t" / "a.jsonl").read_bytes() == b'{"step": 1}\n'
        assert out.artifacts == ["t/a.jsonl"]
        with pytest.raises(RuntimeError, match="mid-stream"), out.stream("t/b.jsonl") as trace:
            trace({"step": 1})
            raise RuntimeError("mid-stream")
        assert files_under(tmp_path) == {"t/a.jsonl"}
        assert out.artifacts == ["t/a.jsonl"]

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
        out.finish(1, {"k": 2.5}, command="x")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {
            "summary_version": 1,
            "seed": 1,
            "results": {"k": 2.5},
            "command": "x",
            "artifacts": ["a.txt"],
        }
        assert out.artifacts == ["a.txt"]

    def test_start_deletes_what_the_summary_lists(self, tmp_path):
        first = RunResult(tmp_path)
        for rel in ("a.txt", "x/b.txt", "x/y/c.txt"):
            first.write(rel, b"old")
        (tmp_path / "x" / "unlisted.txt").write_bytes(b"kept")
        first.finish(1, {})
        RunResult(tmp_path).start()
        assert files_under(tmp_path) == {"x/unlisted.txt"}

    @pytest.mark.parametrize("rel", ["../escape.txt", "/abs.txt"])
    def test_start_refuses_a_listed_path_outside_the_tree(self, tmp_path, rel):
        first = RunResult(tmp_path / "out")
        first.write("a.txt", b"a")
        first.finish(1, {})
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        summary["artifacts"].insert(0, rel)
        (tmp_path / "out" / "summary.json").write_text(json.dumps(summary))
        (tmp_path / "escape.txt").write_bytes(b"outside")
        before = tree_bytes(tmp_path)
        with pytest.raises(ValidationError, match=re.escape(repr(rel))):
            RunResult(tmp_path / "out").start()
        assert tree_bytes(tmp_path) == before

    def test_trace_lines_are_encoded_a_group_at_a_time(self, tmp_path):
        from taskweave.artifacts import _TRACE_GROUP, JsonLines

        writes = []
        sink = JsonLines("t.jsonl", writes.append)
        records = [{"step": i, "loss": i / 7} for i in range(2 * _TRACE_GROUP + 3)]
        for i, record in enumerate(records, start=1):
            sink(record)
            assert len(writes) == i // _TRACE_GROUP
        sink.flush()
        assert [text.count("\n") for text in writes] == [_TRACE_GROUP, _TRACE_GROUP, 3]
        lines = "".join(writes).splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_start_deletes_stale_temp_files(self, tmp_path):
        # The hidden siblings a killed writer leaves, and the directories
        # they alone kept; other hidden files stay.
        for rel in ("traces/.scheduler.jsonl.tmp", "x/y/.c.npy.tmp", ".summary.json.tmp"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_bytes(b"partial")
        (tmp_path / "x" / ".kept").write_bytes(b"kept")
        (tmp_path / "x" / "kept.tmp").write_bytes(b"kept")
        RunResult(tmp_path).start()
        assert files_under(tmp_path) == {"x/.kept", "x/kept.tmp"}
        assert dirs_under(tmp_path) == {"x"}

    @pytest.mark.parametrize("text", ["{", '{"artifacts": "a.txt"}', "[]", '{"artifacts": [1]}'])
    def test_start_reads_an_unparseable_summary_as_listing_nothing(self, tmp_path, text):
        (tmp_path / "a.txt").write_bytes(b"a")
        (tmp_path / "summary.json").write_text(text)
        RunResult(tmp_path).start()
        assert files_under(tmp_path) == {"a.txt"}


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
        outdir = tmp_path / "out"
        run(tiny_config(outdir))
        assert (outdir / "summary.json").is_file()

        def killed(*args, **kwargs):
            raise RuntimeError("killed mid-analysis")

        monkeypatch.setattr(scoring, "principal_angles", killed)
        with pytest.raises(RuntimeError, match="killed"):
            run(tiny_config(outdir))
        left = files_under(outdir)
        assert "summary.json" not in left
        assert not [f for f in left if f.endswith(".tmp")]
        # What the killed run wrote stays; the first run's files were
        # deleted when the second started.
        assert "traces/scheduler.jsonl" in left
        assert not [f for f in left if f.startswith("geometry/")]


    def test_a_run_failing_mid_training_leaves_no_trace(self, tmp_path, monkeypatch):
        train_step = Trainer.train_step

        def failing(trainer, *args, **kwargs):
            if trainer.step == 2:
                raise RuntimeError("failed mid-training")
            return train_step(trainer, *args, **kwargs)

        monkeypatch.setattr(Trainer, "train_step", failing)
        outdir = tmp_path / "out"
        with pytest.raises(RuntimeError, match="mid-training"):
            run(tiny_config(outdir))
        assert [f for f in files_under(outdir) if f.startswith("traces/") or ".tmp" in f] == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the killed run is a forked child")
    def test_a_run_after_a_killed_one_writes_a_fresh_tree(self, tmp_path, monkeypatch):
        # A run killed by SIGKILL while it streams its trace leaves the
        # trace's .tmp sibling, which no summary lists; the next run's
        # start deletes it.
        fresh = tmp_path / "fresh"
        run(tiny_config(fresh))
        train_step = Trainer.train_step

        def killed(trainer, *args, **kwargs):
            if trainer.step == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_step(trainer, *args, **kwargs)

        outdir = tmp_path / "out"
        monkeypatch.setattr(Trainer, "train_step", killed)
        pid = os.fork()
        if pid == 0:
            try:
                run(tiny_config(outdir))
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        assert "traces/.scheduler.jsonl.tmp" in files_under(outdir)
        monkeypatch.undo()
        run(tiny_config(outdir))
        # config.json records the output directory; every other file and
        # every directory is the fresh run's.
        rewritten, expected = tree_bytes(outdir), tree_bytes(fresh)
        assert rewritten.keys() == expected.keys()
        del rewritten["config.json"], expected["config.json"]
        assert rewritten == expected
        assert dirs_under(outdir) == dirs_under(fresh)


class TestProjectedAuc:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 12, 24])
    @pytest.mark.parametrize("n_pairs, block", [(1500, None), (301, 40), (97, 7)])
    def test_one_pass_is_the_two_call_auc(self, width, n_pairs, block):
        """Genuine and impostor pairs scored in one pass give the AUC of the
        two score sets scored apart, bit for bit, over any row blocks."""
        rng = np.random.default_rng(1000 * width + n_pairs)
        labels = np.repeat(np.arange(40), 20)
        coords = rng.standard_normal((labels.size, width))
        pairs = TaskPairs(*_sample_pairs(labels, n_pairs, rng))
        normed = coords / np.linalg.norm(coords, axis=1, keepdims=True)

        def scores(pairs):
            return np.einsum("ij,ij->i", normed[pairs[:, 0]], normed[pairs[:, 1]])

        with mock.patch.object(scoring, "BLOCK", block or scoring.BLOCK):
            auc = _cosine_auc_eval(pairs)(coords)
        assert auc == roc_auc(scores(pairs.genuine), scores(pairs.impostor))

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
        shape = (config.evaluation.verification_pairs, 2)
        for data in eval_corpus.tasks.values():
            pairs, labels = verification_pair_plan(data, config), data.labels
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
        plan = {n: verification_pair_plan(d, config) for n, d in eval_corpus.tasks.items()}
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
        shape = (config.evaluation.verification_pairs, 2)
        for data in eval_corpus.tasks.values():
            pairs = verification_pair_plan(data, config)
            assert pairs.genuine.shape == pairs.impostor.shape == shape
            assert_valid_pairs(data.labels, pairs.genuine, pairs.impostor)

    def test_task_order_does_not_move_the_pairs(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        _, eval_corpus = build_splits(config)
        tasks = eval_corpus.tasks
        plan = {n: verification_pair_plan(d, config) for n, d in tasks.items()}
        # Drawn again in reverse order, after every task has drawn once.
        reordered = {n: verification_pair_plan(tasks[n], config) for n in reversed(list(tasks))}
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
        params = init_encoder(config)
        row = score_params(params, train_corpus, eval_corpus, config)
        expected = [
            f"{name}:{column}"
            for name, data in eval_corpus.tasks.items()
            for column in self.COLUMNS[data.regime]
        ]
        assert list(row) == expected

    def test_leaves_every_feature_array_of_its_corpus_alive(self, tmp_path):
        # The forgetting comparison scores one eval split four times, so
        # scoring it must keep each task's features where they were.
        config = tiny_config(tmp_path / "out")
        train_corpus, eval_corpus = build_splits(config)
        features = {n: weakref.ref(d.features) for n, d in eval_corpus.tasks.items()}
        params = init_encoder(config)
        first = score_params(params, train_corpus, eval_corpus, config)
        assert all(eval_corpus.tasks[n].features is ref() for n, ref in features.items())
        assert score_params(params, train_corpus, eval_corpus, config) == first

    def test_one_ranking_per_task(self, tmp_path, monkeypatch):
        from taskweave import metrics

        calls = []

        def recording(*args):
            calls.append(args)
            return metrics.rank_k(*args)

        monkeypatch.setattr(scoring, "rank_k", recording)
        config = tiny_config(tmp_path / "out")
        train_corpus, eval_corpus = build_splits(config)
        params = init_encoder(config)
        row = score_params(params, train_corpus, eval_corpus, config)
        assert len(calls) == len(eval_corpus.tasks)
        for (name, data), args in zip(eval_corpus.tasks.items(), calls):
            retrieval = [c for c in self.COLUMNS[data.regime] if c[:3] in ("top", "ran")]
            ks = [int(c[-1]) for c in retrieval]
            assert list(args[4]) == ks
            # Each rate is the one a single-k call on the same sets gives.
            for column, k in zip(retrieval, ks):
                assert row[f"{name}:{column}"] == metrics.rank_k(*args[:4], k)


    def test_scale_scores_row_equals_the_dense_ranking(self, tmp_path, monkeypatch):
        # 1,600 probes against 1,600 gallery rows per fine task: many
        # blocks, and the same row as the whole similarity matrix gives.
        from test_metrics import dense_rank_k

        config = eval_layout("scale-scores", 72025, tmp_path / "out")
        train_corpus, eval_corpus = build_splits(config)
        params = init_encoder(config)
        row = score_params(params, train_corpus, eval_corpus, config)
        monkeypatch.setattr(scoring, "rank_k", dense_rank_k)
        assert row == score_params(params, train_corpus, eval_corpus, config)

    @pytest.mark.parametrize("seed", range(3))
    def test_any_row_order_gives_rank_k_a_grouped_gallery(self, tmp_path, seed):
        # rank_k refuses a gallery out of id order. Both galleries the
        # scores build, train-class centroids and the gallery half of the
        # split, are grouped by class whatever order the rows come in.
        config = tiny_config(tmp_path / "out")
        config.evaluation.far_values = [0.001, 0.01]
        train_corpus, eval_corpus = build_splits(config)
        rng = np.random.default_rng(seed)

        def shuffled(data):
            order = rng.permutation(data.n_samples)
            features, labels = data.features[order], data.labels[order]
            return dataclasses.replace(data, features=features, labels=labels)

        train_corpus.tasks = {name: shuffled(d) for name, d in train_corpus.tasks.items()}
        embedder = encoder_embedder(init_encoder(config))
        centroids = class_centroids(embedder, train_corpus)
        regimes = set()
        for name, data in eval_corpus.tasks.items():
            data = shuffled(data)
            row = scoring.task_scores(data, embedder(data), config, centroids.get(name))
            assert list(row) == [f"{name}:{c}" for c in self.COLUMNS[data.regime]]
            regimes.add(data.regime)
        assert regimes == set(self.COLUMNS)


def loop_probe_gallery_split(labels):
    """The split as a loop over classes: even members of each class to the
    gallery, odd ones to the probes."""
    gallery, probe = [], []
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        gallery.extend(rows[0::2])
        probe.extend(rows[1::2])
    return np.asarray(probe, dtype=np.intp), np.asarray(gallery, dtype=np.intp)


def random_labels(seed):
    """Unsorted labels over few or many classes, so some are singletons."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    return rng.integers(0, int(rng.integers(1, n + 1)), n)


@pytest.mark.parametrize(
    "labels",
    [[4], [7, 7, 7, 7, 7], [3, 1, 2], [5, 0, 5, 0, 0, 9, 5], [2, 2, 0, 1, 1, 1]]
    + [random_labels(seed) for seed in range(20)],
)
def test_probe_gallery_split_matches_the_class_loop(labels):
    labels = np.asarray(labels)
    probe, gallery = _probe_gallery_split(labels)
    expected_probe, expected_gallery = loop_probe_gallery_split(labels)
    np.testing.assert_array_equal(probe, expected_probe)
    np.testing.assert_array_equal(gallery, expected_gallery)
    # Class-grouped gallery: the ids rank_k reduces run by run.
    assert (np.diff(labels[gallery]) >= 0).all()


def fresh_interpreter(code: str) -> str:
    """The last line ``code`` prints, run by a fresh interpreter that imports
    the package from this tree."""
    src = str(Path(taskweave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def loaded(modules) -> str:
    """Code that prints which of ``modules`` the interpreter has loaded."""
    return f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"


def test_import_skips_scipy_optimize():
    code = "import sys, taskweave.experiments; " + loaded(["scipy.optimize"])
    assert fresh_interpreter(code) == "[]"


def test_import_loads_no_process_pools():
    # The window probes fork with os alone; multiprocessing or
    # concurrent.futures would add to every start-up and to the peak RSS.
    code = "import sys, taskweave.experiments; " + loaded(["multiprocessing", "concurrent.futures"])
    assert fresh_interpreter(code) == "[]"


def test_no_command_loads_numpy_ma(tmp_path):
    # Plain np.unique(x) imports numpy.ma for its masked-array check: about
    # 1.2 MB resident and 14 ms. One CPU keeps the window probes and the
    # fine-tunes in this process, so every path the commands take runs here.
    config = tiny_config(tmp_path / "run")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    assert config.evaluation.suites == ["scores", "geometry"]
    commands = [
        ["gen", "-c", str(path), "-o", str(tmp_path / "gen")],
        ["train", "-c", str(path)],
        ["eval", config.output_dir],
        ["analyze", config.output_dir],
        ["compare-forgetting", "-c", str(path), "-o", str(tmp_path / "forgetting")],
        ["score-table", "--mode", "expert"],
        ["score-table", "--mode", "human"],
    ]
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from taskweave.cli import main\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
        + loaded(["numpy.ma", "scipy.optimize", "multiprocessing", "concurrent.futures"])
    )
    assert fresh_interpreter(code) == "[]"
    assert (tmp_path / "run" / "analyze" / "summary.json").exists()
    assert (tmp_path / "forgetting" / "forgetting_report.json").exists()


class TestValidateOnEntry:
    """A config changed in code after it was built is validated before the
    output directory is touched: an earlier run's summary stays."""

    def earlier_run(self, tmp_path) -> Path:
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text("{}")
        return out

    STOCK_GOALS = {"objects": 0.95, "faces_hq": 0.95, "faces_lq": 0.9, "persons": 0.95}
    MARGIN_RULE = "config.margin must be a finite number >= 0"
    # (section, field, value, error, match): settings that the trainers, the
    # loaders, the corpus build or the geometry suite would reject, or, for
    # projection_max_pcs = 0, accept with empty projection tables. The
    # section is the field's path below ``config``: "" for a top-level
    # field, "corpus.tasks[i]" for a task's. A NaN passes every comparison
    # that does not ask for a finite number, and json reads the NaN literal.
    BAD_SETTINGS = {
        "seed": ("", "seed", -1, ValidationError, "config.seed"),
        "ambient_dim": ("", "ambient_dim", 0, ValidationError, "config.corpus.ambient_dim"),
        "margin": ("", "margin", -1.0, ValidationError, MARGIN_RULE),
        "margin_nan": ("", "margin", float("nan"), ValidationError, MARGIN_RULE),
        "margin_inf": ("", "margin", float("inf"), ValidationError, MARGIN_RULE),
        "classes": (
            "corpus.tasks[0]", "classes", 1, ValidationError, r"config.corpus.tasks\[0\].classes",
        ),
        "samples_per_class": (
            "corpus.tasks[3]", "samples_per_class", 1, ValidationError,
            r"config.corpus.tasks\[3\].samples_per_class",
        ),
        "within_class_spread": (
            "corpus.tasks[3]", "within_class_spread", -0.1, ValidationError,
            r"config.corpus.tasks\[3\].within_class_spread",
        ),
        "within_class_spread_nan": (
            "corpus.tasks[3]", "within_class_spread", float("nan"), ValidationError,
            r"config.corpus.tasks\[3\].within_class_spread",
        ),
        "between_class_spread": (
            "corpus.tasks[3]", "between_class_spread", 0.0, ValidationError,
            r"config.corpus.tasks\[3\].between_class_spread",
        ),
        "between_class_spread_nan": (
            "corpus.tasks[3]", "between_class_spread", float("nan"), ValidationError,
            r"config.corpus.tasks\[3\].between_class_spread",
        ),
        "between_class_spread_inf": (
            "corpus.tasks[3]", "between_class_spread", float("inf"), ValidationError,
            r"config.corpus.tasks\[3\].between_class_spread",
        ),
        # tasks[2] is the degraded twin, the one task whose noise may be set.
        "degradation_noise": (
            "corpus.tasks[2]", "degradation_noise", -0.1, ValidationError,
            r"config.corpus.tasks\[2\].degradation_noise",
        ),
        "degradation_noise_nan": (
            "corpus.tasks[2]", "degradation_noise", float("nan"), ValidationError,
            r"config.corpus.tasks\[2\].degradation_noise",
        ),
        "degradation_noise_inf": (
            "corpus.tasks[2]", "degradation_noise", float("inf"), ValidationError,
            r"config.corpus.tasks\[2\].degradation_noise",
        ),
        "epsilon": ("curriculum", "epsilon", 0.0, ValidationError, "config.curriculum.epsilon"),
        "epsilon_nan": (
            "curriculum", "epsilon", float("nan"), ValidationError, "config.curriculum.epsilon",
        ),
        "epsilon_inf": (
            "curriculum", "epsilon", float("inf"), ValidationError, "config.curriculum.epsilon",
        ),
        "floor": ("curriculum", "floor", 0.3, ValidationError, "config.curriculum.floor"),
        "floor_nan": (
            "curriculum", "floor", float("nan"), ValidationError, "config.curriculum.floor",
        ),
        "goal_value": (
            "curriculum", "goals", {**STOCK_GOALS, "faces_lq": 1.5}, ValidationError,
            r"config.curriculum.goals\['faces_lq'\]",
        ),
        "goal_value_nan": (
            "curriculum", "goals", {**STOCK_GOALS, "faces_lq": float("nan")}, ValidationError,
            r"config.curriculum.goals\['faces_lq'\]",
        ),
        "missing_goal": (
            "curriculum", "goals", {t: g for t, g in STOCK_GOALS.items() if t != "persons"},
            ValidationError,
            r"config.curriculum.goals has no goal for tasks \['persons'\]",
        ),
        "subsample": (
            "curriculum", "subsample", {"persons": 0.0}, ValidationError,
            r"config.curriculum.subsample\['persons'\]",
        ),
        "subsample_nan": (
            "curriculum", "subsample", {"persons": float("nan")}, ValidationError,
            r"config.curriculum.subsample\['persons'\]",
        ),
        "accuracy_cadence": (
            "curriculum", "accuracy_cadence", 0, ValidationError,
            "config.curriculum.accuracy_cadence",
        ),
        "probe_batches": (
            "curriculum", "probe_batches", 0, ValidationError, "config.curriculum.probe_batches",
        ),
        "variance_fraction": (
            "evaluation", "variance_fraction", 1.5, ValidationError, "variance_fraction",
        ),
        "variance_fraction_nan": (
            "evaluation", "variance_fraction", float("nan"), ValidationError,
            "config.evaluation.variance_fraction",
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
        "learning_rate_nan": (
            "optimizer", "learning_rate", float("nan"), ValidationError,
            "config.optimizer.learning_rate",
        ),
        "beta1": ("optimizer", "beta1", 1.5, ValidationError, "config.optimizer.beta1"),
        "beta1_nan": (
            "optimizer", "beta1", float("nan"), ValidationError, "config.optimizer.beta1",
        ),
        "beta2": ("optimizer", "beta2", 1.0, ValidationError, "config.optimizer.beta2"),
        "beta2_nan": (
            "optimizer", "beta2", float("nan"), ValidationError, "config.optimizer.beta2",
        ),
        "adam_epsilon": ("optimizer", "epsilon", 0.0, ValidationError, "config.optimizer.epsilon"),
        "adam_epsilon_nan": (
            "optimizer", "epsilon", float("nan"), ValidationError, "config.optimizer.epsilon",
        ),
        "weight_decay": (
            "optimizer", "weight_decay", -1e-6, ValidationError, "config.optimizer.weight_decay",
        ),
        "weight_decay_nan": (
            "optimizer", "weight_decay", float("nan"), ValidationError,
            "config.optimizer.weight_decay",
        ),
        # A negative width used to fail in numpy after config.json and the
        # train corpus were written, and a zero width to train.
        "hidden_dims": (
            "encoder", "hidden_dims", [-3], ValidationError, r"config.encoder.hidden_dims\[0\]",
        ),
        "hidden_dims_zero": (
            "encoder", "hidden_dims", [16, 0], ValidationError, r"config.encoder.hidden_dims\[1\]",
        ),
        "embedding_dim": (
            "encoder", "embedding_dim", 0, ValidationError, "config.encoder.embedding_dim",
        ),
        # tiny_config's fewest classes is 6.
        "identities": ("batch", "identities", 7, ValidationError, "config.batch.identities"),
        "positives": ("batch", "positives", 1, ValidationError, "config.batch.positives"),
        "batches_per_task": (
            "curriculum", "batches_per_task", 0, ValidationError,
            "config.curriculum.batches_per_task",
        ),
        "steps_per_epoch": (
            "curriculum", "steps_per_epoch", 0, ValidationError,
            "config.curriculum.steps_per_epoch",
        ),
        "epochs": ("training", "epochs", 0, ValidationError, "config.training.epochs"),
        "verification_pairs": (
            "evaluation", "verification_pairs", 4, ValidationError,
            "config.evaluation.verification_pairs",
        ),
        "far_values": (
            "evaluation", "far_values", [1e-2, 1.0], ValidationError,
            "config.evaluation.far_values",
        ),
        "far_values_nan": (
            "evaluation", "far_values", [1e-2, float("nan")], ValidationError,
            r"config.evaluation.far_values\[1\]",
        ),
        "probe_window": (
            "evaluation", "probe_window", 9, ValidationError, "config.evaluation.probe_window",
        ),
        "probe_folds": (
            "evaluation", "probe_folds", 1, ValidationError, "config.evaluation.probe_folds",
        ),
        "pretrain_steps": (
            "forgetting", "pretrain_steps", 0, ValidationError, "config.forgetting.pretrain_steps",
        ),
        "pretrain_batches_per_step": (
            "forgetting", "pretrain_batches_per_step", 0, ValidationError,
            "config.forgetting.pretrain_batches_per_step",
        ),
        "finetune_epochs": (
            "forgetting", "finetune_epochs", 0, ValidationError,
            "config.forgetting.finetune_epochs",
        ),
    }
    # Numeric fields that declare no range, each with the reason.
    UNRANGED: dict[tuple[str, str], str] = {
        ("", "ambient_dim"): (
            "its range is declared once, on CorpusSpec.ambient_dim, which validate() "
            "checks as config.corpus.ambient_dim"
        ),
    }

    def test_every_numeric_field_has_a_bad_setting(self):
        # A numeric field added to the config, a section or a task recipe
        # fails here until it declares its range and BAD_SETTINGS holds a
        # value out of it, or UNRANGED says why it has no range. The bad
        # values are written by hand, not derived from the declarations.
        def numeric(hint):
            return hint in (int, float) or any(numeric(arg) for arg in get_args(hint))

        config = tiny_config("unused")
        owners = {"": config, "corpus.tasks": config.tasks[0]}
        for f in dataclasses.fields(config):
            if dataclasses.is_dataclass(getattr(config, f.name)):
                owners[f.name] = getattr(config, f.name)
        ranged = {}
        for section, owner in owners.items():
            hints = get_type_hints(type(owner))
            for f in dataclasses.fields(owner):
                if numeric(hints[f.name]):
                    ranged[(section, f.name)] = "range" in f.metadata
        covered = {
            (re.sub(r"\[\d+\]", "", section), field)
            for section, field, *_ in self.BAD_SETTINGS.values()
        }
        walked = {("", "margin"), ("encoder", "hidden_dims"), ("corpus.tasks", "classes")}
        assert walked <= ranged.keys()
        assert sorted(key for key, has in ranged.items() if not has) == sorted(self.UNRANGED)
        assert sorted(key for key, has in ranged.items() if has and key not in covered) == []
        assert covered <= ranged.keys()

    @pytest.mark.parametrize("setting", sorted(BAD_SETTINGS))
    @pytest.mark.parametrize("entry", [run, run_forgetting_comparison], ids=lambda f: f.__name__)
    def test_every_setting_fails_before_any_file(self, tmp_path, entry, setting):
        section, field, value, error, match = self.BAD_SETTINGS[setting]
        out = self.earlier_run(tmp_path)
        config = tiny_config(out)
        set_field(config, ".".join(filter(None, ["config", section, field])), value)
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

    def test_zero_finetune_leaves_models_identical(self, tmp_path, monkeypatch):
        # validate() rejects a fine-tune of zero epochs, so the comparison
        # takes this config as it is.
        monkeypatch.setattr(experiments, "overridden", lambda config, seed, output_dir: config)
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


class TestScoringCore:
    """The scores are functions of embeddings: a stock run embeds its eval
    split once for both suites, and the raw inputs score with no encoder."""

    @pytest.fixture(scope="class")
    def stock_run(self, tmp_path_factory):
        """A stock ``run()`` with both suites, and for each ``embed`` call
        it made whether it came from outside a training step."""
        outside: list[bool] = []
        depth = [0]
        train_step = Trainer.train_step

        def counted_step(trainer, *args, **kwargs):
            depth[0] += 1
            try:
                return train_step(trainer, *args, **kwargs)
            finally:
                depth[0] -= 1

        def counted_embed(params, features):
            outside.append(depth[0] == 0)
            return embed(params, features)

        config = default_config(output_dir=str(tmp_path_factory.mktemp("stock")))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trainer, "train_step", counted_step)
            for name, module in list(sys.modules.items()):
                if name.startswith("taskweave") and getattr(module, "embed", None) is embed:
                    patch.setattr(module, "embed", counted_embed)
            result = run(config)
        return config, result, outside

    def test_a_run_embeds_each_eval_task_once(self, stock_run):
        config, _, outside = stock_run
        assert config.evaluation.suites == ["scores", "geometry"]
        # Four eval tasks and the one coarse train task behind the centroids.
        assert sum(outside) == 5

    def test_raw_inputs_score_like_a_trained_encoder(self, stock_run):
        config, result, _ = stock_run
        train_corpus, eval_corpus = build_splits(config)

        def raw_inputs(data):
            return data.features / np.linalg.norm(data.features, axis=1, keepdims=True)

        centroids = class_centroids(raw_inputs, train_corpus)
        row = evaluate_row(raw_inputs, eval_corpus, centroids, config)
        assert list(row) == list(result.results["scores"])
        assert all(np.isfinite(v) for v in row.values())

        pooled = np.vstack([raw_inputs(d) for d in eval_corpus.tasks.values()])
        sizes = [d.n_samples for d in eval_corpus.tasks.values()]
        raw = dict(zip(eval_corpus.tasks, np.split(pooled, np.cumsum(sizes)[:-1])))
        pairs = {n: verification_pair_plan(d, config) for n, d in eval_corpus.tasks.items()}
        tables, summary = geometry_headlines(pooled, raw, pairs, config)
        geometry = {rel for rel in result.artifacts if rel.startswith("geometry/")}
        assert {path for path, _ in tables} == geometry - {"geometry/summary.json"}
        assert summary.keys() == result.results["geometry"].keys()
        # The tasks sit in disjoint ambient blocks, so the task probe needs
        # no training to separate them.
        assert summary["task_probe_accuracy_mean"] == 1.0


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
        config = tiny_config(tmp_path / "out")
        config.curriculum.subsample = {"persons": 0.5}
        train_corpus, _ = build_splits(config)
        seed = derive_seed(config.seed, "t")
        trainer = Trainer(config, "balanced", train_corpus.tasks, init_encoder(config), seed)
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

    def test_non_finite_config_value_exits_2_and_writes_nothing(self, tmp_path):
        # json reads the NaN literal; a NaN epsilon used to pass validation
        # and exit 3 when config.json was written.
        path = self.write_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["curriculum"]["epsilon"] = float("nan")
        path.write_text(json.dumps(payload))
        assert '"epsilon": NaN' in path.read_text()
        before = tree_bytes(tmp_path)
        result = CliRunner().invoke(main, ["train", "-c", str(path)])
        assert result.exit_code == 2, result.output
        assert "config.curriculum.epsilon must be a finite number > 0, got nan" in result.output
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize(
        "error, status", [(ValidationError, 2), (ContractError, 2), (NumericError, 3)]
    )
    def test_each_error_class_ends_with_its_exit_status(self, error, status):
        with mock.patch.object(experiments, "run", side_effect=error("refused")):
            result = CliRunner().invoke(main, ["train"])
        assert result.exit_code == status, result.output
        assert "error: refused" in result.output

    def test_gen(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["gen", "-c", str(self.write_config(tmp_path))])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "corpus" / "manifest.json").exists()

    def test_gen_leaves_its_own_summary(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "gen"
        args = ["gen", "-c", str(config), "--seed", "5", "-o", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        generated = json.loads((out / "summary.json").read_text())
        corpora = sorted(
            str(p.relative_to(out)) for d in ("corpus", "corpus_eval") for p in (out / d).iterdir()
        )
        assert generated["command"] == "gen"
        assert generated["seed"] == 5
        assert generated["artifacts"] == corpora
        train, held_out = build_splits(
            dataclasses.replace(ExperimentConfig.from_file(config), seed=5)
        )
        assert generated["results"] == {
            "samples": {"train": train.n_samples, "eval": held_out.n_samples}
        }
        # gen may rewrite its own tree.
        assert runner.invoke(main, args).exit_code == 0
        assert json.loads((out / "summary.json").read_text()) == generated

    @pytest.mark.parametrize("tree", ["", "eval"])
    def test_gen_refuses_another_commands_tree(self, tmp_path, tree):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        assert runner.invoke(main, ["eval", str(out)]).exit_code == 0
        before = tree_bytes(tmp_path)

        args = ["gen", "-c", str(config), "--seed", "5", "-o", str(out / tree)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "another command's summary.json" in result.output
        assert tree_bytes(tmp_path) == before

    def test_eval_and_analyze_reproduce_the_run(self, tmp_path):
        # A run at a seed other than the stock one: its own corpora, not the
        # stock config's, must be scored.
        runner = CliRunner()
        run_dir = tmp_path / "R"
        result = runner.invoke(main, ["train", "--seed", "5", "-o", str(run_dir)])
        assert result.exit_code == 0, result.output
        trained = tree_bytes(run_dir)
        listed = json.loads(trained["summary.json"])["artifacts"]
        for command in ("eval", "analyze"):
            result = runner.invoke(main, [command, str(run_dir)])
            assert result.exit_code == 0, result.output

        after = tree_bytes(run_dir)
        assert after["eval/tables/metrics.csv"] == trained["tables/metrics.csv"]
        geometry = {rel: data for rel, data in trained.items() if rel.startswith("geometry/")}
        assert len(geometry) == 8
        assert {
            rel.removeprefix("analyze/"): data
            for rel, data in after.items()
            if rel.startswith("analyze/geometry/")
        } == geometry
        for rel in [*listed, "summary.json"]:
            assert after[rel] == trained[rel], rel
        assert all(rel.startswith(("eval/", "analyze/")) for rel in set(after) - set(trained))

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_scoring_holds_the_loaded_eval_split_alone(self, tmp_path, monkeypatch, command):
        # The eval split that eval and analyze load is handed to scoring
        # alone, so each task's features die once it is embedded, and none
        # is alive when the geometry suite starts.
        runner = CliRunner()
        config = self.write_config(tmp_path)
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        features, alive_at_suite = [], []
        load_run, geometry_suite = experiments.load_run, experiments.geometry_suite

        def tracked_load_run(*args):
            loaded = load_run(*args)
            features.extend(weakref.ref(d.features) for d in loaded[2].tasks.values())
            return loaded

        def checked_geometry_suite(*args):
            alive_at_suite.append([ref() is not None for ref in features])
            return geometry_suite(*args)

        monkeypatch.setattr(experiments, "load_run", tracked_load_run)
        monkeypatch.setattr(experiments, "geometry_suite", checked_geometry_suite)
        earlier_alive = alive_before_each_embed(monkeypatch, features)
        result = runner.invoke(main, [command, str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert earlier_alive == [[False] * task for task in range(4)]
        assert alive_at_suite == ([[False] * 4] if command == "analyze" else [])

    def test_train_then_eval_and_analyze(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", "-c", str(config)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["eval", str(out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "analyze" / "geometry" / "principal_angles.csv").exists()

    def test_eval_and_analyze_leave_their_own_summaries(self, tmp_path):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        trained = (out / "summary.json").read_bytes()
        checkpoint = str(out / "checkpoints" / "encoder_final.npz")

        result = runner.invoke(main, ["eval", str(out)])
        assert result.exit_code == 0, result.output
        evaluated = json.loads((out / "eval" / "summary.json").read_text())
        train_summary = json.loads(trained)
        assert evaluated["command"] == "eval"
        assert evaluated["checkpoint"] == checkpoint
        assert evaluated["artifacts"] == ["tables/metrics.csv"]
        # The same parameters, corpora and pairs, under the same model name:
        # the train run's scores and floored cells.
        assert evaluated["results"] == train_summary["results"]["scores"]
        assert evaluated["floored_cells"] == train_summary["floored_cells"]

        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 0, result.output
        analyzed = json.loads((out / "analyze" / "summary.json").read_text())
        assert analyzed["command"] == "analyze"
        assert analyzed["checkpoint"] == checkpoint
        geometry = out / "analyze" / "geometry"
        assert analyzed["artifacts"] == sorted(
            str(p.relative_to(out / "analyze")) for p in geometry.iterdir()
        )
        assert analyzed["results"] == json.loads((geometry / "summary.json").read_text())
        assert (out / "summary.json").read_bytes() == trained

    @pytest.mark.parametrize(
        "command, target", [("gen", "build_splits"), ("eval", "rows_to_table"), ("analyze", "pca")]
    )
    def test_failed_command_leaves_no_summary(self, tmp_path, monkeypatch, command, target):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        if command == "gen":
            args, tree = ["gen", "-c", str(config)], out
        else:
            assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
            args, tree = [command, str(out)], out / command
        assert runner.invoke(main, args).exit_code == 0
        assert (tree / "summary.json").exists()

        def fail(*args, **kwargs):
            raise NumericError("injected failure")

        # Fails after the command has started rewriting files.
        monkeypatch.setattr(scoring if target == "pca" else experiments, target, fail)
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "injected failure" in result.output
        assert not (tree / "summary.json").exists()
        if command != "gen":
            assert (out / "summary.json").exists()

    def test_eval_without_checkpoint_fails_cleanly(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "out"
        config = self.write_config(tmp_path)
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        (out / "checkpoints" / "encoder_final.npz").unlink()
        result = runner.invoke(main, ["eval", str(out)])
        assert result.exit_code == 2
        assert "checkpoint" in result.output
        assert not (out / "eval").exists()

    def break_run(self, tmp_path, case: str) -> list[str]:
        """Spoil one input of the trained run ``out`` and return the
        arguments that then read it."""
        runner = CliRunner()
        out = tmp_path / "out"
        ckpt = out / "checkpoints" / "encoder_final.npz"
        if case == "other layer shapes":
            other = RunResult(tmp_path / "other")
            save_checkpoint(init_encoder(default_config()), other, "stock.npz")
            return ["--checkpoint", str(other.output_dir / "stock.npz")]
        if case == "not an npz":
            bad = tmp_path / "bad.npz"
            bad.write_text("not a checkpoint")
            return ["--checkpoint", str(bad)]
        if case == "one array":
            np.save(tmp_path / "bad.npy", np.zeros(3))
            return ["--checkpoint", str(tmp_path / "bad.npy")]
        if case in ("no w1", "no version"):
            arrays = dict(np.load(ckpt))
            del arrays[case.removeprefix("no ")]
            np.savez(tmp_path / "bad.npz", **arrays)
            return ["--checkpoint", str(tmp_path / "bad.npz")]
        if case == "corpus of another seed":
            config = str(tmp_path / "config.json")
            args = ["gen", "-c", config, "--seed", "6", "-o", str(tmp_path / "g")]
            assert runner.invoke(main, args).exit_code == 0
            shutil.rmtree(out / "corpus")
            shutil.copytree(tmp_path / "g" / "corpus", out / "corpus")
        elif case == "splits swapped":
            (out / "corpus").rename(tmp_path / "swap")
            (out / "corpus_eval").rename(out / "corpus")
            (tmp_path / "swap").rename(out / "corpus_eval")
        elif case == "corpus file missing":
            (out / "corpus_eval" / "persons.npy").unlink()
        elif case == "features of another shape":
            features = np.load(out / "corpus" / "objects.npy")
            np.save(out / "corpus" / "objects.npy", features[:-1])
        elif case == "features of another dtype":
            features = np.load(out / "corpus" / "objects.npy")
            np.save(out / "corpus" / "objects.npy", features.astype(np.float32))
        elif case == "version-1 manifest":
            manifest = json.loads((out / "corpus" / "manifest.json").read_text())
            manifest["manifest_version"] = 1
            (out / "corpus" / "manifest.json").write_text(json.dumps(manifest))
        elif case == "tasks not a list of objects":
            manifest = json.loads((out / "corpus_eval" / "manifest.json").read_text())
            manifest["tasks"] = [5]
            (out / "corpus_eval" / "manifest.json").write_text(json.dumps(manifest))
        elif case == "negative ambient_dim":
            manifest = json.loads((out / "corpus_eval" / "manifest.json").read_text())
            manifest["ambient_dim"] = -1
            (out / "corpus_eval" / "manifest.json").write_text(json.dumps(manifest))
        elif case == "features unlisted":
            summary = json.loads((out / "summary.json").read_text())
            summary["artifacts"].remove("corpus/objects.npy")
            (out / "summary.json").write_text(json.dumps(summary))
        elif case == "no summary.json":
            (out / "summary.json").unlink()
        elif case == "summary.json not JSON":
            (out / "summary.json").write_text("{")
        elif case == "final checkpoint unlisted":
            summary = json.loads((out / "summary.json").read_text())
            summary["artifacts"].remove("checkpoints/encoder_final.npz")
            (out / "summary.json").write_text(json.dumps(summary))
        elif case == "config with total_batches":
            # A config of the balanced epoch rule's lab.
            payload = json.loads((out / "config.json").read_text())
            payload["curriculum"]["total_batches"] = None
            (out / "config.json").write_text(json.dumps(payload))
        else:  # no config.json
            (out / "config.json").unlink()
        return []

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("other layer shapes", "do not fit"),
            ("not an npz", "bad.npz is not an npz checkpoint"),
            ("one array", "bad.npy is one array, not an npz checkpoint"),
            ("no w1", "bad.npz: w1"),
            ("no version", "bad.npz: version"),
            ("corpus of another seed", "train corpus saved is not its config's"),
            ("splits swapped", "train corpus saved is not its config's"),
            ("corpus file missing", "persons.npy"),
            ("features of another shape", "task 'objects': stored shape mismatch"),
            ("features of another dtype", "task 'objects': stored dtype float32, not float64"),
            ("version-1 manifest", "unsupported corpus manifest version 1"),
            ("tasks not a list of objects", "tasks must be a list of JSON objects"),
            ("negative ambient_dim", "corpus.ambient_dim must be an integer >= 1, got -1"),
            ("features unlisted", "corpus/objects.npy is not listed in"),
            ("no config.json", "config.json"),
            ("config with total_batches", "unknown key(s) ['total_batches'] in config.curriculum"),
            ("no summary.json", "summary.json: No such file or directory (an unfinished run)"),
            ("summary.json not JSON", "summary.json does not list the run's files"),
            ("final checkpoint unlisted", "encoder_final.npz is not listed in"),
        ],
    )
    def test_bad_run_input_exits_2_and_writes_nothing(self, tmp_path, command, case, message):
        runner = CliRunner()
        out = tmp_path / "out"
        config = self.write_config(tmp_path)
        assert runner.invoke(main, ["train", "-c", str(config)]).exit_code == 0
        # An earlier summary of the command must survive the refusal too.
        assert runner.invoke(main, [command, str(out)]).exit_code == 0
        extra = self.break_run(tmp_path, case)
        before = tree_bytes(tmp_path)
        result = runner.invoke(main, [command, str(out), *extra])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_run_replaced_by_a_forgetting_comparison_is_refused(self, tmp_path, command):
        # The comparison deletes the train run's config.json and final
        # checkpoint, and its summary.json does not list them.
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        for first in ("train", "compare-forgetting"):
            assert runner.invoke(main, [first, "-c", str(config)]).exit_code == 0
        assert not (out / "checkpoints" / "encoder_final.npz").exists()
        before = tree_bytes(tmp_path)
        result = runner.invoke(main, [command, str(out)])
        assert result.exit_code == 2, result.output
        assert f"{out / 'config.json'} is not listed in {out / 'summary.json'}" in result.output
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize(
        "first, second", [("train", "compare-forgetting"), ("compare-forgetting", "train")]
    )
    def test_a_tree_rewritten_by_another_command_is_a_fresh_tree(self, tmp_path, first, second):
        runner = CliRunner()
        config = str(self.write_config(tmp_path))
        out = tmp_path / "out"
        for command in (first, second):
            assert runner.invoke(main, [command, "-c", config]).exit_code == 0
        rewritten = tree_bytes(out)
        shutil.rmtree(out)
        assert runner.invoke(main, [second, "-c", config]).exit_code == 0
        assert rewritten == tree_bytes(out)

    def test_a_comparison_over_a_run_leaves_no_empty_directory(self, tmp_path):
        runner = CliRunner()
        config = str(self.write_config(tmp_path))
        target = tmp_path / "t"
        for command in ("train", "compare-forgetting"):
            assert runner.invoke(main, [command, "-c", config, "-o", str(target)]).exit_code == 0
        rewritten = dirs_under(target)
        assert [d for d in rewritten if not any((target / d).iterdir())] == []
        fresh = tmp_path / "fresh"
        result = runner.invoke(main, ["compare-forgetting", "-c", config, "-o", str(fresh)])
        assert result.exit_code == 0
        assert rewritten == dirs_under(fresh)

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_forgetting_tree_is_not_a_run(self, tmp_path, command):
        runner = CliRunner()
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["compare-forgetting", "-c", str(config)]).exit_code == 0
        before = tree_bytes(tmp_path)
        result = runner.invoke(main, [command, str(out)])
        assert result.exit_code == 2, result.output
        assert str(out / "config.json") in result.output
        assert tree_bytes(tmp_path) == before

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
        result = runner.invoke(main, ["eval", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "non-finite" in result.output

    def test_non_finite_json_exit_code(self, tmp_path, monkeypatch):
        runner = CliRunner()
        config_path = self.write_config(tmp_path)
        assert runner.invoke(main, ["train", "-c", str(config_path)]).exit_code == 0
        monkeypatch.setattr(
            scoring, "linear_task_probe", lambda *a, **k: (float("nan"), 0.0)
        )
        result = runner.invoke(main, ["analyze", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "geometry/summary.json" in result.output
        assert not (tmp_path / "out" / "analyze" / "geometry" / "summary.json").exists()

    @pytest.mark.parametrize("pipeline", ["train", "compare-forgetting"])
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_training_over_a_scored_run_exits_2_and_writes_nothing(
        self, tmp_path, command, pipeline
    ):
        runner = CliRunner()
        config = str(self.write_config(tmp_path))
        run_dir = str(tmp_path / "R")
        result = runner.invoke(main, ["train", "-c", config, "--seed", "5", "-o", run_dir])
        assert result.exit_code == 0, result.output
        assert runner.invoke(main, [command, run_dir]).exit_code == 0
        before = tree_bytes(tmp_path)
        result = runner.invoke(main, [pipeline, "-c", config, "--seed", "6", "-o", run_dir])
        assert result.exit_code == 2, result.output
        assert f"{command}/summary.json" in result.output
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize(
        "text",
        ['{\n  "lfw_acc": 0.983,\n', '{"lfw_acc": "x"}', '{"lfw_acc": NaN}', "[1, 2]"],
        ids=["truncated", "string", "nan", "list"],
    )
    def test_bad_human_refs_exit_2(self, tmp_path, text):
        path = tmp_path / "refs.json"
        path.write_text(text)
        args = ["score-table", "--mode", "human", "--human-refs", str(path)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"error: {path}" in result.output

    @pytest.mark.parametrize(
        "text",
        ["", "\nmodel,x\na,0.5\n", "model,x\na,abc\n", "model,x,y\na,0.5\n", "model,x\na,1.5\n"],
        ids=["empty", "blank-header", "word", "short-row", "out-of-range"],
    )
    def test_bad_score_table_exit_2(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        result = CliRunner().invoke(main, ["score-table", "--table", str(path)])
        assert result.exit_code == 2, result.output
        assert f"error: {path}" in result.output

    def test_human_refs_file_ranks_like_the_bundled_one(self, tmp_path):
        path = tmp_path / "refs.json"
        path.write_text(json.dumps(experiments.load_human_references()))
        runner = CliRunner()
        bundled = runner.invoke(main, ["score-table", "--mode", "human"])
        given = runner.invoke(main, ["score-table", "--mode", "human", "--human-refs", str(path)])
        assert bundled.exit_code == given.exit_code == 0
        assert given.output == bundled.output

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
