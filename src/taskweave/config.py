"""Experiment configuration: JSON with an explicit schema version.

Unknown keys are errors (silent typos are the main reproducibility hazard).
A single master seed fans out to every submodule through named substreams,
so adding one consumer never perturbs another's randomness.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .datagen import CorpusSpec, TaskGenSpec, check_types
from .errors import ConfigurationError, ValidationError

SCHEMA_VERSION = 1


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ValidationError(f"{path} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {path}")


def _section(cls, section: dict, path: str):
    """Build the dataclass ``cls`` from one JSON section whose keys must be
    among its fields and include each field that has no default."""
    _check_keys(section, {f.name for f in fields(cls)}, path)
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING:
            _require(section, f.name, path)
    return cls(**section)


def _check_int(value: int, path: str, low: int, high: int | None = None) -> None:
    """``value`` must lie in ``[low, high]``."""
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{path} must be an integer {bounds}, got {value!r}")


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ValidationError(f"missing required key {path}.{key}")
    return section[key]


@dataclass
class EncoderConfig:
    hidden_dims: list[int] = field(default_factory=lambda: [32])
    embedding_dim: int = 16


@dataclass
class OptimizerConfig:
    learning_rate: float = 3e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 1e-6


@dataclass
class BatchConfig:
    identities: int = 10
    positives: int = 4


@dataclass
class CurriculumConfig:
    """Training-schedule settings, read directly by every ``Trainer``.

    ``goals`` maps task name to target accuracy in (0, 1]. ``batches_per_task``
    is the balanced-mode per-task batch count; ``total_batches`` the adaptive-
    mode step budget (defaults to n_tasks * batches_per_task so the two modes
    consume equal data per step). ``subsample`` maps a task to the fraction
    of its samples that its loaders draw from, in every run.
    """

    mode: str = "balanced"
    goals: dict[str, float] = field(default_factory=dict)
    batches_per_task: int = 1
    total_batches: int | None = None
    epsilon: float = 1e-8
    floor: float = 0.05
    accuracy_cadence: int = 1
    probe_batches: int = 2
    steps_per_epoch: int | None = None
    subsample: dict[str, float] = field(default_factory=dict)

    def validate(self, task_names: Sequence[str]) -> None:
        """Scheduler settings checked against the tasks trained."""
        n_tasks = len(task_names)
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.floor < 0 or self.floor * n_tasks >= 1:
            raise ConfigurationError("floor must satisfy 0 <= floor and floor * n_tasks < 1")
        if self.batches_per_task < 1:
            raise ConfigurationError("batches_per_task must be >= 1")
        if self.total_batches is not None and self.total_batches < 1:
            raise ConfigurationError("total_batches must be >= 1")
        if self.accuracy_cadence < 1:
            raise ConfigurationError("accuracy_cadence must be >= 1")
        if self.probe_batches < 1:
            raise ConfigurationError("probe_batches must be >= 1")
        for task, goal in self.goals.items():
            if not 0.0 < goal <= 1.0:
                raise ConfigurationError(f"goal for task {task!r} must lie in (0, 1]")
        missing = sorted(set(task_names) - set(self.goals))
        if missing:
            raise ConfigurationError(f"goals missing for tasks: {missing}")


@dataclass
class TrainingConfig:
    epochs: int = 5


@dataclass
class EvaluationConfig:
    suites: list[str] = field(default_factory=lambda: ["scores", "geometry"])
    verification_pairs: int = 1500
    far_values: list[float] = field(default_factory=lambda: [1e-2, 1e-3])
    probe_window: int = 3
    probe_folds: int = 10
    variance_fraction: float = 0.99
    projection_max_pcs: int = 200


@dataclass
class ForgettingConfig:
    pretrain_task: str = ""
    pretrain_steps: int = 60
    pretrain_batches_per_step: int = 1
    finetune_epochs: int = 5


# JSON sections of the config, each loaded into its dataclass by field name.
_SECTIONS = {
    "encoder": EncoderConfig,
    "optimizer": OptimizerConfig,
    "batch": BatchConfig,
    "curriculum": CurriculumConfig,
    "training": TrainingConfig,
    "evaluation": EvaluationConfig,
    "forgetting": ForgettingConfig,
}


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str
    tasks: list[TaskGenSpec]
    ambient_dim: int
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    margin: float = 0.35
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    forgetting: ForgettingConfig = field(default_factory=ForgettingConfig)

    def corpus_spec(self, seed: int) -> CorpusSpec:
        return CorpusSpec(tasks=tuple(self.tasks), seed=seed, ambient_dim=self.ambient_dim)

    def validate(self) -> None:
        from .curriculum import ADAPTIVE, MODES

        # Every value has its field's type before any range is checked.
        check_types(self, "config.corpus", ["ambient_dim"])
        check_types(self, "config", [f.name for f in fields(self) if f.name != "ambient_dim"])
        for key in _SECTIONS:
            check_types(getattr(self, key), f"config.{key}")
        for i, task in enumerate(self.tasks):
            check_types(task, f"config.corpus.tasks[{i}]")
        _check_int(self.seed, "config.seed", 0)
        if not 0 <= self.margin < math.inf:
            raise ValidationError(
                f"config.margin must be a finite number >= 0, got {self.margin!r}"
            )
        opt = self.optimizer
        for name, ok, rule in (
            ("learning_rate", 0 < opt.learning_rate < math.inf, "a finite number > 0"),
            ("beta1", 0 <= opt.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= opt.beta2 < 1, "in [0, 1)"),
            ("epsilon", 0 < opt.epsilon < math.inf, "a finite number > 0"),
            ("weight_decay", 0 <= opt.weight_decay < math.inf, "a finite number >= 0"),
        ):
            if not ok:
                raise ValidationError(
                    f"config.optimizer.{name} must be {rule}, got {getattr(opt, name)!r}"
                )
        if self.curriculum.mode not in MODES:
            raise ValidationError(f"unknown curriculum mode {self.curriculum.mode!r}")
        bad = sorted(set(self.evaluation.suites) - {"scores", "geometry"})
        if bad:
            raise ValidationError(f"unknown evaluation suite(s) {bad} in config.evaluation")
        names = {t.name for t in self.tasks}
        self.curriculum.validate([t.name for t in self.tasks])
        for task in self.curriculum.goals:
            if task not in names:
                raise ValidationError(f"curriculum goal names unknown task {task!r}")
        for task, fraction in self.curriculum.subsample.items():
            if task not in names:
                raise ValidationError(f"subsample names unknown task {task!r}")
            if not 0.0 < fraction <= 1.0:
                raise ValidationError(
                    f"config.curriculum.subsample[{task!r}] must lie in (0, 1], got {fraction!r}"
                )
        if self.forgetting.pretrain_task and self.forgetting.pretrain_task not in names:
            raise ValidationError(
                f"forgetting pretrain_task {self.forgetting.pretrain_task!r} is not a task"
            )
        for name in ("pretrain_steps", "pretrain_batches_per_step", "finetune_epochs"):
            _check_int(getattr(self.forgetting, name), f"config.forgetting.{name}", 1)
        _check_int(self.training.epochs, "config.training.epochs", 1)
        if self.curriculum.steps_per_epoch is not None:
            _check_int(self.curriculum.steps_per_epoch, "config.curriculum.steps_per_epoch", 1)
        elif self.curriculum.mode == ADAPTIVE:
            raise ValidationError("config.curriculum.steps_per_epoch is required in adaptive mode")
        ev = self.evaluation
        # The verification accuracy splits a task's genuine and impostor
        # pairs into 10 folds, so it needs at least 5 of each.
        _check_int(ev.verification_pairs, "config.evaluation.verification_pairs", 5)
        fars = ev.far_values
        if not all(0.0 < f < 1.0 for f in fars) or len(set(fars)) < len(fars):
            raise ValidationError(
                f"config.evaluation.far_values must be distinct numbers in (0, 1), got {fars!r}"
            )
        _check_int(ev.probe_folds, "config.evaluation.probe_folds", 2)
        _check_int(ev.projection_max_pcs, "config.evaluation.projection_max_pcs", 1)
        if not 0.0 < ev.variance_fraction <= 1.0:
            raise ValidationError(
                "config.evaluation.variance_fraction must lie in (0, 1], "
                f"got {ev.variance_fraction!r}"
            )
        for i, width in enumerate(self.encoder.hidden_dims):
            _check_int(width, f"config.encoder.hidden_dims[{i}]", 1)
        _check_int(self.encoder.embedding_dim, "config.encoder.embedding_dim", 1)
        _check_int(ev.probe_window, "config.evaluation.probe_window", 1, self.encoder.embedding_dim)
        # A batch-hard batch needs a second row per id for its positives and a
        # second id for its negatives, and every task must offer P ids.
        _check_int(self.batch.positives, "config.batch.positives", 2)
        self.corpus_spec(seed=0).validate(self.batch.positives)
        fewest = min(t.classes for t in self.tasks)
        _check_int(self.batch.identities, "config.batch.identities", 2, fewest)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(
            d,
            {"schema_version", "seed", "output_dir", "corpus", "margin", *_SECTIONS},
            "config",
        )
        version = _require(d, "schema_version", "config")
        if version != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema_version {version!r}")
        corpus = _require(d, "corpus", "config")
        _check_keys(corpus, {"ambient_dim", "tasks"}, "config.corpus")
        task_sections = _require(corpus, "tasks", "config.corpus")
        if not isinstance(task_sections, list):
            raise ValidationError(
                f"config.corpus.tasks must be a JSON array, got {task_sections!r}"
            )
        tasks = [
            _section(TaskGenSpec, t, f"config.corpus.tasks[{i}]")
            for i, t in enumerate(task_sections)
        ]
        config = cls(
            seed=_require(d, "seed", "config"),
            output_dir=_require(d, "output_dir", "config"),
            tasks=tasks,
            ambient_dim=_require(corpus, "ambient_dim", "config.corpus"),
            margin=d.get("margin", 0.35),
            **{
                key: _section(section, d.get(key, {}), f"config.{key}")
                for key, section in _SECTIONS.items()
            },
        )
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "corpus": {
                "ambient_dim": self.ambient_dim,
                "tasks": [
                    {f.name: getattr(t, f.name) for f in fields(TaskGenSpec)} for t in self.tasks
                ],
            },
            "margin": self.margin,
            **{key: vars(getattr(self, key)) for key in _SECTIONS},
        }


def default_config(output_dir: str = "runs/benchmark", seed: int = 7_2025) -> ExperimentConfig:
    """The stock 4-task benchmark: one coarse task, a fine identity task with
    a degraded twin, and an intermediate task; 800 samples each."""
    tasks = [
        TaskGenSpec(
            name="objects",
            regime="coarse-category",
            classes=10,
            samples_per_class=80,
            within_class_spread=0.45,
            between_class_spread=1.0,
        ),
        TaskGenSpec(
            name="faces_hq",
            regime="fine-identity",
            classes=40,
            samples_per_class=20,
            within_class_spread=0.25,
            between_class_spread=1.0,
        ),
        TaskGenSpec(
            name="faces_lq",
            regime="fine-identity-degraded",
            classes=40,
            samples_per_class=20,
            within_class_spread=0.25,
            between_class_spread=1.0,
            degradation_noise=0.35,
            twin="faces_hq",
        ),
        TaskGenSpec(
            name="persons",
            regime="intermediate",
            classes=20,
            samples_per_class=40,
            within_class_spread=0.35,
            between_class_spread=1.0,
        ),
    ]
    config = ExperimentConfig(
        seed=seed,
        output_dir=output_dir,
        tasks=tasks,
        ambient_dim=24,
        encoder=EncoderConfig(hidden_dims=[48], embedding_dim=24),
        optimizer=OptimizerConfig(learning_rate=3e-3),
        batch=BatchConfig(identities=10, positives=4),
        margin=0.35,
        curriculum=CurriculumConfig(
            mode="balanced",
            goals={"objects": 0.95, "faces_hq": 0.95, "faces_lq": 0.9, "persons": 0.95},
            batches_per_task=1,
            steps_per_epoch=20,
        ),
        training=TrainingConfig(epochs=5),
        evaluation=EvaluationConfig(),
        forgetting=ForgettingConfig(pretrain_task="objects", pretrain_steps=60, finetune_epochs=10),
    )
    config.validate()
    return config
