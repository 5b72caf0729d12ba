"""Experiment configuration: JSON with an explicit schema version.

Unknown keys are errors (silent typos are the main reproducibility hazard).
A single master seed fans out to every submodule through named substreams,
so adding one consumer never perturbs another's randomness.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .datagen import Bound, CorpusSpec, TaskGenSpec, check_fields, ranged
from .errors import ValidationError

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


def _capped(cls, name: str, high: int) -> Bound:
    """The declared range of the field ``name`` of ``cls``, with the upper
    end ``high``: a bound that another field sets."""
    return replace(cls.__dataclass_fields__[name].metadata["range"], high=high)


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ValidationError(f"missing required key {path}.{key}")
    return section[key]


@dataclass
class EncoderConfig:
    hidden_dims: list[int] = ranged(Bound(1), default_factory=lambda: [32])
    embedding_dim: int = ranged(Bound(1), default=16)


@dataclass
class OptimizerConfig:
    learning_rate: float = ranged(Bound(0, low_open=True), default=3e-5)
    beta1: float = ranged(Bound(0, 1, high_open=True), default=0.9)
    beta2: float = ranged(Bound(0, 1, high_open=True), default=0.999)
    epsilon: float = ranged(Bound(0, low_open=True), default=1e-8)
    weight_decay: float = ranged(Bound(0), default=1e-6)


@dataclass
class BatchConfig:
    # A batch-hard batch needs a second id for its negatives and a second
    # row per id for its positives; every task must offer P ids.
    identities: int = ranged(Bound(2), default=10)
    positives: int = ranged(Bound(2), default=4)


@dataclass
class CurriculumConfig:
    """Training-schedule settings, read directly by every ``Trainer``.

    ``goals`` maps task name to target accuracy in (0, 1]. A step of either
    mode spends one group of ``n_tasks * batches_per_task`` batches: a
    balanced step ``batches_per_task`` of each task, an adaptive step that
    many slots sampled by difficulty. ``steps_per_epoch`` steps make an
    epoch in every run that trains by epochs. ``subsample`` maps a task to
    the fraction of its samples that its loaders draw from, in every run.
    """

    mode: str = "balanced"
    goals: dict[str, float] = ranged(Bound(0, 1, low_open=True), default_factory=dict)
    batches_per_task: int = ranged(Bound(1), default=1)
    epsilon: float = ranged(Bound(0, low_open=True), default=1e-8)
    floor: float = ranged(Bound(0), default=0.05)
    accuracy_cadence: int = ranged(Bound(1), default=1)
    probe_batches: int = ranged(Bound(1), default=2)
    steps_per_epoch: int = ranged(Bound(1), default=20)
    subsample: dict[str, float] = ranged(Bound(0, 1, low_open=True), default_factory=dict)

    def validate(self, task_names: Sequence[str]) -> None:
        """Each field's type and range, then the rules that depend on the
        tasks trained: ``floor * n_tasks < 1``, and a goal for every task."""
        check_fields(self, "config.curriculum")
        if self.floor * len(task_names) >= 1:
            raise ValidationError(
                "config.curriculum.floor must satisfy floor * n_tasks < 1, "
                f"got {self.floor!r} for {len(task_names)} tasks"
            )
        missing = sorted(set(task_names) - set(self.goals))
        if missing:
            raise ValidationError(f"config.curriculum.goals has no goal for tasks {missing}")


@dataclass
class TrainingConfig:
    epochs: int = ranged(Bound(1), default=5)


@dataclass
class EvaluationConfig:
    suites: list[str] = field(default_factory=lambda: ["scores", "geometry"])
    # The verification accuracy splits a task's genuine and impostor pairs
    # into 10 folds, so it needs at least 5 of each.
    verification_pairs: int = ranged(Bound(5), default=1500)
    far_values: list[float] = ranged(
        Bound(0, 1, low_open=True, high_open=True), default_factory=lambda: [1e-2, 1e-3]
    )
    probe_window: int = ranged(Bound(1), default=3)
    probe_folds: int = ranged(Bound(2), default=10)
    variance_fraction: float = ranged(Bound(0, 1, low_open=True), default=0.99)
    projection_max_pcs: int = ranged(Bound(1), default=200)


@dataclass
class ForgettingConfig:
    pretrain_task: str = ""
    pretrain_steps: int = ranged(Bound(1), default=60)
    pretrain_batches_per_step: int = ranged(Bound(1), default=1)
    finetune_epochs: int = ranged(Bound(1), default=5)


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
    seed: int = ranged(Bound(0))
    output_dir: str
    tasks: list[TaskGenSpec]
    ambient_dim: int  # its range is the corpus spec's
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    margin: float = ranged(Bound(0), default=0.35)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    forgetting: ForgettingConfig = field(default_factory=ForgettingConfig)

    def corpus_spec(self, seed: int) -> CorpusSpec:
        return CorpusSpec(tasks=tuple(self.tasks), seed=seed, ambient_dim=self.ambient_dim)

    def validate(self) -> None:
        from .curriculum import MODES

        # Every field has its type and its declared range before any rule
        # that relates fields runs.
        check_fields(self, "config", [f.name for f in fields(self) if f.name != "ambient_dim"])
        check_fields(self.corpus_spec(seed=0), "config.corpus", ["ambient_dim"])
        for key in _SECTIONS:
            check_fields(getattr(self, key), f"config.{key}")
        for i, task in enumerate(self.tasks):
            check_fields(task, f"config.corpus.tasks[{i}]")
        if self.curriculum.mode not in MODES:
            raise ValidationError(f"unknown curriculum mode {self.curriculum.mode!r}")
        bad = sorted(set(self.evaluation.suites) - {"scores", "geometry"})
        if bad:
            raise ValidationError(f"unknown evaluation suite(s) {bad} in config.evaluation")
        names = [t.name for t in self.tasks]
        self.curriculum.validate(names)
        pretrain = self.forgetting.pretrain_task
        for where, named in (
            ("curriculum.goals", self.curriculum.goals),
            ("curriculum.subsample", self.curriculum.subsample),
            ("forgetting.pretrain_task", [pretrain] if pretrain else []),
        ):
            unknown = sorted(set(named) - set(names))
            if unknown:
                raise ValidationError(f"config.{where} names no task of the corpus: {unknown}")
        fars = self.evaluation.far_values
        if len(set(fars)) < len(fars):
            raise ValidationError(f"config.evaluation.far_values must be distinct, got {fars!r}")
        _capped(EvaluationConfig, "probe_window", self.encoder.embedding_dim).check(
            self.evaluation.probe_window, "config.evaluation.probe_window"
        )
        self.corpus_spec(seed=0).validate(self.batch.positives)
        _capped(BatchConfig, "identities", min(t.classes for t in self.tasks)).check(
            self.batch.identities, "config.batch.identities"
        )

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
            margin=d.get("margin", cls.__dataclass_fields__["margin"].default),
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
        ),
        training=TrainingConfig(epochs=5),
        evaluation=EvaluationConfig(),
        forgetting=ForgettingConfig(pretrain_task="objects", pretrain_steps=60, finetune_epochs=10),
    )
    config.validate()
    return config
