"""Experiment orchestration: corpus builders, training runs,
the forgetting comparison, and benchmark-table scoring. Each model is
scored through its embedder (:func:`encoder_embedder`) by
:mod:`taskweave.scoring`, each eval task embedded once.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Callable
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .artifacts import SUMMARY, JsonLines, RunResult, listed_artifacts
from .config import ExperimentConfig
from .curriculum import ADAPTIVE, BALANCED, Trainer, blocked_schedule
from .datagen import Corpus, CorpusSpec, TaskData, build_corpus
from .encoder import EncoderParams, embed, init_params, load_checkpoint, save_checkpoint
from .errors import ContractError, ValidationError
from .forking import cpu_workers, forked_map
from .metrics import EXPERT, HUMAN, ScoreTable
from .scoring import (
    Embedder,
    class_centroids,
    evaluate_row,
    geometry_headlines,
    rows_to_table,
    verification_pair_plan,
)
from .seeding import derive_seed, stream


def _corpus_spec(config: ExperimentConfig) -> CorpusSpec:
    return config.corpus_spec(derive_seed(config.seed, "corpus"))


def _layer_dims(config: ExperimentConfig) -> list[int]:
    return [config.ambient_dim, *config.encoder.hidden_dims, config.encoder.embedding_dim]


def build_splits(config: ExperimentConfig, splits=("train", "eval")) -> tuple[Corpus, ...]:
    """The corpora of ``splits``, by default train and eval, from one spec:
    shared class centroids, fresh observation noise per split. Each split is
    a function of (spec, split) alone, so building one at a time gives the
    same corpora."""
    spec = _corpus_spec(config)
    return tuple(build_corpus(spec, split, config.batch.positives) for split in splits)


def load_run(run_dir: str | Path, checkpoint: str | Path | None = None):
    """A finished run's config, train and eval corpora, parameters and
    checkpoint path (by default the run's final one), read from ``run_dir``.
    Each file read from the run must be listed in its ``summary.json``, so a
    tree that another command rewrote is refused. Input that is missing,
    unlisted or does not fit ``config.json`` is a ValidationError."""
    run_dir = Path(run_dir)
    summary = run_dir / SUMMARY
    try:
        listed = listed_artifacts(run_dir)
    except OSError as exc:
        raise ValidationError(f"{summary}: {exc.strerror} (an unfinished run)") from None
    if listed is None:
        raise ValidationError(f"{summary} does not list the run's files")
    required = ["config.json", "corpus/manifest.json", "corpus_eval/manifest.json"]
    if checkpoint is None:
        required.append("checkpoints/encoder_final.npz")
    for rel in required:
        if rel not in listed:
            raise ValidationError(f"{run_dir / rel} is not listed in {summary}")
    config = ExperimentConfig.from_file(run_dir / "config.json")
    splits = {"train": "corpus", "eval": "corpus_eval"}
    corpora = [Corpus.load(run_dir / rel) for rel in splits.values()]
    for corpus, (split, rel) in zip(corpora, splits.items()):
        if (corpus.spec, corpus.split) != (_corpus_spec(config), split):
            raise ValidationError(f"{run_dir}: the {split} corpus saved is not its config's")
        for name in corpus.tasks:
            if (features := f"{rel}/{name}.npy") not in listed:
                raise ValidationError(f"{run_dir / features} is not listed in {summary}")
    ckpt = Path(checkpoint or run_dir / "checkpoints" / "encoder_final.npz")
    params, dims = load_checkpoint(ckpt), _layer_dims(config)
    if [w.shape for w in params.weights] != list(zip(dims, dims[1:])):
        raise ValidationError(f"checkpoint {ckpt}: its layers do not fit the config's {dims}")
    return config, *corpora, params, ckpt


def init_encoder(config: ExperimentConfig) -> EncoderParams:
    return init_params(_layer_dims(config), stream(config.seed, "encoder-init"))


def encoder_embedder(params: EncoderParams) -> Embedder:
    """The embedder of ``params``: a task's rows through the encoder."""
    return lambda data: embed(params, data.features)


def geometry_suite(
    eval_emb: dict[str, np.ndarray], eval_corpus: Corpus, config: ExperimentConfig, out: RunResult
) -> dict:
    """Write the geometry headlines of the eval embeddings, with each eval
    task's verification pairs, through ``out`` under ``geometry/``; return
    their summary."""
    pairs = {n: verification_pair_plan(d, config) for n, d in eval_corpus.tasks.items()}
    tables, summary = geometry_headlines(eval_emb, pairs, config)
    for path, text in tables:
        out.write(path, text.encode())
    out.json("geometry/summary.json", summary)
    return summary


def score_suites(
    out: RunResult,
    config: ExperimentConfig,
    suites: list[str],
    centroids: dict,
    eval_corpus: Corpus,
    embedder: Embedder,
) -> list[str]:
    """Score ``embedder`` by each of ``suites`` through ``out``:
    ``tables/metrics.csv`` and ``geometry/``, their results in
    ``out.results``. Returns the score table's floored cells.

    It holds the embedder, the eval split and ``centroids``, the
    :func:`~taskweave.scoring.class_centroids` of the same embedder: no
    train data. Each eval task is embedded once. The geometry suite reads
    all tasks together, so with it every task is embedded up front and kept
    for both suites. The scores alone embed each task when they score it,
    so one task's embeddings, with its pairs and its probe, gallery and
    pair-score copies, are alive at a time."""
    if "geometry" in suites:
        eval_emb = {name: embedder(data) for name, data in eval_corpus.tasks.items()}
        embedder = lambda data: eval_emb[data.name]
    floored: list[str] = []
    if "scores" in suites:
        row = evaluate_row(embedder, eval_corpus, centroids, config)
        table, floored = rows_to_table({f"encoder+{config.curriculum.mode}": row})
        table.to_csv(out, "tables/metrics.csv")
        out.results["scores"] = row
    if "geometry" in suites:
        out.results["geometry"] = geometry_suite(eval_emb, eval_corpus, config, out)
    return floored


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def overridden(
    config: ExperimentConfig, seed: int | None, output_dir: str | Path | None
) -> ExperimentConfig:
    """A validated copy of ``config`` with the given overrides applied."""
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if output_dir is not None:
        config = dataclasses.replace(config, output_dir=str(output_dir))
    config.validate()
    return config


def _train(config: ExperimentConfig, out: RunResult) -> tuple[EncoderParams, int, dict]:
    """Build and save the train split, train the encoder by the configured
    curriculum with its trace streamed to ``traces/scheduler.jsonl``, and
    write the final checkpoint. Returns what scoring reads of training: the
    parameters, the step count and their
    :func:`~taskweave.scoring.class_centroids`. The trainer and the train
    split die with this frame."""
    (train_corpus,) = build_splits(config, ["train"])
    train_corpus.save(out, "corpus")
    params = init_encoder(config)
    seed = derive_seed(config.seed, "train")
    with out.stream("traces/scheduler.jsonl") as trace:
        mode = config.curriculum.mode
        trainer = Trainer(config, mode, train_corpus.tasks, params, seed, trace=trace)
        for _ in range(config.training.epochs):
            trainer.run_epoch()
    save_checkpoint(params, out, "checkpoints/encoder_final.npz")
    return params, trainer.step, class_centroids(encoder_embedder(params), train_corpus)


def run(
    config: ExperimentConfig,
    seed: int | None = None,
    output_dir: str | Path | None = None,
) -> RunResult:
    """Full pipeline: corpus, curriculum training, evaluation, analysis.

    Writes the artifact tree under the configured output directory, and
    ``summary.json`` last. The config is validated before any file is
    touched, and a tree that ``eval`` or ``analyze`` scored is refused.
    ``config.json`` records the config with the ``seed`` and ``output_dir``
    overrides applied, so running it again rewrites the same tree.

    The phases run in turn, each holding only what it reads. Training
    (:func:`_train`) holds the train split, the trainer and the parameters;
    its trace goes to disk a step at a time. It ends with the "top<k>"
    train-class centroids, and the train split is dropped. The eval split
    is built and saved next, and scoring (:func:`score_suites`) holds it,
    the parameters, the centroids and one eval task's embeddings and pairs
    at a time, or every task's embeddings with the geometry suite.
    """
    config = overridden(config, seed, output_dir)
    out = RunResult(config.output_dir)
    out.start()
    out.json("config.json", config.to_dict())

    params, steps, centroids = _train(config, out)
    (eval_corpus,) = build_splits(config, ["eval"])
    eval_corpus.save(out, "corpus_eval")
    suites, mode = config.evaluation.suites, config.curriculum.mode
    embedder = encoder_embedder(params)
    floored = score_suites(out, config, suites, centroids, eval_corpus, embedder)
    out.finish(config.seed, out.results, mode=mode, steps=steps, floored_cells=floored)
    return out


def pretrain_encoder(
    config: ExperimentConfig,
    params: EncoderParams,
    data: TaskData,
    trace: Callable[[dict], None] | None = None,
) -> Trainer:
    """Single-task fit producing the shared starting point for the forgetting
    comparison: ``config.forgetting.pretrain_steps`` blocked steps of
    ``pretrain_batches_per_step`` batches each, training ``params`` in place.
    ``trace`` takes each step's record."""
    fg = config.forgetting
    seed = derive_seed(config.seed, "pretrain")
    tasks = {data.name: data}
    trainer = Trainer(config, BALANCED, tasks, params, seed, "pretrain-loader", trace)
    total = fg.pretrain_steps * fg.pretrain_batches_per_step
    for allocation in blocked_schedule([data.name], total, fg.pretrain_batches_per_step):
        trainer.train_step(allocation)
    return trainer


def sequential_finetune(
    config: ExperimentConfig,
    params: EncoderParams,
    task_data: dict[str, TaskData],
    total_batches: int,
    trace: Callable[[dict], None] | None = None,
) -> Trainer:
    """Blocked baseline: tasks one after another, ``total_batches`` in steps
    of as many batches as an interleaved step takes, with the same optimizer
    settings as the interleaved runs; only the curriculum differs. Trains
    ``params`` in place; ``trace`` takes each step's record."""
    seed = derive_seed(config.seed, "finetune-sequential")
    trainer = Trainer(config, BALANCED, task_data, params, seed, "seq-loader", trace)
    group = len(config.tasks) * config.curriculum.batches_per_task
    for allocation in blocked_schedule(list(task_data), total_batches, group):
        trainer.train_step(allocation)
    return trainer


SEQUENTIAL = "sequential"
INTERLEAVED_BALANCED = "interleaved-balanced"
INTERLEAVED_ADAPTIVE = "interleaved-adaptive"
# The fine-tunes in report order: each row's name, and the name its trace
# file and seed use.
FINETUNES = {
    SEQUENTIAL: SEQUENTIAL,
    INTERLEAVED_BALANCED: BALANCED,
    INTERLEAVED_ADAPTIVE: ADAPTIVE,
}


def run_forgetting_comparison(
    config: ExperimentConfig,
    seed: int | None = None,
    output_dir: str | Path | None = None,
) -> RunResult:
    """Pretrain on the configured coarse task, then fine-tune three ways from
    the shared checkpoint: blocked identity-only, balanced interleaved, and
    adaptive interleaved. Reports each model's pretrain-task accuracy drop
    and expert-mode multi-task index. The config is validated, and its
    forgetting settings checked, before any file is touched."""
    config = overridden(config, seed, output_dir)
    fg = config.forgetting
    if not fg.pretrain_task:
        raise ValidationError("config.forgetting.pretrain_task is required to compare forgetting")
    if config.curriculum.steps_per_epoch is None:
        raise ValidationError("config.curriculum.steps_per_epoch is required to compare forgetting")
    out = RunResult(config.output_dir)
    out.start()

    train_corpus, eval_corpus = build_splits(config)
    params = init_encoder(config)
    with out.stream("traces/pretrain.jsonl") as trace:
        pretrain_encoder(config, params, train_corpus.tasks[fg.pretrain_task], trace)
    save_checkpoint(params, out, "checkpoints/encoder_pretrained.npz")

    def trace_file(mode: str) -> str:
        return f"traces/finetune_{mode}.jsonl"

    def finetune_trainer(mode: str) -> Trainer:
        # Every fine-tune starts from a copy of the pretrained parameters,
        # and encodes its trace where it trains.
        seed = derive_seed(config.seed, f"finetune-{mode}")
        trace = JsonLines(trace_file(mode))
        return Trainer(config, mode, train_corpus.tasks, params.copy(), seed, trace=trace)

    # Built before the fork: the sequential item asks it for the total it
    # will spend, and the balanced item trains it.
    balanced = finetune_trainer(BALANCED)

    def score(model: EncoderParams) -> dict[str, float]:
        embedder = encoder_embedder(model)
        return evaluate_row(embedder, eval_corpus, class_centroids(embedder, train_corpus), config)

    # Each fine-tune's item gives its (score row, batches spent, trace text).
    def sequential() -> tuple[dict[str, float], tuple]:
        # The blocked baseline spends the balanced run's batch total on the
        # fine-tune tasks alone, planned before either runs. Its item also
        # scores the pretrained model, and gives that row first.
        batches = balanced.planned_batches(fg.finetune_epochs)
        tasks = {n: d for n, d in train_corpus.tasks.items() if n != fg.pretrain_task}
        trace = JsonLines(trace_file(SEQUENTIAL))
        blocked = sequential_finetune(config, params.copy(), tasks, batches, trace)
        return score(params), (score(blocked.params), batches, trace.text())

    def interleaved(trainer: Trainer) -> tuple[dict[str, float], int, str]:
        for _ in range(fg.finetune_epochs):
            trainer.run_epoch()
        return score(trainer.params), trainer.batches, trainer.trace.text()

    # The three fine-tunes are independent. The sequential item runs in
    # this process; the interleaved ones run in a forked child each when a
    # second CPU is free, since three near-equal items time-share two CPUs
    # better than two processes that run two of them back to back. Only
    # rows, batch counts and trace text come back, and every file is
    # written here in one order, so the tree is the same on any number of
    # CPUs.
    items = [
        sequential,
        partial(interleaved, balanced),
        # The adaptive trainer's seed pass runs the kernel, so its item builds it.
        lambda: interleaved(finetune_trainer(ADAPTIVE)),
    ]
    workers = len(items) if cpu_workers(len(items)) > 1 else 1
    (pretrained, first), *rest = forked_map(lambda item: item(), items, workers)
    finetunes = dict(zip(FINETUNES, [first, *rest]))
    planned, spent = finetunes[SEQUENTIAL][1], finetunes[INTERLEAVED_BALANCED][1]
    if spent != planned:
        raise ContractError(
            f"the balanced fine-tune spent {spent} batches against the {planned} planned"
        )
    for name, (_, _, trace) in finetunes.items():
        out.write(trace_file(FINETUNES[name]), trace.encode())

    table, floored = rows_to_table({name: row for name, (row, _, _) in finetunes.items()})
    table.to_csv(out, "tables/forgetting_scores.csv")
    expert = {name: table.index_for(name, EXPERT) for name in finetunes}
    out.rows(
        "tables/forgetting_scores_indexed.csv",
        ["model"] + table.columns + ["multitask_index_expert"],
        [[name, *map(float, table.row(name)), expert[name]] for name in finetunes],
    )

    top1_col = f"{fg.pretrain_task}:top1"
    baseline_acc = pretrained[top1_col]
    report = {
        "pretrain_task": fg.pretrain_task,
        "pretrain_accuracy": baseline_acc,
        "finetune_total_batches": planned,
        "models": {
            name: {
                "batches": batches,
                "pretrain_task_accuracy": row[top1_col],
                "pretrain_task_drop": baseline_acc - row[top1_col],
                "multitask_index_expert": expert[name],
            }
            for name, (row, batches, _) in finetunes.items()
        },
    }
    out.json("forgetting_report.json", report)
    out.results = report
    out.finish(config.seed, report, floored_cells=floored)
    return out


# ---------------------------------------------------------------------------
# Benchmark-table scoring
# ---------------------------------------------------------------------------


def bundled_reference_table() -> Path:
    return Path(resources.files("taskweave.data") / "reference_scores.csv")


def load_human_references(path: str | Path | None = None) -> dict[str, float]:
    """Human reference values by column, from ``path`` or the bundled file.
    Anything but a JSON object of finite numbers is a ValidationError."""
    path = Path(path or resources.files("taskweave.data") / "human_references.json")
    try:
        refs = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: not a readable JSON file ({exc})") from None
    if not isinstance(refs, dict) or not all(
        type(v) in (int, float) and math.isfinite(v) for v in refs.values()
    ):
        raise ValidationError(f"{path}: must be a JSON object of column names to finite numbers")
    return refs


def score_paper_table(
    table_file: str | Path,
    mode: str,
    human_refs: dict[str, float] | None = None,
) -> list[tuple[str, float]]:
    """Rank a published score table by multi-task index, best first."""
    table = ScoreTable.from_csv(table_file)
    if mode == HUMAN and human_refs is None:
        human_refs = load_human_references()
    return table.ranking(mode, human_refs)
