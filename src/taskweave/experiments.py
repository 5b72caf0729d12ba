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
from .datagen import Corpus, CorpusSpec, TaskData, build_corpus, corpus_file
from .encoder import EncoderParams, embed, init_params, load_checkpoint, save_checkpoint
from .errors import ValidationError
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
    splits = {"train": "corpus", "eval": "corpus_eval"}
    required = ["config.json", *(corpus_file(rel) for rel in splits.values())]
    if checkpoint is None:
        required.append("checkpoints/encoder_final.npz")
    for rel in required:
        if rel not in listed:
            raise ValidationError(f"{run_dir / rel} is not listed in {summary}")
    config = ExperimentConfig.from_file(run_dir / "config.json")
    corpora = [Corpus.load(run_dir / rel) for rel in splits.values()]
    for corpus, (split, rel) in zip(corpora, splits.items()):
        if (corpus.spec, corpus.split) != (_corpus_spec(config), split):
            raise ValidationError(f"{run_dir}: the {split} corpus saved is not its config's")
        for name in corpus.tasks:
            if (features := corpus_file(rel, name)) not in listed:
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
    pooled: np.ndarray,
    eval_emb: dict[str, np.ndarray],
    eval_corpus: Corpus,
    config: ExperimentConfig,
    out: RunResult,
) -> dict:
    """Write the geometry headlines of the eval embeddings ``pooled``, each
    task's a row slice of it in ``eval_emb``, with each eval task's
    verification pairs, through ``out`` under ``geometry/``; return their
    summary."""
    pairs = {n: verification_pair_plan(d, config) for n, d in eval_corpus.tasks.items()}
    tables, summary = geometry_headlines(pooled, eval_emb, pairs, config)
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
    train data. The caller hands the eval split over and keeps no
    reference to it. The split is left as it is: the suites read its tasks
    without their features, and each task's features are dropped once the
    task is embedded. Each eval task is embedded once. The geometry suite
    reads all tasks together, so with it every task is embedded up front
    into one pooled matrix, and each task's embeddings are its row slice of
    that matrix, kept for both suites. The scores alone embed each task
    when they score it, so one task's features and embeddings, with its
    pairs and its probe, gallery and pair-score copies, are alive at a
    time."""
    features = dict(eval_corpus.tasks)
    # The caller's corpus dies here; this copy's tasks hold no features.
    eval_corpus = Corpus(
        eval_corpus.spec,
        eval_corpus.split,
        {
            name: TaskData(name, data.regime, np.empty((data.n_samples, 0)), data.labels)
            for name, data in features.items()
        },
    )
    embed_once = lambda data: embedder(features.pop(data.name))
    if "geometry" in suites:
        pooled = np.vstack([embed_once(data) for data in eval_corpus.tasks.values()])
        sizes = [data.n_samples for data in eval_corpus.tasks.values()]
        eval_emb = dict(zip(eval_corpus.tasks, np.split(pooled, np.cumsum(sizes)[:-1])))
        embed_once = lambda data: eval_emb[data.name]
    floored: list[str] = []
    if "scores" in suites:
        row = evaluate_row(embed_once, eval_corpus, centroids, config)
        table, floored = rows_to_table({f"encoder+{config.curriculum.mode}": row})
        table.to_csv(out, "tables/metrics.csv")
        out.results["scores"] = row
    if "geometry" in suites:
        out.results["geometry"] = geometry_suite(pooled, eval_emb, eval_corpus, config, out)
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
    """Build and save the train split, train the encoder for ``training.epochs
    × steps_per_epoch`` steps of the configured curriculum with its trace
    streamed to ``traces/scheduler.jsonl``, and write the final checkpoint.
    Returns what scoring reads of training: the parameters, the step count
    and their :func:`~taskweave.scoring.class_centroids`. The trainer and
    the train split die with this frame."""
    (train_corpus,) = build_splits(config, ["train"])
    train_corpus.save(out, "corpus")
    params = init_encoder(config)
    seed = derive_seed(config.seed, "train")
    with out.stream("traces/scheduler.jsonl") as trace:
        mode = config.curriculum.mode
        trainer = Trainer(config, mode, train_corpus.tasks, params, seed, trace=trace)
        for _ in range(config.training.epochs * config.curriculum.steps_per_epoch):
            trainer.train_step()
    save_checkpoint(params, out, "checkpoints/encoder_final.npz")
    return params, trainer.step, class_centroids(encoder_embedder(params), train_corpus)


def _eval_split(config: ExperimentConfig, out: RunResult) -> Corpus:
    """Build the eval split and save it through ``out``."""
    (eval_corpus,) = build_splits(config, ["eval"])
    eval_corpus.save(out, "corpus_eval")
    return eval_corpus


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
    is built and saved next and handed to scoring (:func:`score_suites`),
    which holds it, the parameters and the centroids. Scoring drops each
    eval task's features once the task is embedded. Without the geometry
    suite it holds one task's embeddings and pairs at a time; with it,
    every task's embeddings in one pooled matrix.
    """
    config = overridden(config, seed, output_dir)
    out = RunResult(config.output_dir)
    out.start()
    out.json("config.json", config.to_dict())

    params, steps, centroids = _train(config, out)
    suites, mode = config.evaluation.suites, config.curriculum.mode
    embedder = encoder_embedder(params)
    # The eval split is handed over unnamed, so scoring holds it alone.
    floored = score_suites(out, config, suites, centroids, _eval_split(config, out), embedder)
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
    budget: int,
    trace: Callable[[dict], None] | None = None,
) -> Trainer:
    """Blocked baseline: tasks one after another, ``budget`` batches in steps
    of as many batches as an interleaved step takes, with the same optimizer
    settings as the interleaved runs; only the curriculum differs. Trains
    ``params`` in place; ``trace`` takes each step's record."""
    seed = derive_seed(config.seed, "finetune-sequential")
    trainer = Trainer(config, BALANCED, task_data, params, seed, "seq-loader", trace)
    group = len(config.tasks) * config.curriculum.batches_per_task
    for allocation in blocked_schedule(list(task_data), budget, group):
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
    adaptive interleaved. Every fine-tune spends one budget:
    ``finetune_epochs × steps_per_epoch`` steps of the interleaved group of
    ``len(config.tasks) × batches_per_task`` batches. Reports each model's
    pretrain-task accuracy drop and expert-mode multi-task index. The
    config is validated, and its forgetting settings checked, before any
    file is touched."""
    config = overridden(config, seed, output_dir)
    fg, curriculum = config.forgetting, config.curriculum
    if not fg.pretrain_task:
        raise ValidationError("config.forgetting.pretrain_task is required to compare forgetting")
    steps = fg.finetune_epochs * curriculum.steps_per_epoch
    budget = steps * len(config.tasks) * curriculum.batches_per_task
    out = RunResult(config.output_dir)
    out.start()

    train_corpus, eval_corpus = build_splits(config)
    params = init_encoder(config)
    with out.stream("traces/pretrain.jsonl") as trace:
        pretrain_encoder(config, params, train_corpus.tasks[fg.pretrain_task], trace)
    save_checkpoint(params, out, "checkpoints/encoder_pretrained.npz")

    def trace_file(mode: str) -> str:
        return f"traces/finetune_{mode}.jsonl"

    def score(model: EncoderParams) -> dict[str, float]:
        embedder = encoder_embedder(model)
        return evaluate_row(embedder, eval_corpus, class_centroids(embedder, train_corpus), config)

    # Each fine-tune's item starts from a copy of the pretrained parameters,
    # encodes its trace where it trains, and gives its (score row, batches
    # spent, trace text).
    def sequential() -> tuple[dict[str, float], tuple]:
        # The blocked baseline spends the budget on the fine-tune tasks
        # alone. Its item also scores the pretrained model, and gives that
        # row first.
        tasks = {n: d for n, d in train_corpus.tasks.items() if n != fg.pretrain_task}
        trace = JsonLines(trace_file(SEQUENTIAL))
        blocked = sequential_finetune(config, params.copy(), tasks, budget, trace)
        return score(params), (score(blocked.params), blocked.batches, trace.text())

    def interleaved(mode: str) -> tuple[dict[str, float], int, str]:
        # Built in the item: the adaptive trainer's seed pass runs the kernel.
        seed = derive_seed(config.seed, f"finetune-{mode}")
        trace = JsonLines(trace_file(mode))
        trainer = Trainer(config, mode, train_corpus.tasks, params.copy(), seed, trace=trace)
        for _ in range(steps):
            trainer.train_step()
        return score(trainer.params), trainer.batches, trace.text()

    # The three fine-tunes are independent. The sequential item runs in
    # this process; the interleaved ones run in a forked child each when a
    # second CPU is free, since three near-equal items time-share two CPUs
    # better than two processes that run two of them back to back. Only
    # rows, batch counts and trace text come back, and every file is
    # written here in one order, so the tree is the same on any number of
    # CPUs.
    items = [sequential, partial(interleaved, BALANCED), partial(interleaved, ADAPTIVE)]
    workers = len(items) if cpu_workers(len(items)) > 1 else 1
    (pretrained, first), *rest = forked_map(lambda item: item(), items, workers)
    finetunes = dict(zip(FINETUNES, [first, *rest]))
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
        "finetune_total_batches": budget,
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
