"""Experiment orchestration: training runs, evaluation suites, geometry
analysis, the forgetting comparison, and benchmark-table scoring.

Every file a run leaves goes through :class:`RunResult`, which writes it
atomically, records it in the run's manifest and writes ``summary.json``
last. Floats are formatted by ``repr`` and JSON keys sorted, so identical
(config, seed) pairs reproduce byte-identical tables and traces.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .curriculum import ADAPTIVE, BALANCED, Trainer, balanced_budget, blocked_schedule
from .datagen import CSV_UNSAFE, Corpus, TaskData, build_corpus
from .encoder import EncoderParams, OptimState, embed, init_params, save_checkpoint
from .errors import ConfigurationError, ContractError, NumericError
from .forking import cpu_workers, forked_map
from .geometry import (
    cross_task_projection_eval,
    linear_task_probe,
    pca,
    principal_angles,
    projection_sweep,
    sliding_window_probe,
    task_subspace,
)
from .metrics import (
    EXPERT,
    HUMAN,
    ScoreTable,
    rank_k,
    roc_auc,
    tar_at_far,
    verification_accuracy,
)
from .seeding import derive_seed, stream

SUMMARY_VERSION = 1
SUMMARY = "summary.json"
# The summaries of the commands that rewrite files in a finished run.
EVAL_SUMMARY = "eval_summary.json"
ANALYZE_SUMMARY = "analyze_summary.json"


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def _json_text(rel: str, payload, indent: int | None = None) -> str:
    try:
        return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{rel}: non-finite number in JSON payload ({exc})") from None


def _csv_cell(rel: str, value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    text = str(value)
    if any(c in text for c in CSV_UNSAFE):
        raise ContractError(f"{rel}: cell {text!r} would need CSV quoting")
    return text


@dataclass
class RunResult:
    """A run's output directory, and the only way files reach it.

    ``write`` creates parent directories on demand, writes the bytes to a
    hidden sibling ``.<name>.tmp`` and renames it over the target, so a
    killed run leaves whole files or none. Every file written is recorded
    in ``artifacts`` (relative paths, in write order). ``finish`` writes
    the summary, ``summary.json`` unless ``summary`` names another file,
    last, naming every other file it wrote; a directory without it holds
    an unfinished run or command. One JSON format (indent 2, sorted keys,
    trailing newline, finite numbers only) and one CSV format (LF, floats
    by ``repr``, an empty cell for NaN) are used throughout.
    """

    output_dir: Path
    artifacts: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    summary: str = SUMMARY

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)

    def start(self) -> None:
        """Drop an earlier summary of the same name so the work reads as
        unfinished until :meth:`finish`."""
        (self.output_dir / self.summary).unlink(missing_ok=True)

    def _replace(self, rel: str, data: bytes) -> None:
        if Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise ContractError(f"artifact path {rel!r} leaves the output directory")
        path = self.output_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def write(self, rel: str, data: bytes) -> None:
        self._replace(rel, data)
        self.artifacts.append(rel)

    def json(self, rel: str, payload) -> None:
        self.write(rel, (_json_text(rel, payload, indent=2) + "\n").encode())

    def lines(self, rel: str, records) -> None:
        """JSONL, one record per line; zero records make an empty file."""
        self.write(rel, "".join(_json_text(rel, r) + "\n" for r in records).encode())

    def rows(self, rel: str, header: list[str], rows) -> None:
        text = "".join(
            ",".join(_csv_cell(rel, v) for v in row) + "\n" for row in [header, *rows]
        )
        self.write(rel, text.encode())

    def npy(self, rel: str, array: np.ndarray) -> None:
        # np.save appends ".npy" to a str path, so serialise to bytes first.
        buf = io.BytesIO()
        np.save(buf, array)
        self.write(rel, buf.getvalue())

    def npz(self, rel: str, arrays: dict[str, np.ndarray]) -> None:
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        self.write(rel, buf.getvalue())

    def finish(self, summary: dict) -> None:
        """Write the summary last, its ``artifacts`` being every other file
        this run wrote."""
        payload = {**summary, "artifacts": sorted(self.artifacts)}
        self._replace(self.summary, (_json_text(self.summary, payload, indent=2) + "\n").encode())


def build_splits(config: ExperimentConfig) -> tuple[Corpus, Corpus]:
    """Train and eval corpora from one spec: shared class centroids, fresh
    observation noise per split."""
    spec = config.corpus_spec(derive_seed(config.seed, "corpus"))
    train = build_corpus(spec, "train", config.batch.positives)
    held_out = build_corpus(spec, "eval", config.batch.positives)
    return train, held_out


def init_encoder(config: ExperimentConfig) -> tuple[EncoderParams, OptimState]:
    dims = [config.ambient_dim, *config.encoder.hidden_dims, config.encoder.embedding_dim]
    params = init_params(dims, stream(config.seed, "encoder-init"))
    return params, fresh_optimizer(config, params)


def fresh_optimizer(config: ExperimentConfig, params: EncoderParams) -> OptimState:
    return OptimState.for_params(params, **vars(config.optimizer))


def make_trainer(
    config: ExperimentConfig,
    mode: str,
    task_data: dict[str, TaskData],
    params: EncoderParams,
    opt_state: OptimState,
    seed_name: str,
    loader_stream: str = "loader",
) -> Trainer:
    """The one Trainer builder: its seed is derived from the master seed by
    ``seed_name``, its loaders draw from the ``loader_stream`` substream."""
    return Trainer(
        mode=mode,
        task_data=task_data,
        params=params,
        opt_state=opt_state,
        curriculum=config.curriculum,
        identities=config.batch.identities,
        positives=config.batch.positives,
        margin=config.margin,
        seed=derive_seed(config.seed, seed_name),
        loader_stream=loader_stream,
    )


def _records(trainer: Trainer) -> list[dict]:
    """The trainer's step reports as trace records: plain data that a forked
    share can pickle back."""
    return [r.to_record() for r in trainer.reports]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _sample_pairs(labels: np.ndarray, n_pairs: int, rng: np.random.Generator):
    """Index pairs for verification scoring: (genuine, impostor), each an
    (n_pairs, 2) array of row indices.

    A genuine pair is a class drawn uniformly from those of at least two
    rows, then two distinct members of it drawn uniformly. An impostor pair
    is two distinct classes drawn uniformly, then one member of each. Each
    distinct draw takes ``a`` below ``n`` and ``b`` below ``n - 1`` and
    shifts ``b`` past ``a``. Every draw is one vector ``Generator.integers``
    call, so the pairs follow numpy's ``integers`` stream, which NEP 19 does
    not pin across numpy versions.
    """
    order = np.argsort(labels, kind="stable")  # rows grouped by class, ascending
    _, sizes = np.unique(labels[order], return_counts=True)
    if sizes.size < 2 or sizes.max() < 2:
        raise ContractError(
            "verification pairs need two classes and a class of two rows, "
            f"got class sizes {sizes.tolist()}"
        )
    starts = np.cumsum(sizes) - sizes

    def distinct(n) -> tuple[np.ndarray, np.ndarray]:
        a = rng.integers(0, n, size=n_pairs)
        b = rng.integers(0, n - 1, size=n_pairs)
        return a, b + (b >= a)

    eligible = np.flatnonzero(sizes >= 2)
    c = eligible[rng.integers(0, eligible.size, size=n_pairs)]
    a, b = distinct(sizes[c])
    genuine = np.column_stack([starts[c] + a, starts[c] + b])
    ca, cb = distinct(sizes.size)
    impostor = np.column_stack(
        [starts[ca] + rng.integers(0, sizes[ca]), starts[cb] + rng.integers(0, sizes[cb])]
    )
    return order[genuine], order[impostor]


def _pair_scores(embeddings: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", embeddings[pairs[:, 0]], embeddings[pairs[:, 1]])


def _probe_gallery_split(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternate members of every class into gallery (even) and probe (odd)."""
    gallery, probe = [], []
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        gallery.extend(rows[0::2])
        probe.extend(rows[1::2])
    return np.asarray(probe), np.asarray(gallery)


def _far_column(far: float) -> str:
    return f"tar_far{far:g}"


@dataclass
class TaskPairs:
    genuine: np.ndarray
    impostor: np.ndarray


def verification_pair_plan(
    eval_corpus: Corpus, config: ExperimentConfig
) -> dict[str, TaskPairs]:
    """Fixed per-task verification pairs, shared by every model under one
    master seed so scores stay comparable. Each task draws from its own
    ``stream(seed, "pairs", task)``, so the pairs do not depend on the
    order of the tasks."""
    n_pairs = config.evaluation.verification_pairs
    return {
        name: TaskPairs(*_sample_pairs(data.labels, n_pairs, stream(config.seed, "pairs", name)))
        for name, data in eval_corpus.tasks.items()
    }


# Each regime's metrics in column order. "top<k>" ranks every eval sample
# against the train-class centroids; "rank<k>" ranks the probe half of the
# eval set against its gallery half; "tar" expands to one column per
# configured FAR. A task's retrieval metrics share one ``rank_k`` call.
REGIME_METRICS = {
    "coarse-category": ("top1", "top5"),
    "fine-identity": ("auc", "ver_acc", "rank1", "tar"),
    "fine-identity-degraded": ("auc", "rank1", "rank5"),
    "intermediate": ("auc", "rank1", "tar"),
}
RETRIEVAL_K = {"top1": 1, "top5": 5, "rank1": 1, "rank5": 5}


def _class_centroids(params: EncoderParams, data: TaskData) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm mean embedding of each class, and the classes."""
    emb = embed(params, data.features)
    classes = np.unique(data.labels)
    centroids = np.stack([emb[data.labels == c].mean(axis=0) for c in classes])
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    return centroids, classes


def evaluate_row(
    params: EncoderParams,
    train_corpus: Corpus,
    eval_corpus: Corpus,
    config: ExperimentConfig,
    pair_plan: dict[str, TaskPairs] | None = None,
) -> dict[str, float]:
    """All configured metrics for one model, keyed by 'task:metric'."""
    if pair_plan is None:
        pair_plan = verification_pair_plan(eval_corpus, config)
    row: dict[str, float] = {}
    for name, data in eval_corpus.tasks.items():
        metrics = REGIME_METRICS[data.regime]
        emb = embed(params, data.features)
        labels = data.labels
        hits: dict[str, float] = {}
        retrieval = [m for m in metrics if m in RETRIEVAL_K]
        if retrieval:
            if retrieval[0].startswith("top"):
                gallery = _class_centroids(params, train_corpus.tasks[name])
                probes = (emb, labels)
            else:
                probe, kept = _probe_gallery_split(labels)
                gallery = (emb[kept], labels[kept])
                probes = (emb[probe], labels[probe])
            ks = [RETRIEVAL_K[m] for m in retrieval]
            hits.update(zip(retrieval, rank_k(*probes, *gallery, ks)))
        if len(retrieval) < len(metrics):
            pairs = pair_plan[name]
            genuine = _pair_scores(emb, pairs.genuine)
            impostor = _pair_scores(emb, pairs.impostor)
        for metric in metrics:
            if metric in hits:
                row[f"{name}:{metric}"] = hits[metric]
            elif metric == "auc":
                row[f"{name}:auc"] = roc_auc(genuine, impostor)
            elif metric == "ver_acc":
                scores = np.concatenate([genuine, impostor])
                truth = np.concatenate([np.ones(genuine.size, bool), np.zeros(impostor.size, bool)])
                # Interleave so every fold carries both kinds of pair.
                order = np.argsort(np.tile(np.arange(genuine.size), 2), kind="stable")
                row[f"{name}:ver_acc"] = verification_accuracy(scores[order], truth[order])
            else:  # tar
                for far in config.evaluation.far_values:
                    row[f"{name}:{_far_column(far)}"] = tar_at_far(genuine, impostor, far)
    return row


SCORE_FLOOR = 1e-9


def rows_to_table(rows: dict[str, dict[str, float]]) -> tuple[ScoreTable, list[str]]:
    """The score table of some models' rows, and the ``model|task:metric``
    cells it floored.

    Retrieval scores can be exactly 0 early in training; they are floored
    at ``SCORE_FLOOR`` to stay valid table entries, and named so the
    summary can say which numbers are not measurements.
    """
    models = list(rows)
    columns = list(rows[models[0]])
    values = np.array([[rows[m][c] for c in columns] for m in models])
    floored = [
        f"{models[i]}|{columns[j]}" for i, j in zip(*np.nonzero(values < SCORE_FLOOR))
    ]
    values = np.maximum(values, SCORE_FLOOR)
    return ScoreTable(models=models, columns=columns, values=values), floored


# ---------------------------------------------------------------------------
# Geometry suite
# ---------------------------------------------------------------------------


def _cosine_auc_eval(pairs: TaskPairs) -> Callable[[np.ndarray], float]:
    """Verification AUC of projected coordinates, scored by cosine on the
    re-normalised rows. A row that projects to zero has no direction and
    raises ContractError instead of scoring NaN."""

    def closure(coords: np.ndarray) -> float:
        norms = np.linalg.norm(coords, axis=1, keepdims=True)
        if not (norms > 0.0).all():
            raise ContractError("a projected embedding has zero norm; its cosine is undefined")
        normed = coords / norms
        return roc_auc(_pair_scores(normed, pairs.genuine), _pair_scores(normed, pairs.impostor))

    return closure


def geometry_suite(
    params: EncoderParams,
    eval_corpus: Corpus,
    config: ExperimentConfig,
    out: RunResult,
    pair_plan: dict[str, TaskPairs] | None = None,
) -> dict:
    """Run the embedding-space analyses and write their artifact files
    through ``out`` under ``geometry/``.

    Returns headline numbers for the run summary.
    """
    if pair_plan is None:
        pair_plan = verification_pair_plan(eval_corpus, config)
    ev = config.evaluation
    emb = {name: embed(params, data.features) for name, data in eval_corpus.tasks.items()}
    names = list(emb)
    pooled = np.vstack([emb[n] for n in names])
    tags = np.concatenate([np.full(emb[n].shape[0], i) for i, n in enumerate(names)])

    probe_mean, probe_std = linear_task_probe(pooled, tags, folds=ev.probe_folds)

    curve = sliding_window_probe(pooled, tags, window=ev.probe_window, folds=ev.probe_folds)
    out.rows(
        "geometry/probe_window.csv",
        ["window_start_pc", "accuracy_mean", "accuracy_std"],
        [[s, m, d] for s, m, d in zip(curve.starts, curve.means, curve.stds)],
    )

    subspaces = {
        n: task_subspace(emb[n], ev.variance_fraction, source_task=n) for n in names
    }
    angle_rows, max_angles = [], {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            angles = principal_angles(subspaces[a], subspaces[b])
            max_angles[f"{a}|{b}"] = float(angles.max())
            angle_rows.extend([a, b, k, float(theta)] for k, theta in enumerate(angles))
    out.rows(
        "geometry/principal_angles.csv",
        ["task_a", "task_b", "angle_index", "angle_radians"],
        angle_rows,
    )

    first_within = {}
    self_projection = {}
    for src in names:
        basis = pca(emb[src], center=False, source_task=src)
        rows = []
        for tgt in names:
            if tgt == src:
                continue
            sweep = projection_sweep(
                basis, emb[tgt], _cosine_auc_eval(pair_plan[tgt]), max_k=ev.projection_max_pcs
            )
            rows.extend([tgt, k, v, d] for k, v, d in sweep)
            hit = next((k for k, _, d in sweep if abs(d) <= 0.02), None)
            first_within[f"{src}->{tgt}"] = hit
        out.rows(f"geometry/projection_{src}.csv", ["target", "k", "auc", "delta_auc"], rows)
        # Same-task loss at the 99%-variance dimension: reported, not gated.
        k99 = min(subspaces[src].dim, basis.dim)
        _, delta = cross_task_projection_eval(
            basis, k99, emb[src], _cosine_auc_eval(pair_plan[src])
        )
        self_projection[src] = {"k": k99, "delta_auc": float(delta)}

    plane = pca(pooled)
    coords = (pooled - plane.mean) @ plane.basis[:, :2]
    out.rows(
        "geometry/pc2d.csv",
        ["task", "pc1", "pc2"],
        [[names[int(t)], float(x), float(y)] for t, (x, y) in zip(tags, coords)],
    )

    summary = {
        "task_probe_accuracy_mean": probe_mean,
        "task_probe_accuracy_std": probe_std,
        "subspace_dims": {n: subspaces[n].dim for n in names},
        "max_principal_angle": max_angles,
        "first_k_within_0.02_auc": first_within,
        "self_projection_at_99pct": self_projection,
    }
    out.json("geometry/summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def run(
    config: ExperimentConfig,
    seed: int | None = None,
    output_dir: str | Path | None = None,
) -> RunResult:
    """Full pipeline: corpus, curriculum training, evaluation, analysis.

    Writes the artifact tree under the configured output directory, and
    ``summary.json`` last. The config is validated before any file is
    touched.
    """
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    config.validate()
    out = RunResult(output_dir if output_dir is not None else config.output_dir)
    out.start()
    out.json("config.json", config.to_dict())

    train_corpus, eval_corpus = build_splits(config)
    train_corpus.save(out, "corpus")
    eval_corpus.save(out, "corpus_eval")

    params, opt_state = init_encoder(config)
    mode = config.curriculum.mode
    trainer = make_trainer(config, mode, train_corpus.tasks, params, opt_state, "train")
    for _ in range(config.training.epochs):
        trainer.run_epoch()
    out.lines("traces/scheduler.jsonl", _records(trainer))
    save_checkpoint(params, out, "checkpoints/encoder_final.npz")

    pair_plan = verification_pair_plan(eval_corpus, config)
    floored: list[str] = []
    if "scores" in config.evaluation.suites:
        row = evaluate_row(params, train_corpus, eval_corpus, config, pair_plan)
        table, floored = rows_to_table({f"encoder+{mode}": row})
        table.to_csv(out, "tables/metrics.csv")
        out.results["scores"] = row
    if "geometry" in config.evaluation.suites:
        out.results["geometry"] = geometry_suite(params, eval_corpus, config, out, pair_plan)

    out.finish(
        {
            "summary_version": SUMMARY_VERSION,
            "seed": config.seed,
            "mode": mode,
            "steps": len(trainer.reports),
            "floored_cells": floored,
            "results": out.results,
        }
    )
    return out


def _blocked_training(
    config: ExperimentConfig,
    params: EncoderParams,
    opt_state: OptimState,
    task_data: dict[str, TaskData],
    total_batches: int,
    group_size: int,
    seed_name: str,
    loader_stream: str,
) -> Trainer:
    """The blocked schedule over ``task_data``, run on one Trainer: tasks one
    after another, ``total_batches`` in steps of at most ``group_size``."""
    trainer = make_trainer(config, BALANCED, task_data, params, opt_state, seed_name, loader_stream)
    for allocation in blocked_schedule(list(task_data), total_batches, group_size):
        trainer.train_step(allocation)
    return trainer


def pretrain_encoder(
    config: ExperimentConfig,
    params: EncoderParams,
    opt_state: OptimState,
    data: TaskData,
    steps: int,
    batches_per_step: int,
    seed_name: str,
) -> Trainer:
    """Single-task fit producing the shared starting point for the forgetting
    comparison: ``steps`` blocked steps of ``batches_per_step`` batches each."""
    tasks = {data.name: data}
    total = steps * batches_per_step
    return _blocked_training(
        config, params, opt_state, tasks, total, batches_per_step, seed_name, "pretrain-loader"
    )


def sequential_finetune(
    config: ExperimentConfig,
    params: EncoderParams,
    opt_state: OptimState,
    task_data: dict[str, TaskData],
    total_batches: int,
    group_size: int,
    seed_name: str,
) -> Trainer:
    """Blocked baseline: tasks one after another, same optimizer settings,
    same accumulation group size, and the same total batch count as the
    interleaved runs; only the curriculum differs."""
    return _blocked_training(
        config, params, opt_state, task_data, total_batches, group_size, seed_name, "seq-loader"
    )


SEQUENTIAL = "sequential"
PRETRAINED = "pretrained"
INTERLEAVED_BALANCED = "interleaved-balanced"
INTERLEAVED_ADAPTIVE = "interleaved-adaptive"


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
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    config.validate()
    if not config.forgetting.pretrain_task:
        raise ConfigurationError("forgetting comparison requires forgetting.pretrain_task")
    if config.curriculum.steps_per_epoch is None:
        raise ConfigurationError(
            "forgetting comparison requires curriculum.steps_per_epoch for its adaptive fine-tune"
        )
    return _compare_forgetting(
        config, RunResult(output_dir if output_dir is not None else config.output_dir)
    )


def _compare_forgetting(config: ExperimentConfig, out: RunResult) -> RunResult:
    """The body of :func:`run_forgetting_comparison`, on a config taken as
    it is."""
    fg = config.forgetting
    out.start()

    train_corpus, eval_corpus = build_splits(config)
    pair_plan = verification_pair_plan(eval_corpus, config)
    params, opt_state = init_encoder(config)
    trainer = pretrain_encoder(
        config,
        params,
        opt_state,
        train_corpus.tasks[fg.pretrain_task],
        fg.pretrain_steps,
        fg.pretrain_batches_per_step,
        "pretrain",
    )
    out.lines("traces/pretrain.jsonl", _records(trainer))
    save_checkpoint(params, out, "checkpoints/encoder_pretrained.npz")

    def fine_tune(mode: str) -> tuple[EncoderParams, Trainer]:
        # Every fine-tune starts from a copy of the pretrained parameters
        # with a fresh optimizer.
        tuned = params.copy()
        opt = fresh_optimizer(config, tuned)
        trainer = make_trainer(config, mode, train_corpus.tasks, tuned, opt, f"finetune-{mode}")
        for _ in range(fg.finetune_epochs):
            trainer.run_epoch()
        return tuned, trainer

    def score(model: EncoderParams) -> dict[str, float]:
        return evaluate_row(model, train_corpus, eval_corpus, config, pair_plan)

    def sequential() -> dict:
        # The blocked baseline spends the balanced run's batch total on the
        # fine-tune tasks alone; the plan replays the balanced loaders to
        # know it before either runs.
        batches = balanced_budget(
            train_corpus.tasks,
            config.curriculum,
            config.batch.identities,
            config.batch.positives,
            derive_seed(config.seed, f"finetune-{BALANCED}"),
            fg.finetune_epochs,
        )
        blocked = params.copy()
        blocked_trainer = sequential_finetune(
            config,
            blocked,
            fresh_optimizer(config, blocked),
            {n: d for n, d in train_corpus.tasks.items() if n != fg.pretrain_task},
            total_batches=batches,
            group_size=len(train_corpus.tasks) * config.curriculum.batches_per_task,
            seed_name="finetune-sequential",
        )
        return {
            "batches": batches,
            "trace": _records(blocked_trainer),
            "rows": {PRETRAINED: score(params), SEQUENTIAL: score(blocked)},
        }

    def interleaved(mode: str, row_name: str) -> dict:
        tuned, trainer = fine_tune(mode)
        return {
            "batches": sum(s.batches_consumed for s in trainer.reports),
            "trace": _records(trainer),
            "rows": {row_name: score(tuned)},
        }

    # The three fine-tunes are independent. The sequential item runs in
    # this process; the interleaved ones run in a forked child each when a
    # second CPU is free, since three near-equal items time-share two CPUs
    # better than two processes that run two of them back to back. Only
    # rows and trace records come back, and every file is written here in
    # one order, so the tree is the same on any number of CPUs.
    items = [
        sequential,
        partial(interleaved, BALANCED, INTERLEAVED_BALANCED),
        partial(interleaved, ADAPTIVE, INTERLEAVED_ADAPTIVE),
    ]
    workers = len(items) if cpu_workers(len(items)) > 1 else 1
    results = forked_map(lambda item: item(), items, workers)
    planned, spent = results[0]["batches"], results[1]["batches"]
    if spent != planned:
        raise ContractError(
            f"the balanced fine-tune spent {spent} batches against the {planned} planned"
        )
    traces = dict(zip((SEQUENTIAL, BALANCED, ADAPTIVE), (r["trace"] for r in results)))
    rows = {name: row for r in results for name, row in r["rows"].items()}
    for mode in (BALANCED, ADAPTIVE, SEQUENTIAL):
        out.lines(f"traces/finetune_{mode}.jsonl", traces[mode])

    top1_col = f"{fg.pretrain_task}:top1"
    baseline_acc = rows.pop(PRETRAINED)[top1_col]
    order = [SEQUENTIAL, INTERLEAVED_BALANCED, INTERLEAVED_ADAPTIVE]
    rows = {name: rows[name] for name in order}
    table, floored = rows_to_table(rows)
    table.to_csv(out, "tables/forgetting_scores.csv")
    indexed_rows = [
        [name]
        + [float(v) for v in table.row(name)]
        + [table.index_for(name, EXPERT)]
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
        "finetune_total_batches": planned,
        "models": {
            name: {
                "pretrain_task_accuracy": rows[name][top1_col],
                "pretrain_task_drop": baseline_acc - rows[name][top1_col],
                "multitask_index_expert": table.index_for(name, EXPERT),
            }
            for name in order
        },
    }
    out.json("forgetting_report.json", report)
    out.results = report
    out.finish(
        {
            "summary_version": SUMMARY_VERSION,
            "seed": config.seed,
            "floored_cells": floored,
            "results": report,
        }
    )
    return out


# ---------------------------------------------------------------------------
# Benchmark-table scoring
# ---------------------------------------------------------------------------


def bundled_reference_table() -> Path:
    return Path(resources.files("taskweave.data") / "reference_scores.csv")


def bundled_human_references() -> dict[str, float]:
    text = (resources.files("taskweave.data") / "human_references.json").read_text()
    return json.loads(text)


def score_paper_table(
    table_file: str | Path,
    mode: str,
    human_refs: dict[str, float] | None = None,
) -> list[tuple[str, float]]:
    """Rank a published score table by multi-task index, best first."""
    table = ScoreTable.from_csv(table_file)
    if mode == HUMAN and human_refs is None:
        human_refs = bundled_human_references()
    return table.ranking(mode, human_refs)
