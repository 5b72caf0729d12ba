"""Experiment orchestration: training runs, evaluation suites, geometry
analysis, the forgetting comparison, and benchmark-table scoring.

Every artifact writer formats floats with ``repr`` and sorts JSON keys, so
identical (config, seed) pairs reproduce byte-identical tables and traces.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .curriculum import ADAPTIVE, BALANCED, SchedulerConfig, Trainer
from .datagen import Corpus, Loader, TaskData, build_corpus
from .encoder import (
    EncoderParams,
    GradBuffer,
    OptimState,
    adam_step,
    backward,
    batch_hard_triplet,
    embed,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .errors import ConfigurationError, ContractError
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


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


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
    opt = config.optimizer
    return OptimState.for_params(
        params,
        learning_rate=opt.learning_rate,
        beta1=opt.beta1,
        beta2=opt.beta2,
        epsilon=opt.epsilon,
        weight_decay=opt.weight_decay,
    )


def make_trainer(
    config: ExperimentConfig,
    mode: str,
    task_data: dict[str, TaskData],
    params: EncoderParams,
    opt_state: OptimState,
    seed_name: str,
) -> Trainer:
    cur = config.curriculum
    scheduler = SchedulerConfig(
        goals={name: cur.goals[name] for name in task_data},
        batches_per_task=cur.batches_per_task,
        total_batches=cur.total_batches,
        epsilon=cur.epsilon,
        floor=cur.floor,
        accuracy_cadence=cur.accuracy_cadence,
        probe_batches=cur.probe_batches,
        steps_per_epoch=cur.steps_per_epoch,
    )
    return Trainer(
        mode=mode,
        task_data=task_data,
        params=params,
        opt_state=opt_state,
        scheduler=scheduler,
        identities=config.batch.identities,
        positives=config.batch.positives,
        margin=config.margin,
        seed=derive_seed(config.seed, seed_name),
        subsample=cur.subsample,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _sample_pairs(labels: np.ndarray, n_pairs: int, rng: np.random.Generator):
    """Index pairs for verification scoring: (genuine, impostor), each an
    (n_pairs, 2) array of row indices.

    A scalar draw ``arr[integers(0, arr.size)]`` consumes the stream exactly
    as ``choice(arr)`` does, so the pairs are those of the plain
    ``choice`` loop (``tests/test_harness.py`` guards the equivalence).
    """
    classes = np.unique(labels)
    members = {int(c): np.flatnonzero(labels == c) for c in classes}
    eligible = np.array([c for c in classes if members[int(c)].size >= 2])
    integers, choice = rng.integers, rng.choice
    genuine = np.empty((n_pairs, 2), dtype=int)
    for i in range(n_pairs):
        c = int(eligible[integers(0, eligible.size)])
        genuine[i] = choice(members[c], size=2, replace=False)
    impostor = np.empty((n_pairs, 2), dtype=int)
    for i in range(n_pairs):
        a, b = choice(classes, size=2, replace=False)
        rows_a, rows_b = members[int(a)], members[int(b)]
        impostor[i, 0] = rows_a[integers(0, rows_a.size)]
        impostor[i, 1] = rows_b[integers(0, rows_b.size)]
    return genuine, impostor


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


class PairPlan(Mapping):
    """Per-task verification pairs, each task drawn on first access from its
    own ``stream(seed, "pairs", task)``. Drawing is independent of access
    order, so a lazy plan holds the same pairs as an eager one; tasks a run
    never scores are never drawn."""

    def __init__(self, eval_corpus: Corpus, config: ExperimentConfig):
        self._labels = {name: data.labels for name, data in eval_corpus.tasks.items()}
        self._seed = config.seed
        self._n_pairs = config.evaluation.verification_pairs
        self._drawn: dict[str, TaskPairs] = {}

    def __getitem__(self, name: str) -> TaskPairs:
        if name not in self._drawn:
            labels = self._labels[name]
            rng = stream(self._seed, "pairs", name)
            self._drawn[name] = TaskPairs(*_sample_pairs(labels, self._n_pairs, rng))
        return self._drawn[name]

    def __contains__(self, name) -> bool:
        return name in self._labels

    def __iter__(self):
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


def verification_pair_plan(eval_corpus: Corpus, config: ExperimentConfig) -> PairPlan:
    """Fixed per-task verification pairs, shared by every model under one
    master seed so scores stay comparable."""
    return PairPlan(eval_corpus, config)


def evaluate_row(
    params: EncoderParams,
    train_corpus: Corpus,
    eval_corpus: Corpus,
    config: ExperimentConfig,
    pair_plan: Mapping[str, TaskPairs] | None = None,
) -> dict[str, float]:
    """All configured metrics for one model, keyed by 'task:metric'."""
    if pair_plan is None:
        pair_plan = verification_pair_plan(eval_corpus, config)
    fars = config.evaluation.far_values
    row: dict[str, float] = {}
    for name, data in eval_corpus.tasks.items():
        emb = embed(params, data.features)
        labels = data.labels
        regime = data.regime
        if regime == "coarse-category":
            train_emb = embed(params, train_corpus.tasks[name].features)
            train_labels = train_corpus.tasks[name].labels
            classes = np.unique(train_labels)
            centroids = np.stack([train_emb[train_labels == c].mean(axis=0) for c in classes])
            centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
            row[f"{name}:top1"] = rank_k(emb, labels, centroids, classes, 1)
            row[f"{name}:top5"] = rank_k(emb, labels, centroids, classes, 5)
            continue
        pairs = pair_plan[name]
        genuine = _pair_scores(emb, pairs.genuine)
        impostor = _pair_scores(emb, pairs.impostor)
        probe, gallery = _probe_gallery_split(labels)
        row[f"{name}:auc"] = roc_auc(genuine, impostor)
        if regime == "fine-identity":
            scores = np.concatenate([genuine, impostor])
            truth = np.concatenate([np.ones(genuine.size, bool), np.zeros(impostor.size, bool)])
            # Interleave so every fold carries both kinds of pair.
            order = np.argsort(np.tile(np.arange(genuine.size), 2), kind="stable")
            row[f"{name}:ver_acc"] = verification_accuracy(scores[order], truth[order])
            row[f"{name}:rank1"] = rank_k(emb[probe], labels[probe], emb[gallery], labels[gallery], 1)
            for far in fars:
                row[f"{name}:{_far_column(far)}"] = tar_at_far(genuine, impostor, far)
        elif regime == "fine-identity-degraded":
            row[f"{name}:rank1"] = rank_k(emb[probe], labels[probe], emb[gallery], labels[gallery], 1)
            row[f"{name}:rank5"] = rank_k(emb[probe], labels[probe], emb[gallery], labels[gallery], 5)
        else:  # intermediate
            row[f"{name}:rank1"] = rank_k(emb[probe], labels[probe], emb[gallery], labels[gallery], 1)
            for far in fars:
                row[f"{name}:{_far_column(far)}"] = tar_at_far(genuine, impostor, far)
    return row


def rows_to_table(rows: dict[str, dict[str, float]]) -> ScoreTable:
    models = list(rows)
    columns = list(rows[models[0]])
    values = np.array([[rows[m][c] for c in columns] for m in models])
    # Retrieval scores can be exactly 0 early in training; keep them valid
    # table entries by flooring at a tiny positive value.
    values = np.maximum(values, 1e-9)
    return ScoreTable(models=models, columns=columns, values=values)


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
    outdir: Path,
    pair_plan: Mapping[str, TaskPairs] | None = None,
) -> dict:
    """Run the embedding-space analyses and write their artifact files.

    Returns headline numbers for the run summary.
    """
    if pair_plan is None:
        pair_plan = verification_pair_plan(eval_corpus, config)
    ev = config.evaluation
    outdir.mkdir(parents=True, exist_ok=True)
    emb = {name: embed(params, data.features) for name, data in eval_corpus.tasks.items()}
    names = list(emb)
    pooled = np.vstack([emb[n] for n in names])
    tags = np.concatenate([np.full(emb[n].shape[0], i) for i, n in enumerate(names)])

    probe_mean, probe_std = linear_task_probe(pooled, tags, folds=ev.probe_folds)

    curve = sliding_window_probe(pooled, tags, window=ev.probe_window, folds=ev.probe_folds)
    _write_rows(
        outdir / "probe_window.csv",
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
    _write_rows(
        outdir / "principal_angles.csv",
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
        _write_rows(outdir / f"projection_{src}.csv", ["target", "k", "auc", "delta_auc"], rows)
        # Same-task loss at the 99%-variance dimension: reported, not gated.
        k99 = min(subspaces[src].dim, basis.dim)
        _, delta = cross_task_projection_eval(
            basis, k99, emb[src], _cosine_auc_eval(pair_plan[src])
        )
        self_projection[src] = {"k": k99, "delta_auc": float(delta)}

    plane = pca(pooled)
    coords = (pooled - plane.mean) @ plane.basis[:, :2]
    _write_rows(
        outdir / "pc2d.csv",
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
    _write_json(outdir / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    output_dir: Path
    artifacts: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)


def _write_trace(path: Path, reports) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r.to_record(), sort_keys=True) for r in reports]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def run(
    config: ExperimentConfig,
    seed: int | None = None,
    output_dir: str | Path | None = None,
) -> RunResult:
    """Full pipeline: corpus, curriculum training, evaluation, analysis.

    Writes the artifact tree under the configured output directory and a
    summary manifest naming every emitted file.
    """
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    outdir = Path(output_dir if output_dir is not None else config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = RunResult(output_dir=outdir)

    _write_json(outdir / "config.json", config.to_dict())
    result.artifacts.append("config.json")

    train_corpus, eval_corpus = build_splits(config)
    train_corpus.save(outdir / "corpus")
    eval_corpus.save(outdir / "corpus_eval")
    result.artifacts += ["corpus/manifest.json", "corpus_eval/manifest.json"]

    params, opt_state = init_encoder(config)
    mode = config.curriculum.mode
    trainer = make_trainer(config, mode, train_corpus.tasks, params, opt_state, "train")
    reports = []
    for _ in range(config.training.epochs):
        reports.extend(trainer.run_epoch().steps)
    _write_trace(outdir / "traces" / "scheduler.jsonl", reports)
    result.artifacts.append("traces/scheduler.jsonl")

    ckpt = outdir / "checkpoints" / "encoder_final.npz"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, ckpt)
    result.artifacts.append("checkpoints/encoder_final.npz")

    pair_plan = verification_pair_plan(eval_corpus, config)
    if "scores" in config.evaluation.suites:
        row = evaluate_row(params, train_corpus, eval_corpus, config, pair_plan)
        table = rows_to_table({f"encoder+{mode}": row})
        table.to_csv(outdir / "tables" / "metrics.csv")
        result.artifacts.append("tables/metrics.csv")
        result.results["scores"] = row
    if "geometry" in config.evaluation.suites:
        geo = geometry_suite(params, eval_corpus, config, outdir / "geometry", pair_plan)
        result.artifacts += sorted(
            str(p.relative_to(outdir)) for p in (outdir / "geometry").iterdir()
        )
        result.results["geometry"] = geo

    summary = {
        "summary_version": SUMMARY_VERSION,
        "seed": config.seed,
        "mode": mode,
        "steps": len(reports),
        "artifacts": sorted(set(result.artifacts)),
        "results": result.results,
    }
    _write_json(outdir / "summary.json", summary)
    result.artifacts.append("summary.json")
    return result


def pretrain_encoder(
    config: ExperimentConfig,
    params: EncoderParams,
    opt_state: OptimState,
    data: TaskData,
    steps: int,
    batches_per_step: int,
    seed: int,
) -> None:
    """Plain single-task fit loop used to produce the shared starting point
    for the forgetting comparison."""
    loader = Loader(data, stream(seed, "pretrain-loader", data.name))
    buffer = GradBuffer.zeros_like(params)
    for _ in range(steps):
        for _ in range(batches_per_step):
            batch, _ = loader.next_batch(config.batch.identities, config.batch.positives)
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, config.margin)
            backward(params, batch.features, grad_emb, buffer)
        adam_step(params, buffer, opt_state)


def sequential_finetune(
    config: ExperimentConfig,
    params: EncoderParams,
    opt_state: OptimState,
    task_data: dict[str, TaskData],
    total_batches: int,
    group_size: int,
    seed: int,
) -> None:
    """Blocked baseline: tasks one after another, same optimizer settings,
    same accumulation group size, and the same total batch count as the
    interleaved runs; only the curriculum differs."""
    names = list(task_data)
    loaders = {n: Loader(task_data[n], stream(seed, "seq-loader", n)) for n in names}
    base, extra = divmod(total_batches, len(names))
    buffer = GradBuffer.zeros_like(params)
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
                backward(params, batch.features, grad_emb, buffer)
            adam_step(params, buffer, opt_state)
            done += take


SEQUENTIAL = "sequential"
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
    and expert-mode multi-task index."""
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    fg = config.forgetting
    if not fg.pretrain_task:
        raise ConfigurationError("forgetting comparison requires forgetting.pretrain_task")
    outdir = Path(output_dir if output_dir is not None else config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = RunResult(output_dir=outdir)

    train_corpus, eval_corpus = build_splits(config)
    pair_plan = verification_pair_plan(eval_corpus, config)
    params, opt_state = init_encoder(config)
    pretrain_encoder(
        config,
        params,
        opt_state,
        train_corpus.tasks[fg.pretrain_task],
        fg.pretrain_steps,
        fg.pretrain_batches_per_step,
        derive_seed(config.seed, "pretrain"),
    )
    ckpt = outdir / "checkpoints" / "encoder_pretrained.npz"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, ckpt)
    result.artifacts.append("checkpoints/encoder_pretrained.npz")

    top1_col = f"{fg.pretrain_task}:top1"
    baseline_row = evaluate_row(params, train_corpus, eval_corpus, config, pair_plan)
    baseline_acc = baseline_row[top1_col]

    finetune_tasks = {n: d for n, d in train_corpus.tasks.items() if n != fg.pretrain_task}
    models: dict[str, EncoderParams] = {}

    balanced_params = params.copy()
    trainer = make_trainer(
        config,
        BALANCED,
        train_corpus.tasks,
        balanced_params,
        fresh_optimizer(config, balanced_params),
        "finetune-balanced",
    )
    balanced_batches = 0
    for _ in range(fg.finetune_epochs):
        epoch = trainer.run_epoch()
        balanced_batches += sum(s.batches_consumed for s in epoch.steps)
    models[INTERLEAVED_BALANCED] = balanced_params

    adaptive_params = params.copy()
    trainer = make_trainer(
        config,
        ADAPTIVE,
        train_corpus.tasks,
        adaptive_params,
        fresh_optimizer(config, adaptive_params),
        "finetune-adaptive",
    )
    for _ in range(fg.finetune_epochs):
        trainer.run_epoch()
    models[INTERLEAVED_ADAPTIVE] = adaptive_params

    sequential_params = params.copy()
    sequential_finetune(
        config,
        sequential_params,
        fresh_optimizer(config, sequential_params),
        finetune_tasks,
        total_batches=balanced_batches,
        group_size=len(train_corpus.tasks) * config.curriculum.batches_per_task,
        seed=derive_seed(config.seed, "finetune-sequential"),
    )
    models[SEQUENTIAL] = sequential_params

    order = [SEQUENTIAL, INTERLEAVED_BALANCED, INTERLEAVED_ADAPTIVE]
    rows = {
        name: evaluate_row(models[name], train_corpus, eval_corpus, config, pair_plan)
        for name in order
    }
    table = rows_to_table(rows)
    table.to_csv(outdir / "tables" / "forgetting_scores.csv")
    result.artifacts.append("tables/forgetting_scores.csv")
    indexed_rows = [
        [name]
        + [float(v) for v in table.row(name)]
        + [table.index_for(name, EXPERT)]
        for name in order
    ]
    _write_rows(
        outdir / "tables" / "forgetting_scores_indexed.csv",
        ["model"] + table.columns + ["multitask_index_expert"],
        indexed_rows,
    )
    result.artifacts.append("tables/forgetting_scores_indexed.csv")

    report = {
        "pretrain_task": fg.pretrain_task,
        "pretrain_accuracy": baseline_acc,
        "finetune_total_batches": balanced_batches,
        "models": {
            name: {
                "pretrain_task_accuracy": rows[name][top1_col],
                "pretrain_task_drop": baseline_acc - rows[name][top1_col],
                "multitask_index_expert": table.index_for(name, EXPERT),
            }
            for name in order
        },
    }
    _write_json(outdir / "forgetting_report.json", report)
    result.artifacts.append("forgetting_report.json")
    result.results = report
    return result


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
