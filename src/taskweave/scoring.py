"""Scores of an embedding space: the verification pairs, the score row and
table, and the geometry headlines. An embedding space is an embedder, a
function from a task's :class:`~taskweave.datagen.TaskData` to its unit-norm
rows, aligned with the task's corpus rows: an encoder's ``embed``, or the
unit-normed raw inputs. No score takes encoder parameters or writes a file,
so any encoder, or none, is scored by the same code. The score row calls
the embedder once per task and keeps nothing: it scores one task at a time,
draws the task's pairs only when a metric reads them, and gathers its pair
scores in slices, so scoring memory is one task's working set. The
geometry suite's projected AUC lays out a task's pair indices once, genuine
then impostor, and scores both kinds in one pass per projection."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .artifacts import csv_text
from .config import ExperimentConfig
from .datagen import Corpus, TaskData
from .errors import ContractError
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
    BLOCK,
    ScoreTable,
    distinct,
    rank_k,
    roc_auc,
    tar_at_far,
    verification_accuracy,
)
from .seeding import stream


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

    def distinct_pair(n) -> tuple[np.ndarray, np.ndarray]:
        a = rng.integers(0, n, size=n_pairs)
        b = rng.integers(0, n - 1, size=n_pairs)
        return a, b + (b >= a)

    eligible = np.flatnonzero(sizes >= 2)
    c = eligible[rng.integers(0, eligible.size, size=n_pairs)]
    a, b = distinct_pair(sizes[c])
    genuine = np.column_stack([starts[c] + a, starts[c] + b])
    ca, cb = distinct_pair(sizes.size)
    impostor = np.column_stack(
        [starts[ca] + rng.integers(0, sizes[ca]), starts[cb] + rng.integers(0, sizes[cb])]
    )
    return order[genuine], order[impostor]


def _pair_scores(embeddings: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The dot product of rows ``left[i]`` and ``right[i]``, for each pair
    ``i``. Both sides are gathered by ``take`` in plain slices of pairs, about
    ``BLOCK`` elements over both sides, so the gathered rows take a block's
    memory, not the pair set's. Each score is its own row's reduction, the
    same bits in any slice, a one-pair one included, so no slice is padded."""
    scores = np.empty(left.size)
    step = max(1, BLOCK // (2 * embeddings.shape[1]))
    for lo in range(0, left.size, step):
        block = slice(lo, lo + step)
        # One statement, so a block's gathered rows die before the next's.
        scores[block] = np.einsum(
            "ij,ij->i", embeddings.take(left[block], axis=0), embeddings.take(right[block], axis=0)
        )
    return scores


def _probe_gallery_split(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternate members of every class into gallery (even) and probe (odd):
    (probe rows, gallery rows), each class by class in label order, a
    class's rows in index order (so the gallery ids are non-decreasing)."""
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    class_start = np.repeat(starts, np.diff(np.r_[starts, grouped.size]))
    odd = (np.arange(grouped.size) - class_start) % 2 == 1
    return order[odd], order[~odd]


@dataclass
class TaskPairs:
    genuine: np.ndarray
    impostor: np.ndarray


Embedder = Callable[[TaskData], np.ndarray]


def verification_pair_plan(data: TaskData, config: ExperimentConfig) -> TaskPairs:
    """One task's fixed verification pairs, shared by every model under one
    master seed so scores stay comparable. Each task draws from its own
    ``stream(seed, "pairs", task)``, so its pairs depend neither on the
    other tasks nor on when, or how often, they are drawn."""
    rng = stream(config.seed, "pairs", data.name)
    return TaskPairs(*_sample_pairs(data.labels, config.evaluation.verification_pairs, rng))


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


def class_centroids(
    embedder: Embedder, train_corpus: Corpus
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The gallery each "top<k>" task ranks against: the unit-norm mean
    embedding of each of its train classes, and the classes, by task name.
    Only the "top<k>" train tasks are embedded, each once."""
    centroids = {}
    for name, data in train_corpus.tasks.items():
        if REGIME_METRICS[data.regime][0] == "top1":
            emb, labels = embedder(data), data.labels
            classes = distinct(labels)
            means = np.stack([emb[labels == c].mean(axis=0) for c in classes])
            means /= np.linalg.norm(means, axis=1, keepdims=True)
            centroids[name] = (means, classes)
    return centroids


def task_scores(
    data: TaskData,
    emb: np.ndarray,
    config: ExperimentConfig,
    centroids: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, float]:
    """The configured metrics of one eval task, keyed by 'task:metric'.

    ``emb`` embeds the task's rows. ``centroids`` (unit-norm train-class
    centroids and their classes) is the gallery a "top<k>" task ranks
    against. The task's verification pairs are drawn only when its regime
    has a pair metric, after the probe and gallery copies made here die."""
    name, labels = data.name, data.labels
    metrics = REGIME_METRICS[data.regime]
    row: dict[str, float] = {}
    hits: dict[str, float] = {}
    retrieval = [m for m in metrics if m in RETRIEVAL_K]
    if retrieval:
        if retrieval[0].startswith("top"):
            gallery = centroids
            probes = (emb, labels)
        else:
            probe, kept = _probe_gallery_split(labels)
            gallery = (emb[kept], labels[kept])
            probes = (emb[probe], labels[probe])
        ks = [RETRIEVAL_K[m] for m in retrieval]
        hits.update(zip(retrieval, rank_k(*probes, *gallery, ks)))
        del probes, gallery
    if len(retrieval) < len(metrics):
        pairs = verification_pair_plan(data, config)
        genuine = _pair_scores(emb, *pairs.genuine.T)
        impostor = _pair_scores(emb, *pairs.impostor.T)
    for metric in metrics:
        if metric in hits:
            row[f"{name}:{metric}"] = hits[metric]
        elif metric == "auc":
            row[f"{name}:auc"] = roc_auc(genuine, impostor)
        elif metric == "ver_acc":
            # Interleave so every fold carries both kinds of pair.
            scores = np.column_stack([genuine, impostor]).ravel()
            truth = np.tile([True, False], genuine.size)
            row[f"{name}:ver_acc"] = verification_accuracy(scores, truth)
        else:  # tar
            for far in config.evaluation.far_values:
                row[f"{name}:tar_far{far:g}"] = tar_at_far(genuine, impostor, far)
    return row


def evaluate_row(
    embedder: Embedder,
    eval_corpus: Corpus,
    centroids: dict[str, tuple[np.ndarray, np.ndarray]],
    config: ExperimentConfig,
) -> dict[str, float]:
    """All configured metrics of one embedding space, keyed by 'task:metric'.

    ``centroids`` are the same space's :func:`class_centroids`. The eval
    tasks are scored one at a time by :func:`task_scores`, each embedded as
    it is scored, so one task's embeddings are alive at a time.
    ``eval_corpus`` is left as it is, features included, so one split can
    score several embedders: the forgetting comparison scores one four
    times."""
    row: dict[str, float] = {}
    for name, data in eval_corpus.tasks.items():
        row.update(task_scores(data, embedder(data), config, centroids.get(name)))
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


def _cosine_auc_eval(pairs: TaskPairs) -> Callable[[np.ndarray], float]:
    """Verification AUC of projected coordinates, scored by cosine on the
    re-normalised rows. A row that projects to zero has no direction and
    raises ContractError instead of scoring NaN. The left and right rows of
    the task's pairs, genuine then impostor, are laid out once, contiguous,
    and each evaluation scores them in one pass."""
    left, right = np.concatenate([pairs.genuine, pairs.impostor]).T.copy()
    n_genuine = pairs.genuine.shape[0]

    def closure(coords: np.ndarray) -> float:
        # np.linalg.norm's own reduction for real rows, without its dispatch.
        norms = np.sqrt(np.add.reduce(coords * coords, axis=1, keepdims=True))
        if not (norms > 0.0).all():
            raise ContractError("a projected embedding has zero norm; its cosine is undefined")
        scores = _pair_scores(coords / norms, left, right)
        return roc_auc(scores[:n_genuine], scores[n_genuine:])

    return closure


def geometry_headlines(
    pooled: np.ndarray,
    emb: dict[str, np.ndarray],
    pairs: dict[str, TaskPairs],
    config: ExperimentConfig,
) -> tuple[list, dict]:
    """The geometry suite of the eval embeddings ``pooled`` and their
    verification ``pairs``, by task: its tables, in write order as (path,
    CSV text), and its summary. Writes no file.
    ``emb`` holds each task's embeddings, row slices of ``pooled`` that
    follow each other in task order, so the suite holds one copy of them.
    The pooled PCA serves the window probes and ``pc2d.csv``; each task's
    full-space AUC serves every projection onto it. Every table but the
    window curve is formatted with the analyses, in item 0 of the window
    map, so only the curve's few rows are formatted after it."""
    ev = config.evaluation

    def table(path: str, header: list[str], rows: list) -> tuple[str, str]:
        return path, csv_text(path, header, rows)

    names = list(emb)
    tags = np.concatenate([np.full(emb[n].shape[0], i) for i, n in enumerate(names)])
    plane = pca(pooled)

    def analyses() -> tuple[list, dict]:
        """Everything but the windows, computed while the children probe
        them: the tables that follow ``probe_window.csv`` and the summary."""
        probe_mean, probe_std = linear_task_probe(pooled, tags, folds=ev.probe_folds)
        subspaces = {n: task_subspace(emb[n], ev.variance_fraction) for n in names}
        angle_rows, max_angles = [], {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                angles = principal_angles(subspaces[a], subspaces[b])
                max_angles[f"{a}|{b}"] = float(angles.max())
                angle_rows.extend([a, b, k, float(theta)] for k, theta in enumerate(angles))
        tables = [
            table(
                "geometry/principal_angles.csv",
                ["task_a", "task_b", "angle_index", "angle_radians"],
                angle_rows,
            )
        ]

        evals = {n: _cosine_auc_eval(pairs[n]) for n in names}
        full_auc = {n: evals[n](emb[n]) for n in names}
        first_within = {}
        self_projection = {}
        for src in names:
            basis = pca(emb[src], center=False)
            rows = []
            for tgt in names:
                if tgt == src:
                    continue
                sweep = projection_sweep(
                    basis, emb[tgt], evals[tgt], ev.projection_max_pcs, full_auc[tgt]
                )
                rows.extend([tgt, k, v, d] for k, v, d in sweep)
                hit = next((k for k, _, d in sweep if abs(d) <= 0.02), None)
                first_within[f"{src}->{tgt}"] = hit
            tables.append(
                table(f"geometry/projection_{src}.csv", ["target", "k", "auc", "delta_auc"], rows)
            )
            # Same-task loss at the 99%-variance dimension: reported, not gated.
            k99 = min(subspaces[src].dim, basis.dim)
            _, delta = cross_task_projection_eval(basis, k99, emb[src], evals[src], full_auc[src])
            self_projection[src] = {"k": k99, "delta_auc": float(delta)}

        coords = (pooled - plane.mean) @ plane.basis[:, :2]
        tables.append(
            table(
                "geometry/pc2d.csv",
                ["task", "pc1", "pc2"],
                [[names[t], x, y] for t, (x, y) in zip(tags.tolist(), coords.tolist())],
            )
        )
        summary = {
            "task_probe_accuracy_mean": probe_mean,
            "task_probe_accuracy_std": probe_std,
            "subspace_dims": {n: subspaces[n].dim for n in names},
            "max_principal_angle": max_angles,
            "first_k_within_0.02_auc": first_within,
            "self_projection_at_99pct": self_projection,
        }
        return tables, summary

    curve, (tables, summary) = sliding_window_probe(
        pooled, tags, window=ev.probe_window, folds=ev.probe_folds, space=plane, alongside=analyses
    )
    window = table(
        "geometry/probe_window.csv",
        ["window_start_pc", "accuracy_mean", "accuracy_std"],
        [[s, m, d] for s, m, d in zip(curve.starts, curve.means, curve.stds)],
    )
    return [window, *tables], summary
