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
from .curriculum import ADAPTIVE, BALANCED, Trainer, blocked_schedule
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


# The bit generator's 32-bit words serve every population up to this size;
# above it numpy's bounded draws switch to 64-bit words.
_WORDS = 1 << 32


def _word_source(rng: np.random.Generator) -> Callable[[], int]:
    """The generator's next 32-bit word, drawn through its ``ctypes`` hook:
    the same stream ``integers`` and ``choice`` consume, without their
    per-call overhead."""
    hooks = rng.bit_generator.ctypes
    return partial(hooks.next_uint32, hooks.state)


def _below(word: Callable[[], int], n: int) -> int:
    """``integers(0, n)``: Lemire's bounded draw on 32-bit words, with the
    same rejections and so the same stream position. ``n == 1`` draws
    nothing, as in numpy."""
    if not 0 < n <= _WORDS:
        raise ContractError(f"a population of {n} is outside [1, 2**32], the reach of 32-bit draws")
    if n == 1:
        return 0
    m = word() * n
    if m & 0xFFFFFFFF < n:
        floor = (_WORDS - n) % n
        while m & 0xFFFFFFFF < floor:
            m = word() * n
    return m >> 32


def _two(word: Callable[[], int], n: int) -> tuple[int, int]:
    """``choice(n, 2, replace=False)``: Floyd's sampling of two distinct
    values, then numpy's shuffle of the pair."""
    a = _below(word, n - 1)
    b = _below(word, n)
    if b == a:
        b = n - 1
    return (b, a) if _below(word, 2) == 0 else (a, b)


def _serial_pairs(sizes: list[int], n_pairs: int, rng: np.random.Generator):
    """The pairs as positions in class-sorted rows, one draw at a time."""
    word = _word_source(rng)
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    eligible = [c for c, size in enumerate(sizes) if size >= 2]
    genuine = np.empty((n_pairs, 2), dtype=int)
    out = memoryview(genuine.reshape(-1))
    for i in range(0, 2 * n_pairs, 2):
        c = eligible[_below(word, len(eligible))]
        a, b = _two(word, sizes[c])
        out[i] = starts[c] + a
        out[i + 1] = starts[c] + b
    impostor = np.empty((n_pairs, 2), dtype=int)
    out = memoryview(impostor.reshape(-1))
    for i in range(0, 2 * n_pairs, 2):
        a, b = _two(word, len(sizes))
        out[i] = starts[a] + _below(word, sizes[a])
        out[i + 1] = starts[b] + _below(word, sizes[b])
    return genuine, impostor


def _next_words(bit_generator: np.random.PCG64, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of a PCG64 generator, as ``uint64``,
    in the order its ``next_uint32`` yields them: a buffered word first,
    then the low and the high half of each 64-bit output. The generator is
    left where ``count`` calls of ``next_uint32`` leave it, buffer included:
    an unused high half stays buffered, and a drained buffer keeps its
    stale word."""
    state = bit_generator.state
    buffered = int(bool(state["has_uint32"] and count))
    n_raw = (count - buffered + 1) // 2
    raw = bit_generator.random_raw(n_raw)
    words = np.empty(buffered + 2 * n_raw, dtype=np.uint64)
    words[:buffered] = state["uinteger"]
    words[buffered::2] = raw & 0xFFFFFFFF
    words[buffered + 1 :: 2] = raw >> 32
    if count:
        state = bit_generator.state
        state["has_uint32"] = int(words.size > count)
        if n_raw:
            state["uinteger"] = int(raw[-1] >> 32)
        bit_generator.state = state
    return words[:count]


def _vector_pairs(sizes: np.ndarray, n_pairs: int, rng: np.random.Generator):
    """:func:`_serial_pairs` computed at once on numpy arrays, or ``None``
    with the generator untouched.

    It needs a PCG64 generator and at least 3 classes of at least 3 rows
    each. Then no population is 1, so every draw takes exactly one word: 4
    per genuine pair (class, Floyd's two, the swap) and 5 per impostor
    pair (Floyd's two, the swap, one member per side), and the word of each
    draw is known before any is made. Lemire's draw of ``n`` from word
    ``w`` is ``(w * n) >> 32`` unless ``(w * n) mod 2**32 < n``, where it
    may reject; then the generator is restored and ``None`` returned.
    """
    bit_generator = rng.bit_generator
    if not (type(bit_generator) is np.random.PCG64 and sizes.size >= 3 and sizes.min() >= 3):
        return None
    snapshot = bit_generator.state
    words = _next_words(bit_generator, 9 * n_pairs)
    risky = np.zeros(n_pairs, dtype=bool)
    starts = np.cumsum(sizes) - sizes

    def below(w: np.ndarray, n) -> np.ndarray:
        n = np.asarray(n, dtype=np.uint64)
        m = w * n
        risky[:] |= (m & 0xFFFFFFFF) < n
        return (m >> 32).astype(np.intp)

    def two(w: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
        a = below(w[:, 0], n - 1)
        b = below(w[:, 1], n)
        b = np.where(b == a, n - 1, b)
        keep = below(w[:, 2], 2) == 1
        return np.where(keep, a, b), np.where(keep, b, a)

    g = words[: 4 * n_pairs].reshape(n_pairs, 4)
    c = below(g[:, 0], sizes.size)
    a, b = two(g[:, 1:], sizes[c])
    genuine = np.column_stack([starts[c] + a, starts[c] + b])
    w = words[4 * n_pairs :].reshape(n_pairs, 5)
    a, b = two(w, sizes.size)
    impostor = np.column_stack(
        [starts[a] + below(w[:, 3], sizes[a]), starts[b] + below(w[:, 4], sizes[b])]
    )
    if risky.any():
        bit_generator.state = snapshot
        return None
    return genuine, impostor


def _sample_pairs(labels: np.ndarray, n_pairs: int, rng: np.random.Generator):
    """Index pairs for verification scoring: (genuine, impostor), each an
    (n_pairs, 2) array of row indices.

    The pairs and the final generator state are those of the plain loop of
    ``Generator`` calls: per genuine pair ``choice(eligible)`` then
    ``choice(members, 2, replace=False)``, per impostor pair
    ``choice(classes, 2, replace=False)`` then one ``choice(members)`` per
    side. Both calls are reproduced from the generator's 32-bit words:
    ``integers(0, n)`` is Lemire's bounded draw (Lemire 2019, *Fast Random
    Integer Generation in an Interval*) and ``choice(n, 2, replace=False)``
    is Floyd's algorithm (Bentley & Floyd 1987, *A sample of brilliance*)
    over it. Draws are positions within a class; one gather maps them to
    rows at the end.

    With a PCG64 generator and at least 3 classes of at least 3 rows each,
    every draw takes one word, so all of them are computed at once from
    the generator's raw output (:func:`_vector_pairs`). If any draw might
    have been rejected, the generator is restored and the draws are made
    one at a time (:func:`_serial_pairs`), as they are for every other
    generator or layout. ``tests/test_harness.py`` pins both helpers
    against numpy (``TestExactDraws``) and both paths against the
    ``choice`` loop (``TestPairSampler``, ``TestVectorPairs``).
    """
    order = np.argsort(labels, kind="stable")  # rows grouped by class, ascending
    _, sizes = np.unique(labels[order], return_counts=True)
    pairs = _vector_pairs(sizes, n_pairs, rng) or _serial_pairs(sizes.tolist(), n_pairs, rng)
    genuine, impostor = pairs
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

    def balanced_then_sequential() -> dict:
        balanced, balanced_trainer = fine_tune(BALANCED)
        batches = sum(s.batches_consumed for s in balanced_trainer.reports)
        # The blocked baseline spends the balanced run's batch total on the
        # fine-tune tasks alone.
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
            "traces": {
                BALANCED: _records(balanced_trainer),
                SEQUENTIAL: _records(blocked_trainer),
            },
            "rows": {INTERLEAVED_BALANCED: score(balanced), SEQUENTIAL: score(blocked)},
        }

    def pretrained_then_adaptive() -> dict:
        pretrained_row = score(params)
        adaptive, adaptive_trainer = fine_tune(ADAPTIVE)
        return {
            "traces": {ADAPTIVE: _records(adaptive_trainer)},
            "rows": {PRETRAINED: pretrained_row, INTERLEAVED_ADAPTIVE: score(adaptive)},
        }

    # The shares are independent: the one fine-tune that needs another's
    # result, the sequential baseline, runs after balanced in the first.
    # The second runs in a forked child when a second CPU is free. Only rows
    # and trace records come back, and every file is written here in one
    # order, so the tree is the same on any number of CPUs.
    shares = [balanced_then_sequential, pretrained_then_adaptive]
    first, second = forked_map(lambda share: share(), shares, cpu_workers(len(shares)))
    balanced_batches = first["batches"]
    traces = {**first["traces"], **second["traces"]}
    rows = {**first["rows"], **second["rows"]}
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
