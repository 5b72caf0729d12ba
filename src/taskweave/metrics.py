"""Retrieval and verification metrics plus multi-task scoring indices.

All similarity comparisons use cosine on unit-norm embeddings. Ranking ties
break toward the lower gallery index so every metric is deterministic.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ValidationError

EXPERT = "expert"
HUMAN = "human"


def _require_finite(*score_sets: np.ndarray) -> None:
    if not all(np.isfinite(scores).all() for scores in score_sets):
        raise ContractError("scores must be finite")


def pairwise_cosine(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix between two sets of unit-norm rows."""
    emb_a = np.asarray(emb_a, dtype=np.float64)
    emb_b = np.asarray(emb_b, dtype=np.float64)
    if emb_a.ndim != 2 or emb_b.ndim != 2 or emb_a.shape[1] != emb_b.shape[1]:
        raise ContractError("embedding dimensions must match")
    return emb_a @ emb_b.T


def tar_at_far(genuine_scores, impostor_scores, far: float) -> float:
    """True-accept rate at the given false-accept rate.

    The threshold is the smallest score at which the fraction of impostor
    scores >= threshold does not exceed ``far`` (ties resolve toward the
    stricter threshold); TAR is the fraction of genuine scores >= threshold.
    """
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ContractError("both score sets must be non-empty")
    _require_finite(genuine, impostor)
    if not 0.0 < far < 1.0:
        raise ContractError("far must lie in (0, 1)")
    ranked = np.sort(impostor)
    n = ranked.size
    # The first entry of each run of ties: n - i impostors score >= it, a
    # fraction nonincreasing in i, so the first admissible start is the
    # smallest admissible threshold.
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    admissible = starts[(n - starts) / n <= far]
    if admissible.size:
        threshold = ranked[admissible[0]]
    else:
        threshold = np.nextafter(ranked[-1], np.inf)
    return float((genuine >= threshold).mean())


def roc_auc(genuine_scores, impostor_scores) -> float:
    """Probability a genuine score exceeds an impostor score, ties counting
    half (the rank-sum formulation)."""
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ContractError("both score sets must be non-empty")
    _require_finite(genuine, impostor)
    impostor_sorted = np.sort(impostor)
    below = np.searchsorted(impostor_sorted, genuine, side="left")
    below_or_equal = np.searchsorted(impostor_sorted, genuine, side="right")
    wins = below.sum() + 0.5 * (below_or_equal - below).sum()
    return float(wins / (genuine.size * impostor.size))


def _best_same_id(
    sims: np.ndarray, probe_ids: np.ndarray, gallery_ids: np.ndarray
) -> np.ndarray:
    """Each probe's best score over the gallery items of its id. Gallery ids
    in non-decreasing order (the callers' class-grouped galleries) form
    column runs, reduced by one ``maximum.reduceat``; any other order takes
    a masked maximum over the whole matrix."""
    if gallery_ids.size and (gallery_ids[1:] >= gallery_ids[:-1]).all():
        runs = np.flatnonzero(np.r_[True, gallery_ids[1:] != gallery_ids[:-1]])
        run_best = np.maximum.reduceat(sims, runs, axis=1)
        column = np.searchsorted(gallery_ids[runs], probe_ids)
        return run_best[np.arange(sims.shape[0]), column]
    same_id = probe_ids[:, None] == gallery_ids[None, :]
    return np.where(same_id, sims, -np.inf).max(axis=1)


def rank_k(
    probe_emb: np.ndarray,
    probe_ids,
    gallery_emb: np.ndarray,
    gallery_ids,
    k: int | Sequence[int],
) -> float | tuple[float, ...]:
    """Fraction of probes with a same-id gallery item among the top-k cosine
    matches; for a sequence of ``k``, one fraction per k, in order, from a
    single ranking.

    Gallery items are ordered by score descending, ties by gallery index
    ascending (the order of a stable argsort of the negated scores). A probe
    hits when its best same-id item ranks below ``k`` in that order. The
    rank is counted, not sorted for: #(score > s*) + #(score == s* and
    index < j*), with s* the best same-id score and j* the first same-id
    index reaching it, so the cost is O(N·G) for N probes and G gallery
    items. The second term is non-zero only where s* is tied, so only
    those probes compare ids and indices. Non-finite similarities raise
    ContractError.
    """
    probe_ids = np.asarray(probe_ids)
    gallery_ids = np.asarray(gallery_ids)
    ks = tuple(k) if isinstance(k, Sequence) else (k,)
    if not ks or min(ks) < 1:
        raise ContractError("k must be >= 1")
    missing = sorted(set(probe_ids.tolist()) - set(gallery_ids.tolist()))
    if missing:
        raise ContractError(f"probe ids absent from gallery: {missing[:5]}")
    sims = pairwise_cosine(probe_emb, gallery_emb)
    _require_finite(sims)
    best = _best_same_id(sims, probe_ids, gallery_ids)[:, None]
    ahead = np.count_nonzero(sims > best, axis=1)
    tied = np.flatnonzero(np.count_nonzero(sims == best, axis=1) > 1)
    if tied.size:
        level = sims[tied] == best[tied]
        first_best = (level & (probe_ids[tied, None] == gallery_ids[None, :])).argmax(axis=1)
        earlier = np.arange(gallery_ids.size)[None, :] < first_best[:, None]
        ahead[tied] += np.count_nonzero(level & earlier, axis=1)
    rates = tuple(int(np.count_nonzero(ahead < each)) / sims.shape[0] for each in ks)
    return rates if isinstance(k, Sequence) else rates[0]


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold (predict same when score >= threshold) maximizing accuracy.

    Candidates are midpoints between consecutive distinct scores plus one
    value below and one above the range, so a chosen threshold sits centered
    in its separating gap; the lowest maximizer wins (deterministic). The
    correct count at candidate c is #genuine >= c plus #impostor < c, read
    off one sort per label by binary search: O(n log n) for n scores.
    """
    uniq = np.unique(scores)
    if uniq.size == 1:
        return float(uniq[0])
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    candidates = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    genuine = np.sort(scores[labels])
    impostor = np.sort(scores[~labels])
    correct = genuine.size - np.searchsorted(genuine, candidates, side="left")
    correct += np.searchsorted(impostor, candidates, side="left")
    return float(candidates[correct.argmax()])


def verification_accuracy(pair_scores, pair_labels, folds: int = 10) -> float:
    """Best-threshold k-fold verification accuracy.

    Pairs split into ``folds`` contiguous blocks; each block is scored with
    the lowest midpoint threshold that maximizes accuracy on the remaining
    blocks (see ``_best_threshold``; O(n log n) per fold). Returns the mean
    held-out accuracy.
    """
    scores = np.asarray(pair_scores, dtype=np.float64)
    labels = np.asarray(pair_labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError("pair scores and labels must be aligned 1-D arrays")
    _require_finite(scores)
    if scores.size < folds:
        raise ContractError(f"need at least {folds} pairs")
    if labels.all() or not labels.any():
        raise ContractError("both genuine and impostor pairs are required")
    split_points = np.linspace(0, scores.size, folds + 1).astype(int)
    accuracies = []
    for f in range(folds):
        lo, hi = split_points[f], split_points[f + 1]
        held = np.zeros(scores.size, dtype=bool)
        held[lo:hi] = True
        thr = _best_threshold(scores[~held], labels[~held])
        accuracies.append(((scores[held] >= thr) == labels[held]).mean())
    return float(np.mean(accuracies))


def multitask_index(row_scores, reference_scores) -> float:
    """Mean relative difference of a model's scores from reference scores.

    Zero means parity with the reference on every column; greater is better.
    """
    row = np.asarray(row_scores, dtype=np.float64)
    ref = np.asarray(reference_scores, dtype=np.float64)
    if row.shape != ref.shape or row.ndim != 1 or row.size == 0:
        raise ContractError("row and reference must be aligned non-empty 1-D arrays")
    if (ref <= 0).any():
        raise ContractError("reference values must be positive")
    return float(((row - ref) / ref).mean())


@dataclass
class ScoreTable:
    """Models x (metric, dataset) score matrix in (0, 1], NaN for missing.
    Model names and column names are each unique."""

    models: list[str]
    columns: list[str]
    values: np.ndarray
    groups: dict[str, str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.models), len(self.columns)):
            raise ValidationError("score matrix shape must be (models, columns)")
        for kind, names in (("model", self.models), ("column", self.columns)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            if duplicates:
                raise ValidationError(f"duplicate {kind} name(s) {duplicates} in score table")
        present = self.values[~np.isnan(self.values)]
        if ((present <= 0) | (present > 1)).any():
            raise ValidationError("score entries must lie in (0, 1]")

    def row(self, model: str) -> np.ndarray:
        try:
            return self.values[self.models.index(model)]
        except ValueError:
            raise ContractError(f"unknown model {model!r}") from None

    def column_max(self) -> np.ndarray:
        if np.isnan(self.values).all(axis=0).any():
            raise ContractError("a column has no entries")
        return np.nanmax(self.values, axis=0)

    def index_for(
        self,
        model: str,
        mode: str,
        human_refs: dict[str, float] | None = None,
    ) -> float:
        """Multi-task index for one row: mean relative difference from the
        column maxima (expert mode) or supplied human references (human mode).
        """
        if mode == EXPERT:
            cols = list(range(len(self.columns)))
            refs = self.column_max()
        elif mode == HUMAN:
            if not human_refs:
                raise ContractError("human mode requires reference values")
            missing = sorted(set(human_refs) - set(self.columns))
            if missing:
                raise ContractError(f"human reference columns not in table: {missing}")
            cols = [i for i, c in enumerate(self.columns) if c in human_refs]
            refs = np.array([human_refs[self.columns[i]] for i in cols])
        else:
            raise ContractError(f"unknown index mode {mode!r}")
        row = self.row(model)[cols]
        if np.isnan(row).any():
            raise ContractError(f"model {model!r} is missing entries in scored columns")
        return multitask_index(row, refs)

    def ranking(
        self, mode: str, human_refs: dict[str, float] | None = None
    ) -> list[tuple[str, float]]:
        """(model, index) pairs sorted best-first."""
        scored = [(m, self.index_for(m, mode, human_refs)) for m in self.models]
        return sorted(scored, key=lambda item: -item[1])

    def to_csv(self, out, rel: str) -> None:
        """Write through the artifact writer ``out`` (an
        ``experiments.RunResult``) to ``rel``; missing entries are empty
        cells."""
        header = ["model"] + (["group"] if self.groups else []) + self.columns
        rows = [
            [model] + ([self.groups.get(model, "")] if self.groups else []) + list(values)
            for model, values in zip(self.models, self.values)
        ]
        out.rows(rel, header, rows)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ScoreTable":
        path = Path(path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][0] != "model":
            raise ValidationError("score table must start with a 'model' header column")
        header = rows[0]
        has_group = len(header) > 1 and header[1] == "group"
        first_col = 2 if has_group else 1
        columns = header[first_col:]
        models, groups, values = [], {}, []
        for row in rows[1:]:
            if not row:
                continue
            models.append(row[0])
            if has_group:
                groups[row[0]] = row[1]
            values.append([float(v) if v else np.nan for v in row[first_col:]])
        return cls(
            models=models,
            columns=columns,
            values=np.asarray(values),
            groups=groups if has_group else None,
        )
