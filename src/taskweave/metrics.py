"""Retrieval and verification metrics plus multi-task scoring indices.

All similarity comparisons use cosine on unit-norm embeddings, read from
one entry, :func:`similarity_blocks`. Ranks count only strictly higher
scores, so a tie decides no rank and every metric is deterministic.

Blocked products follow one rule, :func:`padded_blocks`: blocks of exactly
B rows, the tail zero-padded, so a row's result has the same bits wherever
it sits. ``encoder.embed`` and :func:`similarity_blocks` use it.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ValidationError

EXPERT = "expert"
HUMAN = "human"


def _require_finite(*score_sets: np.ndarray) -> None:
    if not all(np.isfinite(scores).all() for scores in score_sets):
        raise ContractError("scores must be finite")


def distinct(values) -> np.ndarray:
    """The sorted distinct values of ``values``, flattened: what plain
    ``np.unique(values)`` returns for NaN-free input, in value and dtype.

    This is numpy's own sort path, a sort and then each value that differs
    from its predecessor, without the masked-array check in front of it:
    that check imports ``numpy.ma``, about 1.2 MB resident and 14 ms, and
    no other code in the package needs it.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _embedding_pair(emb_a, emb_b) -> tuple[np.ndarray, np.ndarray]:
    emb_a = np.asarray(emb_a, dtype=np.float64)
    emb_b = np.asarray(emb_b, dtype=np.float64)
    if emb_a.ndim != 2 or emb_b.ndim != 2 or emb_a.shape[1] != emb_b.shape[1]:
        raise ContractError("embedding dimensions must match")
    return emb_a, emb_b


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
    # Sorted queries make the searches cache-friendly; the integer counts do
    # not depend on the order of the genuine scores, so the AUC is the same.
    impostor_sorted = np.sort(impostor)
    genuine_sorted = np.sort(genuine)
    below = np.searchsorted(impostor_sorted, genuine_sorted, side="left")
    below_or_equal = np.searchsorted(impostor_sorted, genuine_sorted, side="right")
    wins = below.sum() + 0.5 * (below_or_equal - below).sum()
    return float(wins / (genuine.size * impostor.size))


# Elements per block: ``similarity_blocks`` holds about this many at once,
# and the pair scores gather about this many over both sides of a slice, so
# their memory is a few blocks, not the N×G matrix or the whole pair set.
BLOCK = 1 << 16


def padded_blocks(rows: np.ndarray, size: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(lo, hi, block)`` over ``rows``: ``block`` is exactly ``size`` rows,
    ``rows[lo:hi]`` then zeros, so every product of a block has one shape.
    The blocks are one float64 buffer, refilled: each is valid until the next."""
    block = np.empty((size, *rows.shape[1:]))
    for lo in range(0, rows.shape[0], size):
        hi = min(lo + size, rows.shape[0])
        block[: hi - lo] = rows[lo:hi]
        block[hi - lo :] = 0.0
        yield lo, hi, block


def similarity_blocks(
    probe_emb: np.ndarray, gallery_emb: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(lo, hi, sims)`` over blocks of probes, ``sims[i]`` the cosines of
    probe ``lo + i`` to every gallery row: ``gallery_emb @ block.T`` for a
    padded block of B probes, B a multiple of 8 fixed by the gallery's shape,
    copied probe-major. So a probe's row has the same bits alone, shuffled or
    among any other probes. The block and both products are preallocated,
    about ``BLOCK`` elements together; each ``sims`` is valid until the next."""
    g, d = gallery_emb.shape
    size = max(8, round(BLOCK / (8 * (2 * g + d))) * 8)
    by_gallery, sims = np.empty((g, size)), np.empty((size, g))
    for lo, hi, block in padded_blocks(probe_emb, size):
        # Not out=sims.T: numpy runs that as the probe-major product.
        np.matmul(gallery_emb, block.T, out=by_gallery)
        np.copyto(sims, by_gallery.T)
        yield lo, hi, sims[: hi - lo]


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

    A probe ranks within k when fewer than k gallery items score strictly
    above its best same-id item. A tie never counts against a probe, so no
    rate depends on the gallery's order or on its id values. The gallery
    must be grouped by id in ascending order, as the callers' class-grouped
    galleries are, so that one ``maximum.reduceat`` over each block of
    :func:`similarity_blocks` gives every id's best score. A probe misses
    rank-1 when another id's best is above its own. The items above are
    counted, in one comparison pass, only when some k > 1 and only in the
    blocks with a miss: O(N·G) time for N probes and G gallery items, and
    O(BLOCK + N + G) memory. The per-id maxima carry a row's NaN or +inf
    and its minimum its -inf, so no pass checks the similarities alone.
    Gallery ids out of order, non-finite similarities, ids that do not align
    with the embedding rows and an empty probe set raise ContractError.
    """
    probe_emb, gallery_emb = _embedding_pair(probe_emb, gallery_emb)
    probe_ids = np.asarray(probe_ids)
    gallery_ids = np.asarray(gallery_ids)
    if probe_ids.shape != probe_emb.shape[:1] or gallery_ids.shape != gallery_emb.shape[:1]:
        raise ContractError("ids must align with embedding rows")
    if not probe_ids.size:
        raise ContractError("the probe set must be non-empty")
    ks = tuple(k) if isinstance(k, Sequence) else (k,)
    if not ks or min(ks) < 1:
        raise ContractError("k must be >= 1")
    if not (gallery_ids[1:] >= gallery_ids[:-1]).all():
        raise ContractError("the gallery must be grouped by id, in ascending order")
    missing = sorted(set(probe_ids.tolist()) - set(gallery_ids.tolist()))
    if missing:
        raise ContractError(f"probe ids absent from gallery: {missing[:5]}")
    n = probe_ids.size
    starts = np.flatnonzero(np.r_[True, gallery_ids[1:] != gallery_ids[:-1]])
    run = np.searchsorted(gallery_ids[starts], probe_ids)
    count_ranks = max(ks) > 1
    ahead = np.zeros(n, dtype=np.intp)
    for lo, hi, sims in similarity_blocks(probe_emb, gallery_emb):
        per_id = np.maximum.reduceat(sims, starts, axis=1)
        top = per_id.max(axis=1)
        # maximum carries a row's NaN and its +inf, the minimum its -inf.
        _require_finite(top, sims.min(axis=1))
        best = np.take_along_axis(per_id, run[lo:hi, None], axis=1)
        missed = top > best[:, 0]
        if count_ranks and missed.any():
            ahead[lo:hi] = np.count_nonzero(sims > best, axis=1)
        else:
            ahead[lo:hi] = missed  # a missed probe has at least one item ahead
    rates = tuple(int(np.count_nonzero(ahead < each)) / n for each in ks)
    return rates if isinstance(k, Sequence) else rates[0]


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold (predict same when score >= threshold) maximizing accuracy.

    Candidates are midpoints between consecutive distinct scores plus one
    value below and one above the range, so a chosen threshold sits centered
    in its separating gap; the lowest maximizer wins (deterministic). The
    correct count at candidate c is #genuine >= c plus #impostor < c, read
    off one sort per label by binary search: O(n log n) for n scores.
    """
    uniq = distinct(scores)
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
        ``artifacts.RunResult``) to ``rel``; missing entries are empty
        cells."""
        header = ["model"] + (["group"] if self.groups else []) + self.columns
        rows = [
            [model] + ([self.groups.get(model, "")] if self.groups else []) + list(values)
            for model, values in zip(self.models, self.values)
        ]
        out.rows(rel, header, rows)

    @classmethod
    def from_csv(cls, path: str | Path) -> "ScoreTable":
        """Read a table written by ``to_csv``. A file that is not such a
        table raises ValidationError naming it."""
        path = Path(path)
        try:
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
        except (OSError, ValueError, csv.Error) as exc:
            raise ValidationError(f"{path}: not a readable CSV file ({exc})") from None
        if not rows or rows[0][:1] != ["model"]:
            raise ValidationError(f"{path}: score table must start with a 'model' header column")
        header = rows[0]
        has_group = len(header) > 1 and header[1] == "group"
        first_col = 2 if has_group else 1
        columns = header[first_col:]
        models, groups, values = [], {}, []
        for number, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {number} has {len(row)} cells, the header {len(header)}"
                )
            models.append(row[0])
            if has_group:
                groups[row[0]] = row[1]
            try:
                values.append([float(v) if v else np.nan for v in row[first_col:]])
            except ValueError:
                message = f"{path}: row {number} has a cell that is not a number"
                raise ValidationError(message) from None
        try:
            return cls(
                models=models,
                columns=columns,
                values=np.asarray(values),
                groups=groups if has_group else None,
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
