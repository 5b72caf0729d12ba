"""Embedding-space structure analysis.

Principal components per task, principal angles between task subspaces,
sliding-window linear probes of task identity, and cross-task evaluation of
metrics inside another task's PC subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ContractError
from .forking import cpu_workers, forked_map

_RANK_TOL = 1e-12


@dataclass
class Subspace:
    """Column-orthonormal PC basis with its explained-variance spectrum."""

    basis: np.ndarray  # (ambient, k)
    eigvals: np.ndarray  # (k,), nonincreasing
    mean: np.ndarray  # (ambient,), zero for uncentered bases

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    def truncated(self, k: int) -> "Subspace":
        if not 1 <= k <= self.dim:
            raise ContractError(f"k = {k} outside the basis rank {self.dim}")
        return Subspace(self.basis[:, :k], self.eigvals[:k], self.mean)


def pca(X: np.ndarray, center: bool = True) -> Subspace:
    """Full-rank principal components via SVD.

    Columns follow the sign convention that each one's largest-magnitude
    entry is positive; eigenvalues are squared singular values over (n - 1).
    ``center=False`` decomposes the raw matrix (used for projections that
    must preserve inner products exactly).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ContractError("need a 2-D matrix with at least 2 rows")
    mean = X.mean(axis=0) if center else np.zeros(X.shape[1])
    Xc = X - mean
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    basis = vt.T
    flip = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])] < 0
    basis[:, flip] *= -1.0
    return Subspace(basis=basis, eigvals=s**2 / (X.shape[0] - 1), mean=mean)


def task_subspace(X: np.ndarray, variance_fraction: float) -> Subspace:
    """Centred PCA truncated at the smallest dimension whose cumulative
    eigenvalue share reaches ``variance_fraction`` (full numerical rank at
    1.0)."""
    if not 0.0 < variance_fraction <= 1.0:
        raise ContractError("variance_fraction must lie in (0, 1]")
    full = pca(X)
    total = full.eigvals.sum()
    if total == 0.0:
        return full.truncated(1)
    if variance_fraction >= 1.0:
        k = int((full.eigvals > _RANK_TOL * full.eigvals[0]).sum())
        return full.truncated(max(k, 1))
    share = np.cumsum(full.eigvals) / total
    k = int(np.searchsorted(share, variance_fraction) + 1)
    return full.truncated(min(k, full.dim))


def principal_angles(f: Subspace, g: Subspace) -> np.ndarray:
    """Canonical angles between two subspaces, nondecreasing, in [0, pi/2].

    The cosines are singular values of the cross-Gram matrix of the two
    orthonormal bases, which matches the recursive best-aligned-pair
    definition. Angles below 45 degrees are recovered through the sine of
    the projection residual instead of arccos, which loses half the digits
    near sigma = 1. Zero angles count shared directions; pi/2 orthogonal
    ones.
    """
    if f.ambient_dim != g.ambient_dim:
        raise ContractError("subspaces must share their ambient dimension")
    small, large = (f.basis, g.basis) if f.dim <= g.dim else (g.basis, f.basis)
    sigma = np.linalg.svd(small.T @ large, compute_uv=False)
    from_cos = np.arccos(np.clip(sigma, 0.0, 1.0))
    residual = small - large @ (large.T @ small)
    mu = np.linalg.svd(residual, compute_uv=False)
    from_sin = np.arcsin(np.clip(mu, 0.0, 1.0))[::-1]
    # Both routes are ascending in angle; take each angle from its
    # well-conditioned side.
    return np.where(sigma**2 > 0.5, from_sin, from_cos)


# Newton solve of the task probe. The objective is fixed: summed
# cross-entropy plus half the squared norm of the non-bias weights, i.e. the
# MAP fit under a standard-normal prior (equivalently mean loss plus
# ||W||^2 / 2n). The prior keeps the optimum unique and finite even when a
# training fold is linearly separable, so the answer never depends on where
# an iterative solver stops.
_NEWTON_GTOL = 1e-8
_NEWTON_MAX_ITER = 50
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 40
# A predicted decrease this close to the rounding of the objective cannot be
# judged by comparing objective values; the full Newton step is taken.
_RESOLVABLE = 1e3 * np.finfo(np.float64).eps


def _contrast_basis(n_classes: int) -> np.ndarray:
    """Orthonormal sum-to-zero contrasts (Helmert), shape (C, C-1).

    Class scores are W = V B^T, so every W has zero row sums (the softmax
    gauge is removed without a reference class) and ||W|| = ||V||: the
    penalty treats all classes alike.
    """
    B = np.zeros((n_classes, n_classes - 1))
    for j in range(1, n_classes):
        B[:j, j - 1] = 1.0
        B[j, j - 1] = -float(j)
        B[:, j - 1] /= np.sqrt(j * (j + 1.0))
    return B


def _probe_objective(
    Xb: np.ndarray, label_at: np.ndarray, basis: np.ndarray, V: np.ndarray
) -> tuple[float, np.ndarray]:
    """Penalised summed cross-entropy at V and the class probabilities.
    ``label_at`` indexes each row's own class score in the flattened scores."""
    Z = (Xb @ V) @ basis.T
    # Max rounds nothing, so folding it over the few class columns gives
    # Z.max(axis=1) at a fraction of the cost of a short-axis reduction.
    top = Z[:, 0]
    for j in range(1, Z.shape[1]):
        top = np.maximum(top, Z[:, j])
    top = top[:, None]
    E = np.exp(Z - top)
    total = _row_sums(E)[:, None]
    nll = (np.log(total) + top).sum() - Z.take(label_at).sum()
    return float(nll + 0.5 * (V[:-1] ** 2).sum()), E / total


def _row_sums(E: np.ndarray) -> np.ndarray:
    """``np.add.reduce(E, axis=1)`` bit for bit.

    numpy sums each row from +0.0, sequentially below 8 terms. There the
    same adds, column by column, skip a short-axis reduction's per-row
    overhead; the probe has one column per task. From 8 columns on numpy's
    pairwise order applies, and numpy's own reduction runs.
    """
    n = E.shape[1]
    if n >= 8:
        return np.add.reduce(E, axis=1)
    total = E[:, 0] + 0.0
    for j in range(1, n):
        total += E[:, j]
    return total


def _row_weighted(Xb: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``Xb * a[:, None]`` bit for bit: each row of ``Xb`` scaled by its
    weight, C-contiguous as that product is for the C-contiguous rows the
    fit passes. The same products in the same layout, so a gemm on the
    result sees the same operands, without the broadcast's length-p inner
    loop per row. The caller uses it within one statement, so the buffer
    dies with its Hessian block."""
    w = np.repeat(a, Xb.shape[1])
    w *= Xb.ravel()
    return w.reshape(Xb.shape)


def _fit_multinomial(
    Xb: np.ndarray, y: np.ndarray, basis: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Contrast weights V, shape (d+1, C-1), of the probe objective.

    ``Xb`` carries a trailing ones column (the unpenalised bias). Damped
    Newton with Armijo backtracking, stopped when the max-abs gradient is at
    most 1e-8; raises ContractError if that takes more than 50 iterations or
    a Newton step cannot be formed.
    """
    p = Xb.shape[1]
    K = basis.shape[1]
    V = np.zeros((p, K)) if start is None else np.array(start, dtype=np.float64)
    penalised = np.ones(p)
    penalised[-1] = 0.0
    target = basis[y]  # (n, K): one-hot labels in contrast coordinates
    label_at = np.arange(y.size) * basis.shape[0] + y
    pairs = [(j, k) for j in range(K) for k in range(j, K)]
    products = np.stack([basis[:, j] * basis[:, k] for j, k in pairs], axis=1)
    diagonal, ridge = np.diag_indices(K * p), np.tile(penalised, K)
    f, P = _probe_objective(Xb, label_at, basis, V)
    for _ in range(_NEWTON_MAX_ITER):
        PB = P @ basis
        grad = Xb.T @ (PB - target) + penalised[:, None] * V
        if np.abs(grad).max() <= _NEWTON_GTOL:
            return V
        # Per-sample curvature B^T (diag(p) - p p^T) B, one column per block.
        curv = P @ products
        H = np.empty((K * p, K * p))
        for col, (j, k) in enumerate(pairs):
            block = _row_weighted(Xb, curv[:, col] - PB[:, j] * PB[:, k]).T @ Xb
            H[j * p : (j + 1) * p, k * p : (k + 1) * p] = block
            H[k * p : (k + 1) * p, j * p : (j + 1) * p] = block.T
        H[diagonal] += ridge
        g = grad.T.ravel()
        try:
            step = np.linalg.solve(H, -g).reshape(K, p).T
        except np.linalg.LinAlgError:
            raise ContractError("task probe Hessian is singular") from None
        slope = float(g @ step.T.ravel())
        if -slope <= _RESOLVABLE * (1.0 + abs(f)):
            V = V + step
            f, P = _probe_objective(Xb, label_at, basis, V)
            continue
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new, P_new = _probe_objective(Xb, label_at, basis, V + t * step)
            if f_new <= f + _ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            raise ContractError("task probe line search found no decrease")
        V, f, P = V + t * step, f_new, P_new
    raise ContractError(
        f"task probe Newton solve did not converge in {_NEWTON_MAX_ITER} iterations"
    )


def _stratified_folds(y: np.ndarray, folds: int) -> np.ndarray:
    """Fold id per sample: within each class, samples cycle through folds in
    index order, so splits are deterministic and class-balanced."""
    assignment = np.empty(y.size, dtype=int)
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        assignment[members] = np.arange(members.size) % folds
    return assignment


def _fold_plan(task_labels, n_rows: int, folds: int):
    """Validated labels of a task probe, split once for any number of
    feature sets: the contrast basis and, per fold, the training and
    held-out row masks with their labels."""
    if folds < 2:
        raise ContractError(f"a task probe needs at least 2 folds, got {folds}")
    labels = np.asarray(task_labels)
    if n_rows != labels.size:
        raise ContractError("labels must align with embedding rows")
    classes, y = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ContractError("a task probe needs at least two tasks")
    counts = np.bincount(y)
    if (counts < folds).any():
        raise ContractError(f"every task needs at least {folds} samples")
    fold_of = _stratified_folds(y, folds)
    splits = []
    for f in range(folds):
        held = fold_of == f
        splits.append((~held, held, y[~held], y[held]))
    return _contrast_basis(classes.size), splits


def _cross_validate(X: np.ndarray, plan) -> tuple[float, float]:
    """Mean and std over folds of the held-out accuracy of the probe fit on
    the features ``X`` under a :func:`_fold_plan`."""
    basis, splits = plan
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    accs = []
    V = None
    for fit, held, y_fit, y_held in splits:
        # Warm start: the optimum is unique, so this changes the cost only.
        V = _fit_multinomial(Xb[fit], y_fit, basis, V)
        pred = ((Xb[held] @ V) @ basis.T).argmax(axis=1)
        accs.append((pred == y_held).mean())
    return float(np.mean(accs)), float(np.std(accs))


def linear_task_probe(
    embeddings: np.ndarray,
    task_labels,
    folds: int,
) -> tuple[float, float]:
    """Stratified k-fold CV accuracy of a linear classifier predicting the
    task an embedding came from. Returns (mean, std) across folds.

    Each fold fits multinomial logistic regression by MAP under a
    standard-normal prior on the non-bias weights: summed cross-entropy plus
    ||W||^2 / 2, the bias unpenalised (mean loss plus ||W||^2 / 2n for a
    training fold of n rows). Class scores use an orthonormal sum-to-zero
    contrast basis, so no task is a reference class and the penalty is
    symmetric in the tasks. The fit is an exact Newton solve to a max-abs
    gradient of 1e-8; the optimum is unique and finite even on separable
    folds. A solve that does not converge raises ContractError.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    return _cross_validate(X, _fold_plan(task_labels, X.shape[0], folds))


@dataclass
class ProbeCurve:
    """Task-probe accuracy over sliding windows of consecutive PCs."""

    window: int
    starts: list[int]  # 0-based index of the first PC in each window
    means: list[float]
    stds: list[float]

    def __len__(self) -> int:
        return len(self.starts)


def sliding_window_probe(
    embeddings: np.ndarray,
    task_labels,
    window: int,
    folds: int,
    *,
    space: Subspace | None = None,
    alongside: Callable[[], object] | None = None,
) -> ProbeCurve | tuple[ProbeCurve, object]:
    """Probe task identity from each window of ``window`` consecutive PCs of
    the pooled embeddings, sliding from early to late components.
    ``space`` is ``pca(embeddings)`` when the caller has it already.

    The windows are independent, so they run on every CPU the process may
    use (:func:`taskweave.forking.forked_map`); the curve is the serial
    loop's bit for bit. ``alongside``, if given, is item 0 of that map: it
    runs in this process while the children start on the windows, a failure
    in it is raised before any window's, and the result is
    ``(curve, alongside())``."""
    X = np.asarray(embeddings, dtype=np.float64)
    if space is None:
        space = pca(X)
    if window < 1 or window > space.dim:
        raise ContractError(f"window must lie in [1, {space.dim}]")
    coords = (X - space.mean) @ space.basis
    plan = _fold_plan(task_labels, X.shape[0], folds)
    starts = list(range(space.dim - window + 1))

    def probe(start: int) -> tuple[float, float]:
        return _cross_validate(coords[:, start : start + window], plan)

    items = [partial(probe, start) for start in starts]
    if alongside is not None:
        items.insert(0, alongside)
    results = forked_map(lambda item: item(), items, cpu_workers(len(items)))
    scores = results[-len(starts) :]
    curve = ProbeCurve(
        window=window,
        starts=starts,
        means=[mean for mean, _ in scores],
        stds=[std for _, std in scores],
    )
    return curve if alongside is None else (curve, results[0])


def _projections(
    source: Subspace,
    ks,
    target_embeddings: np.ndarray,
    target_eval: Callable[[np.ndarray], float],
    full_value: float | None,
) -> list[tuple[int, float, float]]:
    """(k, value, delta) for each k of ``ks``, as
    :func:`cross_task_projection_eval` defines them. A target of another
    width than the source is rejected before ``target_eval`` is called."""
    X = np.asarray(target_embeddings, dtype=np.float64)
    if X.shape[1] != source.ambient_dim:
        raise ContractError("target embeddings must live in the source ambient space")
    if full_value is None:
        full_value = target_eval(X)
    points = []
    for k in ks:
        sub = source.truncated(k)
        value = target_eval((X - sub.mean) @ sub.basis)
        points.append((k, float(value), float(value - full_value)))
    return points


def cross_task_projection_eval(
    source: Subspace,
    k: int,
    target_embeddings: np.ndarray,
    target_eval: Callable[[np.ndarray], float],
    full_value: float | None = None,
) -> tuple[float, float]:
    """Evaluate a target-task metric inside the top-k source-task PCs.

    Target embeddings are expressed in the k-dimensional source coordinates
    (centered by the source mean if the source basis was centered) and fed to
    ``target_eval``; returns the metric there and its signed delta from the
    full-space value, ``target_eval(target_embeddings)``, which the caller
    may pass as ``full_value`` when it has it already.
    """
    [(_, value, delta)] = _projections(source, [k], target_embeddings, target_eval, full_value)
    return value, delta


def projection_sweep(
    source: Subspace,
    target_embeddings: np.ndarray,
    target_eval: Callable[[np.ndarray], float],
    max_k: int | None = None,
    full_value: float | None = None,
) -> list[tuple[int, float, float]]:
    """(k, value, delta) for k = 1 .. min(max_k, source rank), as
    :func:`cross_task_projection_eval` gives them; the full-space value is
    computed once for the whole sweep, or passed in as ``full_value``."""
    top = source.dim if max_k is None else min(max_k, source.dim)
    return _projections(source, range(1, top + 1), target_embeddings, target_eval, full_value)
