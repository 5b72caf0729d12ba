"""PCA, principal angles, linear probes, and cross-task projection."""

import os
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taskweave import forking, geometry, scoring
from taskweave.config import default_config
from taskweave.errors import ContractError
from taskweave.experiments import build_splits
from taskweave.geometry import (
    ProbeCurve,
    cross_task_projection_eval,
    linear_task_probe,
    pca,
    principal_angles,
    projection_sweep,
    sliding_window_probe,
    task_subspace,
)
from taskweave.metrics import roc_auc
from taskweave.scoring import geometry_headlines, verification_pair_plan


def basis_vectors(dim, *indices):
    out = np.zeros((dim, len(indices)))
    for col, idx in enumerate(indices):
        out[idx, col] = 1.0
    return out


def oracle_pca(X):
    """Independent route: eigendecomposition of the covariance matrix."""
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], eigvecs[:, order]


def align_signs(basis):
    flip = basis[np.abs(basis).argmax(axis=0), np.arange(basis.shape[1])] < 0
    out = basis.copy()
    out[:, flip] *= -1.0
    return out


class TestPca:
    def test_line_in_three_dims(self):
        rng = np.random.default_rng(0)
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        X = np.outer(rng.standard_normal(50), direction)
        space = pca(X)
        assert space.eigvals[0] > 1e-2
        np.testing.assert_allclose(space.eigvals[1:], 0.0, atol=1e-20)
        cos = abs(space.basis[:, 0] @ direction)
        assert abs(cos - 1.0) < 1e-10

    def test_projection_reconstructs(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 6))
        space = pca(X)
        coords = (X - space.mean) @ space.basis
        back = coords @ space.basis.T + space.mean
        np.testing.assert_allclose(back, X, atol=1e-10)

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(2)
        space = pca(rng.standard_normal((40, 8)))
        gram = space.basis.T @ space.basis
        np.testing.assert_allclose(gram, np.eye(space.dim), atol=1e-10)
        assert (space.eigvals >= 0).all()
        assert (np.diff(space.eigvals) <= 1e-12).all()

    def test_duplicating_rows_keeps_basis(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 5))
        doubled = np.vstack([X, X])
        base = pca(X)
        dup = pca(doubled)
        oracle_vals, oracle_vecs = oracle_pca(doubled)
        np.testing.assert_allclose(dup.basis, align_signs(oracle_vecs), atol=1e-8)
        np.testing.assert_allclose(dup.basis, base.basis, atol=1e-8)
        # Eigenvalues rescale by the new (n - 1) denominator.
        n = X.shape[0]
        np.testing.assert_allclose(
            dup.eigvals, base.eigvals * 2 * (n - 1) / (2 * n - 1), atol=1e-10
        )

    def test_needs_two_rows(self):
        with pytest.raises(ContractError):
            pca(np.ones((1, 3)))


class TestTaskSubspace:
    def test_rank_two_data(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((60, 2))
        X = coords @ rng.standard_normal((2, 7))
        assert task_subspace(X, 0.99).dim == 2

    def test_threshold_one_gives_numerical_rank(self):
        rng = np.random.default_rng(5)
        coords = rng.standard_normal((60, 3))
        X = coords @ rng.standard_normal((3, 7))
        assert task_subspace(X, 1.0).dim == 3

    def test_isotropic_matches_oracle_spectrum(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((2000, 10))
        space = task_subspace(X, 0.99)
        vals, _ = oracle_pca(X)
        share = np.cumsum(vals) / vals.sum()
        oracle_k = int(np.searchsorted(share, 0.99) + 1)
        assert space.dim == oracle_k
        assert space.dim in (9, 10)


class TestPrincipalAngles:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(7)
        space = pca(rng.standard_normal((30, 6)))
        angles = principal_angles(space, space)
        assert (angles < 1e-8).all()

    def test_orthogonal_planes(self):
        from taskweave.geometry import Subspace

        f = Subspace(basis_vectors(4, 0, 1), np.ones(2), np.zeros(4))
        g = Subspace(basis_vectors(4, 2, 3), np.ones(2), np.zeros(4))
        np.testing.assert_allclose(principal_angles(f, g), np.pi / 2, atol=1e-8)

    def test_shared_axis_and_tilted_plane(self):
        from taskweave.geometry import Subspace

        f = Subspace(basis_vectors(4, 0, 1), np.ones(2), np.zeros(4))
        tilted = np.zeros((4, 2))
        tilted[0, 0] = 1.0
        tilted[1, 1] = tilted[2, 1] = 1.0 / np.sqrt(2.0)
        g = Subspace(tilted, np.ones(2), np.zeros(4))
        np.testing.assert_allclose(principal_angles(f, g), [0.0, np.pi / 4], atol=1e-8)

    def test_nondecreasing_and_bounded(self):
        rng = np.random.default_rng(8)
        f = pca(rng.standard_normal((40, 9)))
        g = pca(rng.standard_normal((40, 9)))
        angles = principal_angles(f, g)
        assert angles.size == min(f.dim, g.dim)
        assert (angles >= 0).all() and (angles <= np.pi / 2 + 1e-12).all()
        assert (np.diff(angles) >= -1e-12).all()

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        f = task_subspace(rng.standard_normal((40, 6)), 0.9)
        g = task_subspace(rng.standard_normal((40, 6)), 0.8)
        np.testing.assert_allclose(
            principal_angles(f, g), principal_angles(g, f), atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_oracle(self, seed):
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(seed)
        f = task_subspace(rng.standard_normal((30, 7)), 0.9)
        g = task_subspace(rng.standard_normal((30, 7)), 0.95)
        mine = principal_angles(f, g)
        oracle = np.sort(subspace_angles(f.basis, g.basis))
        np.testing.assert_allclose(mine, oracle, atol=1e-10)

    def test_zero_angle_count_equals_intersection_dim(self):
        from taskweave.geometry import Subspace

        f = Subspace(basis_vectors(5, 0, 1, 2), np.ones(3), np.zeros(5))
        g = Subspace(basis_vectors(5, 0, 1, 3), np.ones(3), np.zeros(5))
        angles = principal_angles(f, g)
        assert int((angles < 1e-8).sum()) == 2

    def test_ambient_mismatch(self):
        from taskweave.geometry import Subspace

        f = Subspace(basis_vectors(4, 0), np.ones(1), np.zeros(4))
        g = Subspace(basis_vectors(5, 0), np.ones(1), np.zeros(5))
        with pytest.raises(ContractError):
            principal_angles(f, g)


class TestLinearTaskProbe:
    def test_distant_clusters_fully_separable(self):
        rng = np.random.default_rng(10)
        centers = 10.0 * np.eye(4)[:, :3]
        X = np.vstack([c + 0.1 * rng.standard_normal((30, 3)) for c in centers])
        labels = np.repeat(np.arange(4), 30)
        mean, std = linear_task_probe(X, labels, folds=10)
        assert mean == 1.0

    def test_shuffled_labels_at_chance(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((400, 5))
        labels = rng.integers(0, 4, 400)
        mean, _ = linear_task_probe(X, labels, folds=10)
        assert abs(mean - 0.25) < 0.1

    def test_one_dimensional_overlap_matches_threshold_oracle(self):
        rng = np.random.default_rng(12)
        q = 0.3
        n = 2000
        a = rng.uniform(0.0, 1.0, n)
        b = rng.uniform(1.0 - q, 2.0 - q, n)
        X = np.concatenate([a, b])[:, None]
        labels = np.repeat([0, 1], n)
        mean, _ = linear_task_probe(X, labels, folds=10)
        # Brute-force optimal threshold on the sampled data.
        thresholds = np.linspace(1.0 - q, 1.0, 200)
        oracle = max(
            ((np.concatenate([a, b]) >= t) == labels).mean() for t in thresholds
        )
        assert abs(mean - oracle) < 0.03
        assert abs(mean - (1 - q / 2)) < 0.03

    def test_requires_fold_count_per_class(self):
        with pytest.raises(ContractError, match="samples"):
            linear_task_probe(np.ones((12, 2)), np.repeat([0, 1], 6), folds=10)

    @pytest.mark.parametrize("folds", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, folds):
        # One fold trains on nothing and zero folds average nothing; both
        # used to return a number.
        X, y = np.arange(24.0).reshape(12, 2), np.repeat([0, 1], 6)
        with pytest.raises(ContractError, match="2 folds"):
            linear_task_probe(X, y, folds=folds)
        with pytest.raises(ContractError, match="2 folds"):
            sliding_window_probe(X, y, window=1, folds=folds)


def with_bias(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def overlapping_classes(seed=20, per_class=30, n_classes=3, dims=2):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dims))
    y = np.repeat(np.arange(n_classes), per_class)
    return centers[y] + rng.standard_normal((y.size, dims)), y


def fit_scores(X, y, n_classes):
    """Class scores W (d+1, C) of the probe fit on (X, y)."""
    basis = geometry._contrast_basis(n_classes)
    return geometry._fit_multinomial(with_bias(X), y, basis) @ basis.T


def probe_gradient(Xb, y, W):
    """Gradient of summed cross-entropy + ||W[:-1]||^2 / 2 in W."""
    Z = Xb @ W
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    grad = Xb.T @ (P - np.eye(W.shape[1])[y])
    grad[:-1] += W[:-1]
    return grad


class TestNewtonProbeSolver:
    def test_contrast_basis_orthonormal_sum_to_zero(self):
        for C in (2, 3, 4, 7):
            B = geometry._contrast_basis(C)
            np.testing.assert_allclose(B.T @ B, np.eye(C - 1), atol=1e-14)
            np.testing.assert_allclose(B.sum(axis=0), 0.0, atol=1e-14)

    def test_matches_lbfgs_oracle(self):
        from scipy.optimize import minimize

        X, y = overlapping_classes()
        Xb = with_bias(X)
        p, C = Xb.shape[1], 3

        def objective(theta):
            W = theta.reshape(p, C)
            Z = Xb @ W
            top = Z.max(axis=1)
            lse = top + np.log(np.exp(Z - top[:, None]).sum(axis=1))
            loss = (lse - Z[np.arange(y.size), y]).sum() + 0.5 * (W[:-1] ** 2).sum()
            return loss, probe_gradient(Xb, y, W).ravel()

        oracle = minimize(
            objective,
            np.zeros(p * C),
            jac=True,
            method="L-BFGS-B",
            options={"gtol": 1e-11, "ftol": 0.0, "maxiter": 10000},
        ).x.reshape(p, C)
        # The oracle's bias row is free up to a constant; compare in the
        # sum-to-zero gauge the contrast basis fixes.
        oracle -= oracle.mean(axis=1, keepdims=True)
        W = fit_scores(X, y, C)
        np.testing.assert_allclose(W, oracle, atol=1e-6)
        basis = geometry._contrast_basis(C)
        assert np.abs(probe_gradient(Xb, y, W) @ basis).max() <= 1e-8

    def test_separable_clusters_give_finite_weights(self):
        rng = np.random.default_rng(21)
        centers = 20.0 * np.eye(4)[:, :3]
        X = np.vstack([c + 0.01 * rng.standard_normal((25, 3)) for c in centers])
        y = np.repeat(np.arange(4), 25)
        W = fit_scores(X, y, 4)
        assert np.isfinite(W).all()
        assert ((with_bias(X) @ W).argmax(axis=1) == y).all()
        basis = geometry._contrast_basis(4)
        assert np.abs(probe_gradient(with_bias(X), y, W) @ basis).max() <= 1e-8

    def test_permuting_labels_permutes_predictions(self):
        X, y = overlapping_classes(seed=22, n_classes=4, dims=3)
        perm = np.array([2, 0, 3, 1])
        grid = np.random.default_rng(23).standard_normal((200, 3)) * 2.0
        pred = (with_bias(grid) @ fit_scores(X, y, 4)).argmax(axis=1)
        pred_perm = (with_bias(grid) @ fit_scores(X, perm[y], 4)).argmax(axis=1)
        assert len(np.unique(pred)) == 4
        np.testing.assert_array_equal(pred_perm, perm[pred])

    def test_warm_and_cold_starts_agree(self):
        X, y = overlapping_classes(seed=24, per_class=40, n_classes=4, dims=5)
        Xb, basis = with_bias(X), geometry._contrast_basis(4)
        fold_of = geometry._stratified_folds(y, 5)
        warm, cold, V = [], [], None
        for f in range(5):
            held = fold_of == f
            V = geometry._fit_multinomial(Xb[~held], y[~held], basis, V)
            V_cold = geometry._fit_multinomial(Xb[~held], y[~held], basis)
            np.testing.assert_allclose(V, V_cold, atol=1e-8)
            for weights, accs in ((V, warm), (V_cold, cold)):
                pred = (Xb[held] @ weights @ basis.T).argmax(axis=1)
                accs.append((pred == y[held]).mean())
        assert warm == cold
        assert linear_task_probe(X, y, folds=5) == (np.mean(warm), np.std(warm))

    def test_non_convergence_raises(self, monkeypatch):
        X, y = overlapping_classes(seed=25)
        monkeypatch.setattr(geometry, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ContractError, match="converge"):
            fit_scores(X, y, 3)

    def test_single_task_rejected(self):
        with pytest.raises(ContractError, match="two tasks"):
            linear_task_probe(np.ones((20, 2)), np.zeros(20, dtype=int), folds=10)


def reference_probe_objective(Xb, y, basis, V):
    """The probe objective before its kernel was tightened: a short-axis
    ``max`` reduction and a fancy-indexed label gather."""
    Z = (Xb @ V) @ basis.T
    top = Z.max(axis=1, keepdims=True)
    E = np.exp(Z - top)
    total = E.sum(axis=1, keepdims=True)
    nll = (np.log(total) + top).sum() - Z[np.arange(y.size), y].sum()
    return float(nll + 0.5 * (V[:-1] ** 2).sum()), E / total


def reference_fit_multinomial(Xb, y, basis, start=None):
    """The Newton solve before its kernel was tightened: the diagonal index
    and ridge rebuilt every iteration."""
    p = Xb.shape[1]
    K = basis.shape[1]
    V = np.zeros((p, K)) if start is None else np.array(start, dtype=np.float64)
    penalised = np.ones(p)
    penalised[-1] = 0.0
    target = basis[y]
    pairs = [(j, k) for j in range(K) for k in range(j, K)]
    products = np.stack([basis[:, j] * basis[:, k] for j, k in pairs], axis=1)
    f, P = reference_probe_objective(Xb, y, basis, V)
    for _ in range(geometry._NEWTON_MAX_ITER):
        PB = P @ basis
        grad = Xb.T @ (PB - target) + penalised[:, None] * V
        if np.abs(grad).max() <= geometry._NEWTON_GTOL:
            return V
        curv = P @ products
        H = np.empty((K * p, K * p))
        for col, (j, k) in enumerate(pairs):
            a = curv[:, col] - PB[:, j] * PB[:, k]
            block = (Xb * a[:, None]).T @ Xb
            H[j * p : (j + 1) * p, k * p : (k + 1) * p] = block
            H[k * p : (k + 1) * p, j * p : (j + 1) * p] = block.T
        H[np.diag_indices(K * p)] += np.tile(penalised, K)
        g = grad.T.ravel()
        step = np.linalg.solve(H, -g).reshape(K, p).T
        slope = float(g @ step.T.ravel())
        if -slope <= geometry._RESOLVABLE * (1.0 + abs(f)):
            V = V + step
            f, P = reference_probe_objective(Xb, y, basis, V)
            continue
        t = 1.0
        for _ in range(geometry._MAX_HALVINGS):
            f_new, P_new = reference_probe_objective(Xb, y, basis, V + t * step)
            if f_new <= f + geometry._ARMIJO_C * t * slope:
                break
            t *= 0.5
        V, f, P = V + t * step, f_new, P_new
    raise AssertionError("reference solve did not converge")


class TestProbeKernelOracle:
    """The tightened probe kernel is bit-identical to the reference copy
    above, from cold and from warm starts, for every class count and
    window width the stock analyses use and beyond."""

    @pytest.mark.parametrize("width", [1, 3, 8, 24])
    @pytest.mark.parametrize("n_classes", range(2, 11))
    def test_fit_and_objective_match_reference(self, n_classes, width):
        X, y = overlapping_classes(
            seed=100 * n_classes + width, per_class=12, n_classes=n_classes, dims=width
        )
        Xb, basis = with_bias(X), geometry._contrast_basis(n_classes)
        held = geometry._stratified_folds(y, 3) == 0
        cold = geometry._fit_multinomial(Xb[~held], y[~held], basis)
        assert np.array_equal(cold, reference_fit_multinomial(Xb[~held], y[~held], basis))
        warm = geometry._fit_multinomial(Xb[held], y[held], basis, cold)
        assert np.array_equal(warm, reference_fit_multinomial(Xb[held], y[held], basis, cold))
        label_at = np.arange(y.size) * n_classes + y
        for V in (np.zeros_like(cold), cold, warm):
            f, P = geometry._probe_objective(Xb, label_at, basis, V)
            f_ref, P_ref = reference_probe_objective(Xb, y, basis, V)
            assert f == f_ref and np.array_equal(P, P_ref)


def reference_cross_validate(X, plan):
    """The fold loop before each fold biased its own rows: one biased copy
    of all of ``X``, sliced per fold."""
    basis, splits = plan
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    accs = []
    V = None
    for fit, held, y_fit, y_held in splits:
        V = geometry._fit_multinomial(Xb[fit], y_fit, basis, V)
        pred = ((Xb[held] @ V) @ basis.T).argmax(axis=1)
        accs.append((pred == y_held).mean())
    return float(np.mean(accs)), float(np.std(accs))


class TestFoldRows:
    """Each fold's own biased rows give the whole-matrix reference's mean
    and std bit for bit: on the 24-dim task probe, on the window probes'
    non-contiguous column slices, with even and uneven task sizes, at 2
    and 10 folds."""

    def tasks(self, uneven):
        # Centres close enough that no fold is separable.
        rng = np.random.default_rng(41)
        y = np.repeat(np.arange(4), 40)
        X = 0.3 * rng.standard_normal((4, 24))[y] + rng.standard_normal((y.size, 24))
        if uneven:
            keep = np.concatenate([np.flatnonzero(y == c)[: 40 - 7 * c] for c in range(4)])
            X, y = X[keep], y[keep]
        return X, y

    @pytest.mark.parametrize("folds", [2, 10])
    @pytest.mark.parametrize("uneven", [False, True])
    def test_task_probe(self, folds, uneven):
        X, y = self.tasks(uneven)
        expected = reference_cross_validate(X, geometry._fold_plan(y, X.shape[0], folds))
        assert 0.25 < expected[0] < 1.0
        assert geometry._cross_validate(X, geometry._fold_plan(y, X.shape[0], folds)) == expected
        assert linear_task_probe(X, y, folds) == expected

    @pytest.mark.parametrize("folds", [2, 10])
    @pytest.mark.parametrize("uneven", [False, True])
    def test_window_column_slices(self, folds, uneven):
        X, y = self.tasks(uneven)
        space = pca(X)
        coords = (X - space.mean) @ space.basis
        plan = geometry._fold_plan(y, X.shape[0], folds)
        for start in range(space.dim - 2):
            window = coords[:, start : start + 3]
            assert not window.flags.c_contiguous
            expected = reference_cross_validate(window, plan)
            assert geometry._cross_validate(window, plan) == expected


class TestRowWeighted:
    """The Hessian blocks' weighted rows are the broadcast ``Xb * a[:, None]``
    bit for bit and C-contiguous like it, so each block's gemm sees the same
    operands; at the stock shapes a training fold has 2,880 rows."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 32),
        st.integers(1, 40) | st.integers(2_870, 2_890),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, -0.0, 1e-300, -1e300, np.inf]),
    )
    def test_matches_the_broadcast(self, p, n, seed, special):
        rng = np.random.default_rng(seed)
        Xb = np.ascontiguousarray(rng.standard_normal((n, p)) * 10.0 ** rng.integers(-3, 4, (n, p)))
        a = rng.standard_normal(n)
        Xb.flat[rng.integers(0, Xb.size)] = special
        a[rng.integers(0, n)] = special
        with np.errstate(all="ignore"):  # overflow and inf * 0 round alike
            weighted, broadcast = geometry._row_weighted(Xb, a), Xb * a[:, None]
        assert weighted.flags.c_contiguous and weighted.shape == broadcast.shape
        assert weighted.tobytes() == broadcast.tobytes()


class TestRowSums:
    """The probe objective's row sum is numpy's reduction bit for bit,
    signed zeros included: a sequential column fold below 8 columns, numpy's
    own pairwise reduction from 8 on."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 300).flatmap(
            lambda cols: arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.just(cols)),
                elements=st.floats(-1e6, 1e6, allow_subnormal=True)
                | st.sampled_from([0.0, -0.0, 1e-300, -1e300]),
            )
        )
    )
    def test_matches_add_reduce(self, E):
        assert geometry._row_sums(E).tobytes() == np.add.reduce(E, axis=1).tobytes()

    @pytest.mark.parametrize("cols", [1, 4, 7, 8, 15, 16, 17, 128, 129, 136, 300])
    def test_random_rows(self, cols):
        E = np.exp(np.random.default_rng(cols).standard_normal((500, cols)) * 4.0)
        assert geometry._row_sums(E).tobytes() == np.add.reduce(E, axis=1).tobytes()


class TestSlidingWindowProbe:
    def make_planted(self, n_tasks=4, per_task=60, dims=10):
        rng = np.random.default_rng(13)
        means = np.zeros((n_tasks, dims))
        means[:, :3] = 3.0 * rng.standard_normal((n_tasks, 3))
        X = np.vstack(
            [m + rng.standard_normal((per_task, dims)) for m in means]
        )
        return X, np.repeat(np.arange(n_tasks), per_task)

    def test_signal_concentrated_in_early_pcs(self):
        X, labels = self.make_planted()
        curve = sliding_window_probe(X, labels, window=3, folds=5)
        assert curve.means[0] > 0.9
        assert curve.means[-1] < 0.45  # chance for 4 tasks is 0.25

    def test_curve_length(self):
        X, labels = self.make_planted(dims=8)
        curve = sliding_window_probe(X, labels, window=3, folds=5)
        assert len(curve) == 8 - 3 + 1
        assert curve.starts == list(range(6))

    def test_full_window_equals_plain_probe(self):
        X, labels = self.make_planted(dims=6)
        curve = sliding_window_probe(X, labels, window=6, folds=5)
        assert len(curve) == 1
        plain_mean, _ = linear_task_probe(X, labels, folds=5)
        assert abs(curve.means[0] - plain_mean) < 0.01

    def test_windows_match_one_probe_per_window(self):
        # The labels and folds are split once per curve; every window must
        # score exactly as a probe of its own coordinates.
        X, labels = self.make_planted(dims=7)
        curve = sliding_window_probe(X, labels, window=3, folds=5)
        space = pca(X)
        coords = (X - space.mean) @ space.basis
        for start, mean, std in zip(curve.starts, curve.means, curve.stds):
            assert (mean, std) == linear_task_probe(coords[:, start : start + 3], labels, folds=5)

    def test_window_too_large(self):
        X, labels = self.make_planted(dims=6)
        with pytest.raises(ContractError, match="window"):
            sliding_window_probe(X, labels, window=7, folds=10)


def planted_tasks(seed=29, n_tasks=4, per_task=30, dims=9):
    rng = np.random.default_rng(seed)
    means = np.zeros((n_tasks, dims))
    means[:, :3] = 2.0 * rng.standard_normal((n_tasks, 3))
    labels = np.repeat(np.arange(n_tasks), per_task)
    return means[labels] + rng.standard_normal((labels.size, dims)), labels


@pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="without fork and an affinity mask the window probes are the plain loop",
)
@pytest.mark.usefixtures("leaves_no_process_or_fd")
class TestParallelWindows:
    """The window probes run on forked workers: worker j (this process is
    worker 0) starts on window j, and the later windows go to whichever
    worker is free. The curve must be the serial loop's bit for bit, a
    failure must surface as the serial loop would raise it, and no worker
    or pipe may outlive the call."""

    WINDOW, FOLDS, N_WINDOWS = 3, 5, 7  # 9 PCs

    def force_workers(self, monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def coords(self, X):
        space = pca(X)
        return (X - space.mean) @ space.basis

    def fail_windows(self, monkeypatch, X, failing, error=ValueError):
        """Make the windows in ``failing`` raise ``error``, naming the window
        and whether it ran in this process or in a forked child."""
        first_row, parent, original = self.coords(X)[0], os.getpid(), geometry._cross_validate

        def cross_validate(features, plan):
            start = int(np.flatnonzero(first_row == features[0, 0])[0])
            if start in failing:
                where = "parent" if os.getpid() == parent else "child"
                raise error(f"window {start} failed in the {where}")
            return original(features, plan)

        monkeypatch.setattr(geometry, "_cross_validate", cross_validate)

    @pytest.mark.parametrize("workers", [1, 2, 3, 50])
    def test_curve_bitwise_equal_to_serial_loop(self, monkeypatch, workers):
        X, labels = planted_tasks()
        coords = self.coords(X)
        plan = geometry._fold_plan(labels, X.shape[0], self.FOLDS)
        serial = [
            geometry._cross_validate(coords[:, s : s + self.WINDOW], plan)
            for s in range(self.N_WINDOWS)
        ]
        self.force_workers(monkeypatch, workers)
        assert forking.cpu_workers(self.N_WINDOWS) == min(workers, self.N_WINDOWS)
        curve = sliding_window_probe(X, labels, window=self.WINDOW, folds=self.FOLDS)
        assert curve.starts == list(range(self.N_WINDOWS))
        assert np.array(curve.means).tobytes() == np.array([m for m, _ in serial]).tobytes()
        assert np.array(curve.stds).tobytes() == np.array([s for _, s in serial]).tobytes()

    # With 3 workers this process starts on window 0, the first child on 1
    # and the second child on 2; windows 3 to 6 go to whichever worker is
    # free, so only windows 0 to 2 have a fixed process.
    @pytest.mark.parametrize(
        "failing, lowest, where",
        [
            ({4}, 4, None),
            ({4, 5}, 4, None),
            ({2, 4}, 2, "child"),
            ({1, 3}, 1, "child"),
            ({3, 5}, 3, None),
            ({0, 4}, 0, "parent"),
        ],
    )
    def test_lowest_failing_window_raises(self, monkeypatch, failing, lowest, where):
        X, labels = planted_tasks()
        self.fail_windows(monkeypatch, X, failing)
        self.force_workers(monkeypatch, 3)
        with pytest.raises(ValueError) as caught:
            sliding_window_probe(X, labels, window=self.WINDOW, folds=self.FOLDS)
        assert type(caught.value) is ValueError
        where = where or "(parent|child)"
        assert re.fullmatch(f"window {lowest} failed in the {where}", str(caught.value))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_alongside_runs_here_and_leaves_the_curve(self, monkeypatch, workers):
        X, labels = planted_tasks()
        self.force_workers(monkeypatch, 1)
        alone = sliding_window_probe(X, labels, window=self.WINDOW, folds=self.FOLDS)
        self.force_workers(monkeypatch, workers)
        curve, pid = sliding_window_probe(
            X, labels, window=self.WINDOW, folds=self.FOLDS, alongside=os.getpid
        )
        assert pid == os.getpid()
        assert curve.starts == alone.starts
        assert np.array(curve.means).tobytes() == np.array(alone.means).tobytes()
        assert np.array(curve.stds).tobytes() == np.array(alone.stds).tobytes()

    def test_alongside_failure_comes_before_any_window(self, monkeypatch):
        X, labels = planted_tasks()
        self.fail_windows(monkeypatch, X, {0, 1})
        self.force_workers(monkeypatch, 2)

        def alongside():
            raise KeyError("alongside")

        with pytest.raises(KeyError, match="alongside"):
            sliding_window_probe(
                X, labels, window=self.WINDOW, folds=self.FOLDS, alongside=alongside
            )

    def test_child_ending_without_a_result_raises(self, monkeypatch):
        X, labels = planted_tasks()
        parent, original = os.getpid(), geometry._cross_validate

        def cross_validate(features, plan):
            if os.getpid() != parent:
                os._exit(3)
            return original(features, plan)

        monkeypatch.setattr(geometry, "_cross_validate", cross_validate)
        self.force_workers(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="without a result"):
            sliding_window_probe(X, labels, window=self.WINDOW, folds=self.FOLDS)

    def test_interrupt_in_parent_kills_running_children(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        X, labels = planted_tasks()
        parent = os.getpid()

        def cross_validate(features, plan):
            if os.getpid() == parent:
                raise Interrupt
            time.sleep(60)

        monkeypatch.setattr(geometry, "_cross_validate", cross_validate)
        self.force_workers(monkeypatch, 3)
        began = time.monotonic()
        with pytest.raises(Interrupt):
            sliding_window_probe(X, labels, window=self.WINDOW, folds=self.FOLDS)
        assert time.monotonic() - began < 30


def cosine_auc_eval(genuine_pairs, impostor_pairs):
    def closure(coords):
        normed = coords / np.linalg.norm(coords, axis=1, keepdims=True)
        g = np.einsum("ij,ij->i", normed[genuine_pairs[:, 0]], normed[genuine_pairs[:, 1]])
        i = np.einsum("ij,ij->i", normed[impostor_pairs[:, 0]], normed[impostor_pairs[:, 1]])
        return roc_auc(g, i)

    return closure


class TestCrossTaskProjection:
    def make_target(self, seed=14, n=120, dim=8):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(10), n // 10)
        centers = rng.standard_normal((10, dim))
        X = centers[labels] + 0.3 * rng.standard_normal((n, dim))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        genuine = np.array([(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]])
        impostor_all = [(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]]
        impostor = np.array(impostor_all[:: max(1, len(impostor_all) // len(genuine))])
        return X, cosine_auc_eval(genuine, impostor)

    def test_full_rank_projection_is_lossless(self):
        rng = np.random.default_rng(15)
        source = rng.standard_normal((100, 8))
        source /= np.linalg.norm(source, axis=1, keepdims=True)
        target, evaluator = self.make_target()
        basis = pca(source, center=False)
        _, delta = cross_task_projection_eval(basis, basis.dim, target, evaluator)
        assert abs(delta) < 1e-10

    def test_one_pc_loses_performance(self):
        rng = np.random.default_rng(16)
        source = rng.standard_normal((100, 8))
        target, evaluator = self.make_target()
        basis = pca(source, center=False)
        full = evaluator(target)
        value, delta = cross_task_projection_eval(basis, 1, target, evaluator)
        assert full > 0.9
        assert delta < -0.05

    def test_sweep_shape_and_final_point(self):
        rng = np.random.default_rng(17)
        source = rng.standard_normal((60, 8))
        target, evaluator = self.make_target()
        basis = pca(source, center=False)
        sweep = projection_sweep(basis, target, evaluator, max_k=basis.dim)
        assert [k for k, _, _ in sweep] == list(range(1, basis.dim + 1))
        assert abs(sweep[-1][2]) < 1e-10

    def test_sweep_computes_full_space_value_once(self):
        rng = np.random.default_rng(19)
        source = rng.standard_normal((60, 8))
        target, evaluator = self.make_target()
        basis = pca(source, center=False)
        full_calls = []

        def counting(coords):
            if coords.shape[1] == target.shape[1]:
                full_calls.append(1)
            return evaluator(coords)

        sweep = projection_sweep(basis, target, counting, max_k=5)
        assert len(full_calls) == 1
        per_k = [(k, *cross_task_projection_eval(basis, k, target, evaluator)) for k in range(1, 6)]
        assert sweep == per_k
        # A full-space value passed in is not evaluated again.
        full = evaluator(target)
        full_calls.clear()
        assert projection_sweep(basis, target, counting, max_k=5, full_value=full) == sweep
        assert cross_task_projection_eval(basis, 3, target, counting, full) == per_k[2][1:]
        assert full_calls == []

    def test_suite_computes_shared_values_once(self, monkeypatch, tmp_path):
        # Per suite: one PCA of the pooled embeddings, for the window probes
        # and pc2d.csv, and one full-space AUC per task, for its three
        # sweeps as a target and its self-projection.
        config = default_config(output_dir=str(tmp_path))
        _, eval_corpus = build_splits(config)
        pooled = np.vstack(
            [
                d.features / np.linalg.norm(d.features, axis=1, keepdims=True)
                for d in eval_corpus.tasks.values()
            ]
        )
        sizes = [d.n_samples for d in eval_corpus.tasks.values()]
        emb = dict(zip(eval_corpus.tasks, np.split(pooled, np.cumsum(sizes)[:-1])))
        pooled_rows = pooled.shape[0]
        pooled_pcas = []

        def counting_pca(X, center=True):
            if X.shape[0] == pooled_rows:
                pooled_pcas.append(center)
            return pca(X, center)

        full_space = Counter()
        make_eval = scoring._cosine_auc_eval

        def counting_eval(pairs):
            closure = make_eval(pairs)

            def counted(coords):
                full_space.update(name for name, e in emb.items() if coords is e)
                return closure(coords)

            return counted

        monkeypatch.setattr(geometry, "pca", counting_pca)
        monkeypatch.setattr(scoring, "pca", counting_pca)
        monkeypatch.setattr(scoring, "_cosine_auc_eval", counting_eval)
        pairs = {n: verification_pair_plan(d, config) for n, d in eval_corpus.tasks.items()}
        geometry_headlines(pooled, emb, pairs, config)
        assert pooled_pcas == [True]
        assert full_space == dict.fromkeys(emb, 1)

    def test_k_beyond_rank_rejected(self):
        rng = np.random.default_rng(18)
        basis = pca(rng.standard_normal((30, 5)), center=False)
        target, evaluator = self.make_target(dim=5)
        with pytest.raises(ContractError):
            cross_task_projection_eval(basis, basis.dim + 1, target, evaluator)

    @pytest.mark.parametrize("full_value", [None, 0.5])
    def test_target_of_another_width_is_rejected_unevaluated(self, full_value):
        rng = np.random.default_rng(20)
        basis = pca(rng.standard_normal((30, 5)), center=False)
        target = rng.standard_normal((12, 6))
        calls = []
        evaluator = lambda coords: calls.append(coords) or 0.5
        with pytest.raises(ContractError, match="source ambient space"):
            cross_task_projection_eval(basis, 1, target, evaluator, full_value)
        with pytest.raises(ContractError, match="source ambient space"):
            projection_sweep(basis, target, evaluator, full_value=full_value)
        assert calls == []


class TestProbeCurveType:
    def test_len(self):
        curve = ProbeCurve(window=3, starts=[0, 1], means=[0.9, 0.5], stds=[0.01, 0.02])
        assert len(curve) == 2
