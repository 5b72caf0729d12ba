"""Encoder forward/backward, triplet loss, and Adam contracts.

Gradient expectations come from central finite differences; the triplet hand
case is enumerated from chord lengths on the unit circle; the Adam scalar
case is evaluated by explicit arithmetic on the update recurrence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taskweave.encoder import (
    EncoderParams,
    GradBuffer,
    OptimState,
    _forward,
    adam_step,
    backward,
    batch_hard_triplet,
    embed,
    hardest_distances,
    id_masks,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from taskweave.errors import ContractError, NumericError
from taskweave.experiments import RunResult


def circle(*degrees):
    theta = np.deg2rad(degrees)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def anchor_loop_triplet(embeddings, ids, margin):
    """The per-anchor loop form of the batch-hard triplet subgradient: the
    bitwise oracle for the vectorised kernel."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    d_pos, d_neg, pos_idx, neg_idx = hardest_distances(embeddings, ids)
    violation = d_pos - d_neg + margin
    loss = float(np.maximum(violation, 0.0).mean())
    grad = np.zeros_like(embeddings)
    anchors = np.flatnonzero(violation >= 0.0)
    for a in anchors:
        p, q = pos_idx[a], neg_idx[a]
        if d_pos[a] > 0.0:
            u = (embeddings[a] - embeddings[p]) / d_pos[a]
            grad[a] += u
            grad[p] -= u
        if d_neg[a] > 0.0:
            v = (embeddings[a] - embeddings[q]) / d_neg[a]
            grad[a] -= v
            grad[q] += v
    grad /= n
    return loss, grad


def assert_matches_loop(emb, ids, margin):
    loss, grad = batch_hard_triplet(emb, ids, margin)
    ref_loss, ref_grad = anchor_loop_triplet(emb, ids, margin)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()


class TestEmbed:
    def test_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        params = init_params([6, 9, 4], rng)
        out = embed(params, rng.standard_normal((17, 6)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_single_identity_layer_is_identity(self):
        params = EncoderParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = circle(10, 120, 250)
        x = np.hstack([x, np.zeros((3, 1))])  # already unit norm in R^3
        np.testing.assert_allclose(embed(params, x), x, atol=1e-12)

    def test_duplicate_rows_duplicate_outputs(self):
        rng = np.random.default_rng(1)
        params = init_params([5, 7, 3], rng)
        x = rng.standard_normal((4, 5))
        doubled = np.vstack([x, x])
        out = embed(params, doubled)
        np.testing.assert_array_equal(out[:4], out[4:])

    def test_nonfinite_activation_names_layer(self):
        params = init_params([4, 5, 3], np.random.default_rng(2))
        params.weights[1][0, 0] = np.inf
        with pytest.raises(NumericError) as err:
            embed(params, np.ones((2, 4)))
        assert err.value.layer == 1

    def test_input_width_checked(self):
        params = init_params([4, 3], np.random.default_rng(3))
        with pytest.raises(ContractError, match="ambient"):
            embed(params, np.ones((2, 5)))


class TestBatchHardTriplet:
    def test_inactive_hinge_zero_loss_zero_grad(self):
        # Coincident positives, inter-id distance far beyond the margin.
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        ids = np.array([0, 0, 1, 1])
        loss, grad = batch_hard_triplet(emb, ids, margin=0.35)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(emb))

    def test_hand_case_on_unit_circle(self):
        # Two ids at angles (0, 60) and (140, 230); chord(a, b) = 2 sin(|a-b|/2).
        emb = circle(0, 60, 140, 230)
        ids = np.array([0, 0, 1, 1])
        chord = lambda a, b: 2.0 * np.sin(np.deg2rad(abs(a - b)) / 2.0)
        margin = 0.35
        per_anchor = [
            max(0.0, chord(0, 60) - min(chord(0, 140), chord(0, 230)) + margin),
            max(0.0, chord(0, 60) - min(chord(60, 140), chord(60, 230)) + margin),
            max(0.0, chord(140, 230) - min(chord(0, 140), chord(60, 140)) + margin),
            max(0.0, chord(140, 230) - min(chord(0, 230), chord(60, 230)) + margin),
        ]
        expected = sum(per_anchor) / 4.0
        loss, _ = batch_hard_triplet(emb, ids, margin)
        assert abs(loss - expected) < 1e-12
        assert expected > 0  # the configuration activates two anchors

    @pytest.mark.parametrize("seed", range(10))
    def test_embedding_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((10, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        emb += 0.01 * rng.standard_normal(emb.shape)  # break exact ties
        ids = np.repeat(np.arange(5), 2)
        _, grad = batch_hard_triplet(emb, ids, 0.35)
        fd = np.zeros_like(emb)
        h = 1e-6
        for i in range(emb.shape[0]):
            for j in range(emb.shape[1]):
                plus, minus = emb.copy(), emb.copy()
                plus[i, j] += h
                minus[i, j] -= h
                fd[i, j] = (
                    batch_hard_triplet(plus, ids, 0.35)[0]
                    - batch_hard_triplet(minus, ids, 0.35)[0]
                ) / (2 * h)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-4

    # A coarse grid of coordinates makes tied distances and coincident rows
    # common; signed zeros exercise the -0.0 bookkeeping.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_anchor_loop(self, data):
        n_ids = data.draw(st.integers(2, 6), label="n_ids")
        k = data.draw(st.integers(2, 4), label="k")
        ids = np.array(data.draw(st.permutations(np.repeat(np.arange(n_ids), k).tolist())))
        coords = st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
            st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
        )
        emb = data.draw(arrays(np.float64, (ids.size, data.draw(st.integers(1, 4))), elements=coords))
        margin = data.draw(st.sampled_from([0.0, 0.35, 100.0]), label="margin")
        assert_matches_loop(emb, ids, margin)

    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_on_all_violating_batch(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((40, 6))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        ids = np.repeat(np.arange(10), 4)
        # Unit-sphere distances are at most 2, so every hinge is active.
        assert_matches_loop(emb, ids, 3.0)

    def test_bitwise_equal_with_coincident_rows(self):
        emb = circle(0, 0, 0, 90, 90, 180)
        emb[5] = emb[0]  # a negative coincident with its anchor
        ids = np.array([0, 0, 0, 1, 1, 1])
        assert_matches_loop(emb, ids, 0.35)
        assert_matches_loop(np.zeros((4, 2)), np.array([0, 0, 1, 1]), 0.35)
        # Distinct rows whose Gram-form distance rounds to 0: the loop skips
        # them, so their nonzero difference must not reach the gradient.
        near = np.array([[1.0, 0.0], [np.nextafter(1.0, 2.0), 1e-9], [-1.0, 0.0], [-1.0, 0.0]])
        assert hardest_distances(near, np.array([0, 0, 1, 1]))[0][0] == 0.0
        assert_matches_loop(near, np.array([0, 0, 1, 1]), 3.0)

    def test_single_occurrence_id_rejected(self):
        emb = circle(0, 90, 180)
        with pytest.raises(ContractError, match="twice"):
            batch_hard_triplet(emb, np.array([0, 0, 1]), 0.35)

    def test_single_id_batch_rejected(self):
        # With one id every distance is masked as same-id, and argmin used to
        # return row 0: ids [7, 7, 7, 7] mined d_neg = 0.0 for anchor 0.
        emb = circle(0, 90, 180, 270)
        for call in (hardest_distances, lambda e, i: batch_hard_triplet(e, i, 0.35)):
            with pytest.raises(ContractError, match="two ids"):
                call(emb, np.array([7, 7, 7, 7]))
        # In a stack, one single-id batch is enough.
        stack = np.stack([emb, emb])
        with pytest.raises(ContractError, match="two ids"):
            hardest_distances(stack, np.array([[0, 0, 1, 1], [3, 3, 3, 3]]))

    def test_shared_masks_give_the_same_mining(self):
        rng = np.random.default_rng(4)
        emb = rng.standard_normal((3, 8, 4))
        ids = np.stack([rng.permutation(np.repeat(np.arange(4), 2)) for _ in range(3)])
        masks = id_masks(ids)
        for shared, own in zip(hardest_distances(emb, ids, masks), hardest_distances(emb, ids)):
            assert shared.tobytes() == own.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((12, 5))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        ids = np.repeat(np.arange(4), 3)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        loss, _ = batch_hard_triplet(emb, ids, 0.35)
        rotated, _ = batch_hard_triplet(emb @ q, ids, 0.35)
        assert abs(loss - rotated) < 1e-10

    def test_loss_nonnegative_and_zero_iff_satisfied(self):
        rng = np.random.default_rng(7)
        emb = rng.standard_normal((8, 3))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        ids = np.repeat(np.arange(4), 2)
        loss, _ = batch_hard_triplet(emb, ids, 0.35)
        assert loss >= 0.0
        d_pos, d_neg, _, _ = hardest_distances(emb, ids)
        assert (loss == 0.0) == bool((d_neg >= d_pos + 0.35).all())


class TestBackward:
    def test_zero_upstream_leaves_buffer(self):
        rng = np.random.default_rng(0)
        params = init_params([4, 6, 3], rng)
        x = rng.standard_normal((5, 4))
        buffer = GradBuffer.zeros_like(params)
        backward(params, _forward(params, x), np.zeros((5, 3)), buffer)
        assert buffer.accumulation_count == 1
        assert np.all(buffer.ravel() == 0.0)

    def test_accumulation_is_additive(self):
        rng = np.random.default_rng(1)
        params = init_params([4, 6, 3], rng)
        x = rng.standard_normal((5, 4))
        g = rng.standard_normal((5, 3))
        once = GradBuffer.zeros_like(params)
        backward(params, _forward(params, x), g, once)
        twice = GradBuffer.zeros_like(params)
        backward(params, _forward(params, x), g, twice)
        backward(params, _forward(params, x), g, twice)
        np.testing.assert_allclose(twice.ravel(), 2.0 * once.ravel(), rtol=0, atol=1e-15)
        assert twice.accumulation_count == 2

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        params = init_params([4, 3], rng)
        with pytest.raises(ContractError, match="shape"):
            backward(
                params,
                _forward(params, np.ones((2, 4))),
                np.ones((2, 5)),
                GradBuffer.zeros_like(params),
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_full_pipeline_gradient_vs_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params([5, 7, 4], rng)
        x = rng.standard_normal((12, 5))
        ids = np.repeat(np.arange(4), 3)

        def loss_at(p):
            return batch_hard_triplet(embed(p, x), ids, 0.35)[0]

        emb = embed(params, x)
        _, grad_emb = batch_hard_triplet(emb, ids, 0.35)
        buffer = GradBuffer.zeros_like(params)
        backward(params, _forward(params, x), grad_emb, buffer)
        analytic = buffer.ravel()

        fd = np.zeros_like(analytic)
        h = 1e-6
        k = 0
        for arr in params.weights + params.biases:
            flat = arr.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_at(params)
                flat[i] = orig - h
                down = loss_at(params)
                flat[i] = orig
                fd[k] = (up - down) / (2 * h)
                k += 1
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel < 1e-4


class TestAdam:
    def make(self, w, **hyper):
        params = EncoderParams(weights=[np.array([[w]])], biases=[np.zeros(1)])
        state = OptimState.for_params(params, **hyper)
        return params, state

    def test_zero_gradient_no_decay_is_identity(self):
        params, state = self.make(1.0, learning_rate=0.1, weight_decay=0.0)
        buffer = GradBuffer.zeros_like(params)
        buffer.accumulation_count = 1
        adam_step(params, buffer, state)
        assert params.weights[0][0, 0] == 1.0

    def test_hand_evaluated_scalar_step(self):
        # w=1, g=0.5, lr=0.1, betas (0.9, 0.999), eps 1e-8, no decay, step 1.
        params, state = self.make(
            1.0, learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8, weight_decay=0.0
        )
        buffer = GradBuffer.zeros_like(params)
        buffer.flat[0] = 0.5  # the one weight
        buffer.accumulation_count = 1
        adam_step(params, buffer, state)
        m_hat = (0.1 * 0.5) / (1.0 - 0.9)
        v_hat = (0.001 * 0.25) / (1.0 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(params.weights[0][0, 0] - expected) < 1e-12
        assert abs(expected - 0.900000002) < 1e-9

    def test_pure_decay_shrinks_weights(self):
        params, state = self.make(1.0, learning_rate=0.1, weight_decay=0.01)
        buffer = GradBuffer.zeros_like(params)
        buffer.accumulation_count = 1
        adam_step(params, buffer, state)
        assert 0.0 < params.weights[0][0, 0] < 1.0

    def test_buffer_zeroed_and_step_counted(self):
        params, state = self.make(1.0, learning_rate=0.1)
        buffer = GradBuffer.zeros_like(params)
        buffer.flat[0] = 0.5  # the one weight
        buffer.accumulation_count = 3
        adam_step(params, buffer, state)
        assert buffer.accumulation_count == 0
        assert np.all(buffer.ravel() == 0.0)
        assert state.step == 1

    def test_requires_accumulation(self):
        params, state = self.make(1.0)
        with pytest.raises(ContractError, match="accumulated"):
            adam_step(params, GradBuffer.zeros_like(params), state)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params([6, 8, 4], np.random.default_rng(5))
        path = tmp_path / "encoder.npz"
        save_checkpoint(params, RunResult(tmp_path), "encoder.npz")
        loaded = load_checkpoint(path)
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype
