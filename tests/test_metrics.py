"""Retrieval/verification metrics against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskweave.errors import ContractError, ValidationError
from taskweave.experiments import RunResult
from taskweave.metrics import (
    EXPERT,
    HUMAN,
    ScoreTable,
    _best_threshold,
    multitask_index,
    pairwise_cosine,
    rank_k,
    roc_auc,
    tar_at_far,
    verification_accuracy,
)


class TestPairwiseCosine:
    def test_self_similarity_diagonal(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((6, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        sims = pairwise_cosine(emb, emb)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-12)
        np.testing.assert_allclose(sims, sims.T, atol=1e-12)

    def test_orthogonal_vectors(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert pairwise_cosine(a, b)[0, 0] == 0.0

    def test_sixty_degrees(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.cos(np.pi / 3), np.sin(np.pi / 3)]])
        assert abs(pairwise_cosine(a, b)[0, 0] - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            pairwise_cosine(np.ones((2, 3)), np.ones((2, 4)))


def oracle_tar(genuine, impostor, far):
    """Brute-force threshold sweep over every admissible threshold value."""
    impostor = np.asarray(impostor, dtype=float)
    genuine = np.asarray(genuine, dtype=float)
    candidates = np.concatenate([np.unique(impostor), [impostor.max() + 1.0]])
    admissible = [t for t in candidates if (impostor >= t).mean() <= far]
    threshold = min(admissible)
    return (genuine >= threshold).mean()


class TestTarAtFar:
    def test_perfect_separation(self):
        genuine = np.linspace(0.8, 1.0, 20)
        impostor = np.linspace(0.0, 0.2, 20)
        for far in (0.5, 0.1, 0.01):
            assert tar_at_far(genuine, impostor, far) == 1.0

    def test_identical_distributions(self):
        scores = np.arange(1, 11, dtype=float)
        assert tar_at_far(scores, scores, 0.5) == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ContractError, match="finite"):
            tar_at_far([0.9, bad], [0.1, 0.2], 0.1)
        with pytest.raises(ContractError, match="finite"):
            tar_at_far([0.9, 0.8], [bad, 0.2], 0.1)

    def test_hand_threshold_admits_top_impostor(self):
        impostor = np.arange(0.1, 1.01, 0.1)
        genuine = np.array([0.95, 1.0, 0.99, 0.5])
        # far = 0.1 admits exactly the single top impostor (threshold 1.0),
        # so only the genuine score at 1.0 passes.
        assert tar_at_far(genuine, impostor, 0.1) == 0.25
        assert tar_at_far(genuine, impostor, 0.1) == oracle_tar(genuine, impostor, 0.1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_sweep(self, seed):
        rng = np.random.default_rng(seed)
        genuine = rng.normal(0.6, 0.2, 120)
        impostor = rng.normal(0.2, 0.2, 150)
        for far in (0.3, 0.1, 0.02):
            assert tar_at_far(genuine, impostor, far) == oracle_tar(genuine, impostor, far)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_sweep_on_tied_scores(self, seed):
        # Scores on a coarse grid, so most thresholds sit inside a run of
        # ties. No genuine score lies above the top impostor, where the
        # oracle's threshold (top + 1) and ``nextafter(top)`` would differ.
        rng = np.random.default_rng(seed)
        genuine = rng.integers(0, 8, 80) / 10
        impostor = rng.integers(0, 8, 200) / 10
        for far in (0.5, 0.3, 0.1, 0.02, 0.001):
            assert tar_at_far(genuine, impostor, far) == oracle_tar(genuine, impostor, far)

    def test_monotone_in_far(self):
        rng = np.random.default_rng(9)
        genuine = rng.normal(0.5, 0.3, 100)
        impostor = rng.normal(0.3, 0.3, 100)
        fars = [0.01, 0.05, 0.1, 0.25, 0.5, 0.9]
        tars = [tar_at_far(genuine, impostor, f) for f in fars]
        assert all(a <= b for a, b in zip(tars, tars[1:]))

    def test_far_bounds(self):
        with pytest.raises(ContractError):
            tar_at_far([1.0], [0.0], 0.0)


def oracle_auc(genuine, impostor):
    wins = ties = 0
    for g in genuine:
        for i in impostor:
            wins += g > i
            ties += g == i
    return (wins + 0.5 * ties) / (len(genuine) * len(impostor))


class TestRocAuc:
    def test_perfect(self):
        assert roc_auc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_identical_sets(self):
        scores = [0.1, 0.5, 0.9]
        assert roc_auc(scores, scores) == 0.5

    def test_hand_pair_count(self):
        # 3 wins, 0 ties out of 4 pairs.
        assert roc_auc([0.9, 0.4], [0.5, 0.1]) == 0.75

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ContractError, match="finite"):
            roc_auc([0.9, bad], [0.1, 0.2])
        with pytest.raises(ContractError, match="finite"):
            roc_auc([0.9, 0.8], [0.1, bad])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        genuine = np.round(rng.normal(0.6, 0.3, 40), 2)  # rounding forces ties
        impostor = np.round(rng.normal(0.4, 0.3, 55), 2)
        assert abs(roc_auc(genuine, impostor) - oracle_auc(genuine, impostor)) < 1e-12

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        genuine = rng.normal(0.5, 0.2, 50)
        impostor = rng.normal(0.3, 0.2, 50)
        base = roc_auc(genuine, impostor)
        assert roc_auc(np.exp(genuine), np.exp(impostor)) == base
        assert roc_auc(3 * genuine + 7, 3 * impostor + 7) == base


class TestRankK:
    def test_gallery_contains_probes(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((8, 5))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        ids = np.arange(8)
        assert rank_k(emb, ids, emb, ids, 1) == 1.0

    def test_hand_ranking(self):
        # Gallery at 0, 60, 90 degrees; probes at 10, 70, 80 degrees.
        angles = lambda deg: np.column_stack(
            [np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))]
        )
        gallery = angles([0, 60, 90])
        probes = angles([10, 70, 80])
        gallery_ids = np.array([0, 1, 2])
        probe_ids = np.array([0, 1, 2])
        # Nearest gallery per probe: 10->0 (hit), 70->60 (hit), 80->90 (hit).
        assert rank_k(probes, probe_ids, gallery, gallery_ids, 1) == 1.0
        # Mislabel the last probe: its nearest is id 2, so rank-1 misses but
        # rank-2 (60 at distance 20 degrees) hits.
        probe_ids_swapped = np.array([0, 1, 1])
        assert rank_k(probes, probe_ids_swapped, gallery, gallery_ids, 1) == pytest.approx(2 / 3)
        assert rank_k(probes, probe_ids_swapped, gallery, gallery_ids, 2) == 1.0

    def test_k_at_least_gallery_size(self):
        rng = np.random.default_rng(1)
        gallery = rng.standard_normal((4, 3))
        probes = rng.standard_normal((6, 3))
        gallery_ids = np.array([0, 1, 2, 3])
        probe_ids = np.array([0, 1, 2, 3, 0, 1])
        assert rank_k(probes, probe_ids, gallery, gallery_ids, 10) == 1.0

    def test_probe_id_missing_from_gallery(self):
        with pytest.raises(ContractError, match="absent"):
            rank_k(np.ones((1, 2)), [5], np.ones((2, 2)), [0, 1], 1)

    def test_rank_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        gallery = rng.standard_normal((10, 4))
        probes = rng.standard_normal((7, 4))
        gallery_ids = np.arange(10)
        probe_ids = rng.integers(0, 10, 7)
        base = rank_k(probes, probe_ids, gallery, gallery_ids, 3)
        scaled = rank_k(2.5 * probes, probe_ids, 2.5 * gallery, gallery_ids, 3)
        assert base == scaled


def oracle_rank_k(sims, probe_ids, gallery_ids, k):
    """Per-probe stable argsort of the negated scores: ties keep gallery
    order."""
    k = min(k, gallery_ids.size)
    hits = 0
    for i in range(sims.shape[0]):
        top = np.argsort(-sims[i], kind="stable")[:k]
        hits += bool((gallery_ids[top] == probe_ids[i]).any())
    return hits / sims.shape[0]


@st.composite
def tied_retrieval(draw):
    """Probe/gallery embeddings whose cosines take only a few values:
    coordinates quantised to {-1, 0, 1}, duplicate gallery rows, few ids."""
    dim = draw(st.integers(1, 3))
    n_ids = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=dim, max_size=dim)
    gallery = draw(st.lists(row, min_size=1, max_size=8))
    gallery += draw(st.lists(st.sampled_from(gallery), max_size=4))
    gallery_ids = draw(
        st.lists(st.integers(0, n_ids - 1), min_size=len(gallery), max_size=len(gallery))
    )
    probes = draw(st.lists(row, min_size=1, max_size=6))
    probe_ids = draw(
        st.lists(st.sampled_from(gallery_ids), min_size=len(probes), max_size=len(probes))
    )
    k = draw(st.integers(1, len(gallery) + 1))
    return (
        np.array(probes),
        np.array(probe_ids),
        np.array(gallery),
        np.array(gallery_ids),
        k,
    )


class TestRankKOracle:
    @given(tied_retrieval())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort_under_heavy_ties(self, case):
        probes, probe_ids, gallery, gallery_ids, k = case
        sims = probes @ gallery.T
        expected = oracle_rank_k(sims, probe_ids, gallery_ids, k)
        assert rank_k(probes, probe_ids, gallery, gallery_ids, k) == expected

    @given(tied_retrieval())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_argsort_with_sorted_gallery_ids(self, case):
        # Non-decreasing gallery ids take the per-run maximum.
        probes, probe_ids, gallery, gallery_ids, k = case
        order = np.argsort(gallery_ids, kind="stable")
        gallery, gallery_ids = gallery[order], gallery_ids[order]
        sims = probes @ gallery.T
        expected = oracle_rank_k(sims, probe_ids, gallery_ids, k)
        assert rank_k(probes, probe_ids, gallery, gallery_ids, k) == expected

    def test_peak_memory_near_the_similarity_matrix(self):
        # N = G = 1600, 40 ids in class-grouped gallery order: the scores
        # themselves take N·G·8 bytes, and no N×G temporary of 8 bytes per
        # entry may be added to them.
        n, dim = 1600, 24
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(40), n // 40)
        gallery = rng.standard_normal((n, dim))
        probes = gallery + 0.5 * rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            rank_k(probes, ids, gallery, ids, [1, 5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8

    def test_tie_with_earlier_impostor_misses(self):
        # All scores tie; gallery index decides. The same-id item sits at
        # index 2, behind two different-id items.
        gallery = np.ones((3, 1))
        gallery_ids = np.array([0, 1, 2])
        probes = np.ones((1, 1))
        assert rank_k(probes, [2], gallery, gallery_ids, 2) == 0.0
        assert rank_k(probes, [2], gallery, gallery_ids, 3) == 1.0
        assert rank_k(probes, [0], gallery, gallery_ids, 1) == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_on_random_scores(self, seed):
        rng = np.random.default_rng(seed)
        gallery = rng.standard_normal((40, 6))
        probes = rng.standard_normal((25, 6))
        gallery_ids = rng.integers(0, 8, 40)
        probe_ids = rng.choice(gallery_ids, 25)
        sims = probes @ gallery.T
        for k in (1, 2, 5, 40, 41):
            expected = oracle_rank_k(sims, probe_ids, gallery_ids, k)
            assert rank_k(probes, probe_ids, gallery, gallery_ids, k) == expected

    @given(tied_retrieval())
    @settings(max_examples=100, deadline=None)
    def test_several_k_share_one_ranking(self, case):
        probes, probe_ids, gallery, gallery_ids, _ = case
        ks = [1, 5, 2, gallery_ids.size + 1]
        rates = rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        assert rates == tuple(rank_k(probes, probe_ids, gallery, gallery_ids, k) for k in ks)

    @pytest.mark.parametrize("ks", [[], [1, 0], (3, -1)])
    def test_every_k_checked(self, ks):
        with pytest.raises(ContractError, match="k must be"):
            rank_k(np.eye(2), [0, 1], np.eye(2), [0, 1], ks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_similarities(self, bad):
        gallery = np.eye(2)
        gallery[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            rank_k(np.eye(2), [0, 1], gallery, [0, 1], 1)


def oracle_best_threshold(scores, labels):
    """The dense candidates x scores accuracy matrix: O(n^2) memory."""
    uniq = np.unique(scores)
    if uniq.size == 1:
        return float(uniq[0])
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    candidates = np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])
    accs = ((scores[None, :] >= candidates[:, None]) == labels[None, :]).mean(axis=1)
    return float(candidates[accs.argmax()])


class TestBestThresholdOracle:
    @given(
        st.lists(
            st.tuples(st.sampled_from([-0.5, 0.0, 0.25, 0.3, 1.0]), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle_on_tied_scores(self, pairs):
        scores = np.array([s for s, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        assert _best_threshold(scores, labels) == oracle_best_threshold(scores, labels)

    @pytest.mark.parametrize("genuine_high", [True, False])
    def test_all_equal_scores(self, genuine_high):
        scores = np.full(6, 0.4)
        labels = np.arange(6) % 2 == int(genuine_high)
        assert _best_threshold(scores, labels) == oracle_best_threshold(scores, labels) == 0.4

    @pytest.mark.parametrize("base", [0.0, 0.7, -0.3, 1.0])
    def test_adjacent_floats(self, base):
        # The midpoint of two adjacent floats rounds onto one of them, so a
        # candidate coincides with a score.
        lo, hi = base, np.nextafter(base, np.inf)
        assert (lo + hi) / 2.0 in (lo, hi)
        scores = np.array([lo, hi, lo, hi, hi, lo])
        for labels in (
            np.array([0, 1, 0, 1, 1, 0], bool),
            np.array([1, 0, 1, 0, 0, 1], bool),
            np.array([1, 1, 0, 1, 0, 0], bool),
        ):
            assert _best_threshold(scores, labels) == oracle_best_threshold(scores, labels)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_on_random_scores(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(0.5, 0.3, 300), 2)
        labels = rng.random(300) < 0.5 + 0.3 * (scores - 0.5)
        assert _best_threshold(scores, labels) == oracle_best_threshold(scores, labels)


def oracle_fold_accuracy(scores, labels, folds=10):
    """Plain-loop sweep over the same midpoint threshold family (the
    tie-break convention is part of the protocol contract): lowest
    train-accuracy maximizer, scored on the held-out block."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    split = np.linspace(0, scores.size, folds + 1).astype(int)
    accs = []
    for f in range(folds):
        held = np.zeros(scores.size, dtype=bool)
        held[split[f] : split[f + 1]] = True
        uniq = np.sort(np.unique(scores[~held]))
        thresholds = [uniq[0] - 1] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] + [uniq[-1] + 1]
        best_acc, best_thr = -1.0, thresholds[0]
        for t in thresholds:
            acc = ((scores[~held] >= t) == labels[~held]).mean()
            if acc > best_acc:
                best_acc, best_thr = acc, t
        accs.append(((scores[held] >= best_thr) == labels[held]).mean())
    return float(np.mean(accs))


class TestVerificationAccuracy:
    def test_perfect_separation(self):
        scores = np.concatenate([np.linspace(0.7, 1.0, 10), np.linspace(0.0, 0.3, 10)])
        labels = np.concatenate([np.ones(10, bool), np.zeros(10, bool)])
        order = np.argsort(np.tile(np.arange(10), 2), kind="stable")
        assert verification_accuracy(scores[order], labels[order]) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores(self, bad):
        scores = np.linspace(0.0, 1.0, 20)
        scores[3] = bad
        labels = np.arange(20) % 2 == 0
        with pytest.raises(ContractError, match="finite"):
            verification_accuracy(scores, labels)

    def test_chance_for_shuffled_labels(self):
        rng = np.random.default_rng(0)
        accs = []
        for _ in range(20):
            scores = rng.uniform(0, 1, 200)
            labels = rng.integers(0, 2, 200).astype(bool)
            accs.append(verification_accuracy(scores, labels))
        assert 0.4 < np.mean(accs) < 0.6

    def test_twenty_hand_pairs_with_overlap(self):
        # Genuine scores high with one low outlier; impostors low with one
        # high outlier, interleaved so every fold holds both classes.
        genuine = np.array([0.9, 0.85, 0.8, 0.95, 0.88, 0.92, 0.83, 0.87, 0.91, 0.25])
        impostor = np.array([0.2, 0.1, 0.15, 0.3, 0.22, 0.18, 0.12, 0.28, 0.26, 0.75])
        scores = np.empty(20)
        labels = np.empty(20, dtype=bool)
        scores[0::2], scores[1::2] = genuine, impostor
        labels[0::2], labels[1::2] = True, False
        result = verification_accuracy(scores, labels)
        assert result == oracle_fold_accuracy(scores, labels)
        assert result == 0.9  # the two outliers are the only errors

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_threshold_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.concatenate([rng.normal(0.7, 0.2, 50), rng.normal(0.3, 0.2, 50)])
        labels = np.concatenate([np.ones(50, bool), np.zeros(50, bool)])
        perm = rng.permutation(100)
        assert verification_accuracy(scores[perm], labels[perm]) == pytest.approx(
            oracle_fold_accuracy(scores[perm], labels[perm]), abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            verification_accuracy(np.linspace(0, 1, 12), np.ones(12, bool))


class TestMultitaskIndex:
    def test_row_at_reference_is_zero(self):
        assert multitask_index([0.9, 0.8], [0.9, 0.8]) == 0.0

    def test_hand_substitution(self):
        assert abs(multitask_index([0.5, 1.0], [1.0, 0.5]) - 0.25) < 1e-12

    def test_reference_must_be_positive(self):
        with pytest.raises(ContractError):
            multitask_index([0.5], [0.0])


def small_table():
    return ScoreTable(
        models=["a", "b", "c"],
        columns=["m1", "m2"],
        values=np.array([[0.9, 0.8], [0.45, 0.8], [0.9, 0.4]]),
    )


class TestScoreTable:
    def test_expert_index_zero_only_for_row_of_maxima(self):
        table = small_table()
        assert table.index_for("a", EXPERT) == 0.0
        assert table.index_for("b", EXPERT) < 0.0
        assert table.index_for("c", EXPERT) < 0.0

    def test_expert_index_nonpositive_random_tables(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            values = rng.uniform(0.05, 1.0, (5, 4))
            table = ScoreTable(
                models=[f"m{i}" for i in range(5)],
                columns=[f"c{j}" for j in range(4)],
                values=values,
            )
            for model in table.models:
                assert table.index_for(model, EXPERT) <= 0.0

    def test_human_mode_subset_of_columns(self):
        table = small_table()
        refs = {"m1": 0.45}
        assert table.index_for("b", HUMAN, refs) == 0.0
        assert table.index_for("a", HUMAN, refs) == pytest.approx(1.0)

    def test_human_mode_requires_known_columns(self):
        with pytest.raises(ContractError, match="not in table"):
            small_table().index_for("a", HUMAN, {"nope": 0.5})

    def test_ranking_sorted_descending(self):
        ranking = small_table().ranking(EXPERT)
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)
        assert ranking[0][0] == "a"

    def test_csv_round_trip(self, tmp_path):
        table = ScoreTable(
            models=["x", "y"],
            columns=["c1", "c2"],
            values=np.array([[0.5, np.nan], [0.25, 1.0]]),
            groups={"x": "g1", "y": "g2"},
        )
        path = tmp_path / "t.csv"
        table.to_csv(RunResult(tmp_path), "t.csv")
        loaded = ScoreTable.from_csv(path)
        assert loaded.models == table.models
        assert loaded.columns == table.columns
        assert loaded.groups == table.groups
        np.testing.assert_array_equal(
            np.isnan(loaded.values), np.isnan(table.values)
        )
        np.testing.assert_array_equal(
            loaded.values[~np.isnan(loaded.values)], table.values[~np.isnan(table.values)]
        )

    def test_entries_validated(self):
        with pytest.raises(ValidationError, match="0, 1"):
            ScoreTable(models=["a"], columns=["c"], values=np.array([[1.5]]))

    @pytest.mark.parametrize(
        "models, columns, duplicate",
        [(["a", "a"], ["x", "y"], "model"), (["a", "b"], ["x", "x"], "column")],
    )
    def test_duplicate_names_rejected(self, models, columns, duplicate):
        # Human mode used to score only the first of two equal column names.
        with pytest.raises(ValidationError, match=f"duplicate {duplicate}"):
            ScoreTable(models=models, columns=columns, values=[[0.5, 0.9], [0.6, 0.3]])

    def test_duplicate_csv_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("model,x,x\na,0.5,0.9\n")
        with pytest.raises(ValidationError, match="duplicate column"):
            ScoreTable.from_csv(path)

    def test_missing_entry_in_scored_column_rejected(self):
        table = ScoreTable(
            models=["a", "b"],
            columns=["c1"],
            values=np.array([[0.5], [np.nan]]),
        )
        with pytest.raises(ContractError, match="missing"):
            table.index_for("b", EXPERT)


@given(
    genuine=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40),
    impostor=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_auc_always_in_unit_interval(genuine, impostor):
    value = roc_auc(genuine, impostor)
    assert 0.0 <= value <= 1.0
