"""Retrieval/verification metrics against brute-force oracles."""

import tracemalloc
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskweave import metrics, scoring
from taskweave.artifacts import RunResult
from taskweave.errors import ContractError, ValidationError
from taskweave.metrics import (
    EXPERT,
    HUMAN,
    ScoreTable,
    _best_threshold,
    distinct,
    multitask_index,
    padded_blocks,
    rank_k,
    roc_auc,
    similarity_blocks,
    tar_at_far,
    verification_accuracy,
)
from taskweave.scoring import _pair_scores


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


def unsorted_query_auc(genuine, impostor):
    """The rank-sum AUC searched with the genuine scores in their given
    order, as ``roc_auc`` computed it before it sorted them."""
    impostor_sorted = np.sort(np.asarray(impostor, dtype=np.float64))
    genuine = np.asarray(genuine, dtype=np.float64)
    below = np.searchsorted(impostor_sorted, genuine, side="left")
    below_or_equal = np.searchsorted(impostor_sorted, genuine, side="right")
    wins = below.sum() + 0.5 * (below_or_equal - below).sum()
    return float(wins / (genuine.size * impostor_sorted.size))


class TestRocAucOracle:
    """Sorting the genuine scores changes only the order of the searches:
    the win and tie counts are integers, so the AUC is bit for bit the
    unsorted one."""

    QUANTISED = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.3, 1.0])

    @given(
        st.lists(QUANTISED, min_size=1, max_size=40),
        st.lists(QUANTISED, min_size=1, max_size=25),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_unsorted_search_on_tied_scores(self, genuine, impostor):
        value = roc_auc(genuine, impostor)
        assert value == unsorted_query_auc(genuine, impostor)
        assert abs(value - oracle_auc(genuine, impostor)) < 1e-12

    @pytest.mark.parametrize("sizes", [(1500, 1500), (37, 1200), (900, 3)])
    def test_matches_unsorted_search_on_random_scores(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        genuine = np.round(rng.normal(0.6, 0.3, sizes[0]), 3)
        impostor = np.round(rng.normal(0.4, 0.3, sizes[1]), 3)
        assert roc_auc(genuine, impostor) == unsorted_query_auc(genuine, impostor)


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

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError, match="dimensions"):
            rank_k(np.ones((2, 3)), [0, 1], np.ones((2, 4)), [0, 1], 1)

    def test_probe_id_missing_from_gallery(self):
        with pytest.raises(ContractError, match="absent"):
            rank_k(np.ones((1, 2)), [5], np.ones((2, 2)), [0, 1], 1)

    @pytest.mark.parametrize(
        "probe_ids, gallery_rows, gallery_ids, message",
        [
            # maximum.reduceat would fold the two extra rows into id 3's run.
            ([0, 1], 6, [0, 1, 2, 3], "align"),
            ([0, 1, 2], 4, [0, 1, 2, 3], "align"),
            ([[0, 1]], 4, [0, 1, 2, 3], "align"),
            ([], 4, [0, 1, 2, 3], "non-empty"),
            ([], 0, [], "non-empty"),
        ],
    )
    def test_rejects_misaligned_or_empty_inputs(
        self, probe_ids, gallery_rows, gallery_ids, message
    ):
        probes = np.ones((2 if message == "align" else 0, 3))
        gallery = np.ones((gallery_rows, 3))
        with pytest.raises(ContractError, match=message):
            rank_k(probes, probe_ids, gallery, gallery_ids, 1)

    def test_rank_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        gallery = rng.standard_normal((10, 4))
        probes = rng.standard_normal((7, 4))
        gallery_ids = np.arange(10)
        probe_ids = rng.integers(0, 10, 7)
        base = rank_k(probes, probe_ids, gallery, gallery_ids, 3)
        scaled = rank_k(2.5 * probes, probe_ids, 2.5 * gallery, gallery_ids, 3)
        assert base == scaled


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


def sorted_gallery(gallery, gallery_ids):
    """The gallery rows and ids grouped by id in ascending order, as
    ``rank_k`` requires: a stable sort keeps each id's rows in their order."""
    order = np.argsort(gallery_ids, kind="stable")
    return gallery[order], gallery_ids[order]


class TestRankKOracle:
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_descent_in_the_gallery_ids_is_refused(self, ids, data):
        # Any gallery with one id below the id before it, wherever that is
        # and whatever the other ids are, raises before any similarity.
        i = data.draw(st.integers(1, len(ids) - 1), label="descent")
        ids[i] = ids[i - 1] - data.draw(st.integers(1, 3), label="drop")
        gallery_ids = np.array(ids)
        probe_ids = np.array(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4)))
        rng = np.random.default_rng(len(ids))
        gallery = rng.standard_normal((gallery_ids.size, 3))
        probes = rng.standard_normal((probe_ids.size, 3))
        with mock.patch.object(metrics, "similarity_blocks") as kernel:
            with pytest.raises(ContractError, match="grouped by id, in ascending order"):
                rank_k(probes, probe_ids, gallery, gallery_ids, [1, 5])
        kernel.assert_not_called()

    @given(tied_retrieval())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_strict_oracle_with_sorted_gallery_ids(self, case):
        probes, probe_ids, gallery, gallery_ids, k = case
        gallery, gallery_ids = sorted_gallery(gallery, gallery_ids)
        expected = dense_rank_k(probes, probe_ids, gallery, gallery_ids, k, masked=True)
        assert rank_k(probes, probe_ids, gallery, gallery_ids, k) == expected

    @given(tied_retrieval(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_relabeling_the_ids_changes_no_rate(self, case, data):
        # Renaming the ids by a permutation of their values and regrouping
        # the gallery by a stable sort moves tied items of different ids
        # past each other; a rate that belongs to the scores stays.
        probes, probe_ids, gallery, gallery_ids, k = case
        values = np.unique(gallery_ids)
        renamed = np.array(data.draw(st.permutations(values.tolist()), label="renamed"))

        def rates(relabel):
            ordered = sorted_gallery(gallery, relabel(gallery_ids))
            return rank_k(probes, relabel(probe_ids), *ordered, [1, 2, k])

        relabeled = rates(lambda ids: renamed[np.searchsorted(values, ids)])
        assert relabeled == rates(lambda ids: ids)

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

    def test_an_impostor_tied_with_the_best_same_id_item_is_not_ahead(self):
        # All scores tie: no item scores strictly above the same-id one, so
        # every probe ranks 0, wherever its id sits in the gallery.
        gallery_ids = np.array([0, 1, 2])
        probes = np.ones((1, 1))
        for probe_id in gallery_ids:
            assert rank_k(probes, [probe_id], np.ones((3, 1)), gallery_ids, [1, 2]) == (1.0, 1.0)
        # Scores (2, 1, 1): only id 0 is ahead of id 2, whatever the index
        # of the tied id 1, so the counted rank is 1.
        gallery = np.array([[2.0], [1.0], [1.0]])
        assert rank_k(probes, [2], gallery, gallery_ids, [1, 2]) == (0.0, 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_on_random_scores(self, seed):
        rng = np.random.default_rng(seed)
        gallery = rng.standard_normal((40, 6))
        probes = rng.standard_normal((25, 6))
        gallery_ids = np.sort(rng.integers(0, 8, 40))
        probe_ids = rng.choice(gallery_ids, 25)
        for k in (1, 2, 5, 40, 41):
            expected = dense_rank_k(probes, probe_ids, gallery, gallery_ids, k, masked=True)
            assert rank_k(probes, probe_ids, gallery, gallery_ids, k) == expected

    @given(tied_retrieval())
    @settings(max_examples=100, deadline=None)
    def test_several_k_share_one_ranking(self, case):
        probes, probe_ids, gallery, gallery_ids, _ = case
        gallery, gallery_ids = sorted_gallery(gallery, gallery_ids)
        ks = [1, 5, 2, gallery_ids.size + 1]
        rates = rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        assert rates == tuple(rank_k(probes, probe_ids, gallery, gallery_ids, k) for k in ks)

    @pytest.mark.parametrize("ks", [[], [1, 0], (3, -1)])
    def test_every_k_checked(self, ks):
        with pytest.raises(ContractError, match="k must be"):
            rank_k(np.eye(2), [0, 1], np.eye(2), [0, 1], ks)

    @pytest.mark.parametrize(
        "rows, n", [(8, 1)] + [(rows, m * rows + 1) for rows in (8, 16) for m in (1, 2, 5)]
    )
    def test_a_one_probe_tail_is_padded_to_a_full_block(self, rows, n):
        # The last block holds a single probe, padded to ``rows`` rows, so
        # it runs as the same product as every other block.
        rng = np.random.default_rng(100 * rows + n)
        # Quantised coordinates tie many scores; few ids share them.
        gallery = rng.integers(-1, 2, (12, 3)).astype(float)
        probes = rng.integers(-1, 2, (n, 3)).astype(float)
        gallery_ids = np.sort(rng.integers(0, 4, 12))
        probe_ids = rng.choice(gallery_ids, n)
        ks = [1, 2, 5, 13]
        with blocks_of(rows, gallery):
            assert [hi - lo for lo, hi, _ in similarity_blocks(probes, gallery)][-1] == 1
            rates = rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        assert rates == dense_rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        assert rates == dense_rank_k(probes, probe_ids, gallery, gallery_ids, ks, masked=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_similarities(self, bad):
        # One probe, scoring (1, bad): no 0·inf turns a finite score into
        # NaN beside it, so -inf is the row's minimum and not its argmax.
        gallery = np.eye(2)
        gallery[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            rank_k(np.eye(2)[:1], [0], gallery, [0, 1], 1)

    @pytest.mark.parametrize(
        "probes, ks, rates",
        [
            (np.eye(4), 1, 1.0),
            (np.eye(4), [1, 5], (1.0, 1.0)),
            (np.eye(4)[[1, 0, 3, 2]], 1, 0.0),
        ],
        ids=["hits", "hits-rank5", "misses"],
    )
    def test_per_id_maxima_decide_rank_one_without_counting(self, probes, ks, rates):
        # Another id's best score is or is not above the probe's own id's
        # best; either decides rank-1, and with every probe a hit it
        # decides rank-5 too. No row of similarities is counted.
        ids = [0, 1, 2, 3]
        with mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as spy:
            assert rank_k(probes, ids, np.eye(4), ids, ks) == rates
        assert all(np.ndim(call.args[0]) == 1 for call in spy.call_args_list)


def dense_rank_k(probe_emb, probe_ids, gallery_emb, gallery_ids, k, masked=False):
    """The strict rule on the whole N×G similarity matrix at once, the
    gallery ids sorted: a probe ranks within k when fewer than k items score
    strictly above its best same-id score. That score is the maximum of its
    id's run of columns, or with ``masked`` the maximum of the row with every
    other id's columns masked out."""
    probe_ids = np.asarray(probe_ids)
    gallery_ids = np.asarray(gallery_ids)
    ks = tuple(k) if isinstance(k, Sequence) else (k,)
    sims = probe_emb @ gallery_emb.T
    if not masked:
        runs = np.flatnonzero(np.r_[True, gallery_ids[1:] != gallery_ids[:-1]])
        run_best = np.maximum.reduceat(sims, runs, axis=1)
        column = np.searchsorted(gallery_ids[runs], probe_ids)
        best = run_best[np.arange(sims.shape[0]), column][:, None]
    else:
        same_id = probe_ids[:, None] == gallery_ids[None, :]
        best = np.where(same_id, sims, -np.inf).max(axis=1)[:, None]
    ahead = np.count_nonzero(sims > best, axis=1)
    rates = tuple(int(np.count_nonzero(ahead < each)) / sims.shape[0] for each in ks)
    return rates if isinstance(k, Sequence) else rates[0]


def block_rows(gallery_size, width):
    """The probes per block of ``similarity_blocks`` against a gallery of
    ``gallery_size`` rows of ``width``: the multiple of 8, at least 8,
    nearest to holding the padded block and both its products in ``BLOCK``
    elements."""
    return max(8, round(metrics.BLOCK / (8 * (2 * gallery_size + width))) * 8)


def blocks_of(rows, gallery):
    """Patch the block size so that each block holds ``rows`` probes, a
    multiple of 8, against ``gallery``."""
    return mock.patch.object(metrics, "BLOCK", rows * (2 * gallery.shape[0] + gallery.shape[1]))


def kernel_sims(probes, gallery):
    """Every probe's similarities, assembled from ``similarity_blocks``;
    each block must hold ``block_rows`` probes, the last one at most."""
    out = np.empty((probes.shape[0], gallery.shape[0]))
    sizes = []
    for lo, hi, sims in similarity_blocks(probes, gallery):
        out[lo:hi] = sims
        sizes.append(hi - lo)
    rows = block_rows(*gallery.shape)
    assert rows % 8 == 0 and set(sizes[:-1]) <= {rows} and sizes[-1] <= rows
    return out


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestPaddedBlocks:
    """``padded_blocks`` cuts rows into blocks of exactly ``size`` rows, the
    tail zero-padded, all in one reused float64 buffer."""

    @pytest.mark.parametrize(
        "size, n",
        [(1, 1), (1, 3)]
        + [(size, m * size + d) for size in (3, 8) for m in (1, 2) for d in (-1, 0, 1)],
    )
    def test_blocks_tile_the_rows_and_pad_the_tail(self, size, n):
        rows = np.arange(1, 2 * n + 1).reshape(n, 2)
        seen, buffers = [], set()
        for lo, hi, block in padded_blocks(rows, size):
            assert block.shape == (size, 2) and block.dtype == np.float64
            assert np.array_equal(block[: hi - lo], rows[lo:hi])
            assert not block[hi - lo :].any()
            seen.append((lo, hi))
            buffers.add(id(block))
        starts = range(0, n, size)
        assert seen == [(lo, min(lo + size, n)) for lo in starts]
        assert len(buffers) == 1

    def test_stacked_rows_keep_their_trailing_shape(self):
        rows = np.ones((5, 2, 3))
        blocks = [block.copy() for _, _, block in padded_blocks(rows, 4)]
        assert [b.shape for b in blocks] == [(4, 2, 3), (4, 2, 3)]
        assert blocks[1][:1].all() and not blocks[1][1:].any()


class TestSimilarityBlocks:
    """Each block of probes is one gallery-major product of exactly B rows,
    the tail zero-padded: a probe's similarities must have the same bits
    wherever it sits."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_probes_bits_do_not_depend_on_the_other_probes(self, data):
        # Widths 1 to 128; galleries that put B far above its floor of 8
        # (16 to 64 rows) and at it (over 2,048 rows); probe counts on both
        # sides of B. A probe gets the same bits alone, shuffled and among
        # any other probes, in C or Fortran order.
        width = data.draw(st.integers(1, 128), label="width")
        size = data.draw(st.one_of(st.integers(16, 64), st.integers(2049, 2300)), label="gallery")
        rows = block_rows(size, width)
        counts = st.one_of(
            st.integers(1, 9),
            st.sampled_from([rows - 1, rows, rows + 1, 2 * rows + 1]),
            st.integers(1, 3 * rows),
        )
        n, m = data.draw(counts, label="n"), data.draw(counts, label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        gallery = unit_rows(rng.standard_normal((size, width)))
        probes = unit_rows(rng.standard_normal((n, width)))
        if data.draw(st.booleans(), label="fortran"):
            probes = np.asfortranarray(probes)
        full = kernel_sims(probes, gallery)
        order = rng.permutation(n)
        assert kernel_sims(probes[order], gallery).tobytes() == full[order].tobytes()
        i = data.draw(st.integers(0, n - 1), label="row")
        assert kernel_sims(probes[i : i + 1], gallery).tobytes() == full[i : i + 1].tobytes()
        others = unit_rows(rng.standard_normal((m, width)))
        j = data.draw(st.integers(0, m), label="position")
        among = kernel_sims(np.insert(others, j, probes[i], axis=0), gallery)
        assert among[j].tobytes() == full[i].tobytes()

    def test_self_similarity_diagonal(self):
        emb = unit_rows(np.random.default_rng(0).standard_normal((6, 4)))
        sims = kernel_sims(emb, emb)
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-12)
        np.testing.assert_allclose(sims, sims.T, atol=1e-12)

    def test_orthogonal_vectors(self):
        assert kernel_sims(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0, 0] == 0.0

    def test_sixty_degrees(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.cos(np.pi / 3), np.sin(np.pi / 3)]])
        assert abs(kernel_sims(a, b)[0, 0] - 0.5) < 1e-12

    @pytest.mark.parametrize("size", [10, 400, 1600])
    def test_stock_width_gives_the_dense_products_bits(self, size):
        # At width 24, blocks of 8 to 40 probes reproduce the dense product
        # bit for bit, so moving rank_k onto the kernel moved no score.
        rng = np.random.default_rng(size)
        gallery = unit_rows(rng.standard_normal((size, 24)))
        probes = unit_rows(rng.standard_normal((120, 24)))
        dense = probes @ gallery.T
        assert kernel_sims(probes, gallery).tobytes() == dense.tobytes()
        for rows in range(8, 41, 8):
            with blocks_of(rows, gallery):
                assert kernel_sims(probes, gallery).tobytes() == dense.tobytes(), rows


class TestBlockedRankK:
    """``rank_k`` scores the probes in blocks of rows; small blocks must
    give exactly the counts of the dense matrix."""

    @given(tied_retrieval(), st.sampled_from([8, 16]), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_small_blocks_match_the_oracles_under_heavy_ties(self, case, rows, copies):
        probes, probe_ids, gallery, gallery_ids, k = case
        gallery, gallery_ids = sorted_gallery(gallery, gallery_ids)
        # Up to four copies of the probe set, so that it spans several blocks.
        probes, probe_ids = np.tile(probes, (copies, 1)), np.tile(probe_ids, copies)
        expected = dense_rank_k(probes, probe_ids, gallery, gallery_ids, k, masked=True)
        ks = [k, 1, gallery_ids.size + 1]
        dense = dense_rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        # Each probe's best same-id score from its own run of columns is
        # the maximum of the entries the masked maximum over the row takes.
        assert dense_rank_k(probes, probe_ids, gallery, gallery_ids, ks, masked=True) == dense
        with blocks_of(rows, gallery):
            assert rank_k(probes, probe_ids, gallery, gallery_ids, k) == expected
            assert rank_k(probes, probe_ids, gallery, gallery_ids, ks) == dense

    @pytest.mark.parametrize("seed", range(3))
    def test_runs_of_every_length_match_the_masked_maximum(self, seed):
        # Class-grouped galleries with runs of 1 to 12 columns, scores
        # quantised so that many tie, in blocks of 8 probes.
        rng = np.random.default_rng(seed)
        gallery_ids = np.repeat(np.arange(30), rng.integers(1, 13, 30))
        gallery = rng.integers(-2, 3, (gallery_ids.size, 4)).astype(float)
        probe_ids = rng.choice(gallery_ids, 50)
        probes = gallery[rng.integers(0, gallery_ids.size, 50)]
        probes += rng.integers(-1, 2, probes.shape)
        ks = [1, 2, 5, 20]
        masked = dense_rank_k(probes, probe_ids, gallery, gallery_ids, ks, masked=True)
        with blocks_of(8, gallery):
            assert rank_k(probes, probe_ids, gallery, gallery_ids, ks) == masked

    @pytest.mark.parametrize("width, noise", [(24, 1.5), (64, 3.0)])
    def test_unchanged_under_a_probe_permutation_and_any_block_size(self, width, noise):
        # 250 noisy probes of a 400-row gallery of 40 ids, so that many
        # probes miss and rank-k is counted.
        rng = np.random.default_rng(width)
        gallery_ids = np.repeat(np.arange(40), 10)
        gallery = unit_rows(rng.standard_normal((400, width)))
        pick = rng.integers(0, 400, 250)
        jitter = noise * rng.standard_normal((250, width)) / np.sqrt(width)
        probes = unit_rows(gallery[pick] + jitter)
        probe_ids = gallery_ids[pick]
        ks = [1, 2, 5, 20]
        rates = rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        assert 0.2 < rates[0] < 0.9
        assert rates == dense_rank_k(probes, probe_ids, gallery, gallery_ids, ks)
        order = rng.permutation(250)
        assert rank_k(probes[order], probe_ids[order], gallery, gallery_ids, ks) == rates
        for rows in (8, 16, 24, 64, 256):
            with blocks_of(rows, gallery):
                assert rank_k(probes, probe_ids, gallery, gallery_ids, ks) == rates, rows

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_similarity_in_the_last_block_raises(self, bad):
        # The last probe scores (1, 0, ±inf) against the gallery: its third
        # coordinate, ±1e300, times the gallery's 1e300 overflows beside
        # finite scores, so -inf is found by the row minimum alone. A NaN
        # coordinate makes the whole row NaN.
        probes = np.eye(3)[np.arange(17) % 3]
        probes[16, 2] = bad if np.isnan(bad) else np.copysign(1e300, bad)
        ids = np.arange(17) % 3
        gallery = np.diag([1.0, 1.0, 1e300])
        with blocks_of(8, gallery), pytest.raises(ContractError, match="finite"):
            rank_k(probes, ids, gallery, [0, 1, 2], 1)

    def test_peak_memory_a_few_blocks(self):
        # The setting of test_peak_memory_near_the_similarity_matrix: the
        # N·G·8 bytes of scores never exist at once, only a few blocks of
        # them and arrays of O(N + G) entries.
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
        assert peak <= 4 * metrics.BLOCK * 8 + 256 * (n + n)

    def test_peak_memory_when_almost_every_probe_misses(self):
        # Each probe's nearest gallery rows belong to the next id, so the
        # argmax misses almost every probe and rank-5 needs counts. They run
        # over the block in place: beside the kernel's buffers, about one
        # block together, only temporaries of at most half a block and
        # arrays of O(N + G) entries are alive, where a copy of every missed
        # row would add most of a block.
        n, dim = 1600, 24
        rng = np.random.default_rng(0)
        ids = np.repeat(np.arange(40), n // 40)
        gallery = rng.standard_normal((n, dim))
        probes = gallery + 0.5 * rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            rank1, _ = rank_k(probes, (ids + 1) % 40, gallery, ids, [1, 5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rank1 < 0.01
        assert peak <= 1.5 * metrics.BLOCK * 8 + 64 * (n + n)


@st.composite
def around_a_boundary(draw):
    """(pairs per block, count): a count of whole blocks and one pair
    short, exact or one pair over, the last leaving a one-pair tail."""
    rows = draw(st.integers(2, 6))
    count = draw(st.integers(1, 4)) * rows + draw(st.integers(-1, 1))
    return rows, count


class TestBlockedPairScores:
    """The pair scores are gathered in plain slices of pairs, both sides of
    a slice together about ``BLOCK`` elements; any slices, a one-pair tail
    included, must give the one-shot result bit for bit."""

    @given(around_a_boundary(), st.integers(2, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_blocked_pair_scores_are_the_one_shot_bits(self, case, n, dim, seed):
        rows, n_pairs = case
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, dim))
        pairs = rng.integers(0, n, (n_pairs, 2))
        one_shot = np.einsum("ij,ij->i", emb[pairs[:, 0]], emb[pairs[:, 1]])
        with mock.patch.object(scoring, "BLOCK", 2 * rows * dim):
            blocked = _pair_scores(emb, pairs[:, 0], pairs[:, 1])
        assert blocked.tobytes() == one_shot.tobytes()


# Labels: negative, sparse (far apart) and dense ids, drawn from a few values
# so repeats are common. Scores: ties, both zeros and extreme magnitudes.
LABEL_VALUES = st.sampled_from([-(2**40), -7, -1, 0, 1, 2, 3, 1000, 2**40]) | st.integers(-5, 5)
SCORE_VALUES = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5, -0.5]
) | st.floats(allow_nan=False)


class TestDistinctOracle:
    """``distinct`` is plain ``np.unique`` in value, dtype and bits."""

    @staticmethod
    def assert_unique(values):
        expected, got = np.unique(values), distinct(values)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @given(st.lists(LABEL_VALUES, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_int_labels(self, labels):
        self.assert_unique(np.array(labels, dtype=np.int64))

    @given(st.lists(SCORE_VALUES, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_float_scores(self, scores):
        self.assert_unique(np.array(scores, dtype=np.float64))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([4]),
            np.full(500, -3),
            np.repeat(np.arange(400), 8)[::-1],
            np.array([0.0, -0.0, -0.0, 0.0]),
            np.array([-0.0, 1e-300, 0.0, -1e-300, 1e300, -1e300, 1e-300]),
            np.array([], dtype=np.int64),
        ],
    )
    def test_edge_cases(self, values):
        self.assert_unique(values)


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
