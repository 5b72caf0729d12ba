"""Corpus generation and batch loader contracts."""

from collections import Counter

import numpy as np
import pytest

from taskweave.datagen import (
    Batch,
    Corpus,
    CorpusSpec,
    Loader,
    TaskData,
    TaskGenSpec,
    build_corpus,
)
from taskweave.errors import ConfigurationError, ValidationError
from taskweave.experiments import RunResult
from taskweave.seeding import stream


def four_task_spec(seed=11, samples_per_class=20):
    return CorpusSpec(
        tasks=(
            TaskGenSpec("coarse", "coarse-category", 10, samples_per_class, 0.5),
            TaskGenSpec("fine", "fine-identity", 10, samples_per_class, 0.2),
            TaskGenSpec(
                "fine_lq",
                "fine-identity-degraded",
                10,
                samples_per_class,
                0.2,
                degradation_noise=0.3,
                twin="fine",
            ),
            TaskGenSpec("mid", "intermediate", 10, samples_per_class, 0.35),
        ),
        seed=seed,
        ambient_dim=12,
    )


class TestBuildCorpus:
    def test_sample_counts(self):
        corpus = build_corpus(four_task_spec())
        assert corpus.n_samples == 800
        for data in corpus.tasks.values():
            assert data.n_samples == 200
            assert data.features.shape == (200, 12)

    def test_determinism(self):
        a = build_corpus(four_task_spec(seed=99))
        b = build_corpus(four_task_spec(seed=99))
        for name in a.tasks:
            assert np.array_equal(a.tasks[name].features, b.tasks[name].features)
            assert np.array_equal(a.tasks[name].labels, b.tasks[name].labels)

    def test_different_seeds_differ(self):
        a = build_corpus(four_task_spec(seed=1))
        b = build_corpus(four_task_spec(seed=2))
        assert not np.array_equal(a.tasks["fine"].features, b.tasks["fine"].features)

    def test_zero_degradation_equals_twin(self):
        spec = four_task_spec()
        tasks = tuple(
            TaskGenSpec(
                t.name, t.regime, t.classes, t.samples_per_class, t.within_class_spread,
                t.between_class_spread, 0.0, t.twin,
            )
            if t.name == "fine_lq"
            else t
            for t in spec.tasks
        )
        corpus = build_corpus(CorpusSpec(tasks=tasks, seed=11, ambient_dim=12))
        assert np.array_equal(corpus.tasks["fine_lq"].features, corpus.tasks["fine"].features)

    def test_splits_share_centroids_not_noise(self):
        spec = four_task_spec()
        train = build_corpus(spec, "train")
        held = build_corpus(spec, "eval")
        assert not np.array_equal(train.tasks["fine"].features, held.tasks["fine"].features)
        # Class means estimate the shared centroids, so they agree across splits.
        for c in range(10):
            mu_t = train.tasks["fine"].features[train.tasks["fine"].labels == c].mean(axis=0)
            mu_e = held.tasks["fine"].features[held.tasks["fine"].labels == c].mean(axis=0)
            assert np.linalg.norm(mu_t - mu_e) < 0.5

    def test_task_order_follows_spec(self):
        corpus = build_corpus(four_task_spec())
        assert list(corpus.tasks) == ["coarse", "fine", "fine_lq", "mid"]


class TestSpecValidation:
    def test_duplicate_names(self):
        spec = four_task_spec()
        tasks = spec.tasks[:3] + (TaskGenSpec("fine", "intermediate", 10, 20, 0.3),)
        with pytest.raises(ValidationError, match="duplicate"):
            CorpusSpec(tasks=tasks, seed=1, ambient_dim=12).validate()

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_csv_unsafe_name(self, name):
        with pytest.raises(ValidationError, match="must not contain"):
            TaskGenSpec(name, "intermediate", 10, 20, 0.3).validate()

    def test_degraded_without_twin(self):
        with pytest.raises(ValidationError, match="twin"):
            TaskGenSpec("lq", "fine-identity-degraded", 10, 20, 0.2, degradation_noise=0.3).validate()

    def test_degraded_with_missing_twin(self):
        spec = four_task_spec()
        tasks = tuple(t for t in spec.tasks if t.name != "fine")
        with pytest.raises(ValidationError, match="twin"):
            CorpusSpec(tasks=tasks, seed=1, ambient_dim=12).validate()

    def test_coarse_spread_must_cover_fine(self):
        tasks = (
            TaskGenSpec("coarse", "coarse-category", 10, 20, 0.1),
            TaskGenSpec("fine", "fine-identity", 10, 20, 0.5),
        )
        with pytest.raises(ValidationError, match="within_class_spread"):
            CorpusSpec(tasks=tasks, seed=1, ambient_dim=12).validate()

    def test_samples_per_class_floor(self):
        tasks = (
            TaskGenSpec("a", "coarse-category", 10, 6, 0.5),
            TaskGenSpec("b", "intermediate", 10, 6, 0.3),
        )
        with pytest.raises(ValidationError, match="2\\*K"):
            CorpusSpec(tasks=tasks, seed=1, ambient_dim=12).validate(positives_per_id=4)

    def test_too_few_tasks(self):
        with pytest.raises(ValidationError, match="2 tasks"):
            CorpusSpec(
                tasks=(TaskGenSpec("a", "intermediate", 5, 10, 0.3),), seed=1, ambient_dim=8
            ).validate()


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        corpus = build_corpus(four_task_spec())
        corpus.save(RunResult(tmp_path), "corpus")
        loaded = Corpus.load(tmp_path / "corpus")
        assert loaded.split == corpus.split
        assert loaded.spec == corpus.spec
        for name in corpus.tasks:
            assert np.array_equal(loaded.tasks[name].features, corpus.tasks[name].features)
            assert loaded.tasks[name].features.dtype == np.float64
            assert np.array_equal(loaded.tasks[name].labels, corpus.tasks[name].labels)


def make_loader(classes=20, samples_per_class=4, seed=3):
    spec = CorpusSpec(
        tasks=(
            TaskGenSpec("t", "fine-identity", classes, samples_per_class, 0.2),
            TaskGenSpec("u", "intermediate", classes, samples_per_class, 0.3),
        ),
        seed=seed,
        ambient_dim=8,
    )
    corpus = build_corpus(spec, positives_per_id=samples_per_class // 2)
    return Loader(corpus.tasks["t"], stream(seed, "loader", "t"))


class TestLoader:
    def test_batch_structure(self):
        loader = make_loader()
        batch, _ = loader.next_batch(10, 4)
        assert len(batch) == 40
        _, counts = np.unique(batch.labels, return_counts=True)
        assert counts.tolist() == [4] * 10

    def test_exhaustion_at_two_batches(self):
        # 80 samples, P*K = 40: the second call consumes the last unseen
        # sample, flags exhaustion, and refreshes.
        loader = make_loader()
        _, first = loader.next_batch(10, 4)
        assert not first
        _, second = loader.next_batch(10, 4)
        assert second
        assert loader.refreshes == 1
        assert loader.cursor == 0

    def test_full_pass_covers_every_sample_once(self):
        loader = make_loader()
        seen = []
        exhausted = False
        while not exhausted:
            batch, exhausted = loader.next_batch(10, 4)
            seen.append(batch.features)
        stacked = np.vstack(seen)
        original = np.sort(loader._data.features, axis=0)
        assert np.array_equal(np.sort(stacked, axis=0), original)

    def test_refresh_reshuffles(self):
        loader = make_loader()
        first_pass = [loader.next_batch(10, 4)[0].features for _ in range(2)]
        second_pass = [loader.next_batch(10, 4)[0].features for _ in range(2)]
        assert not np.array_equal(np.vstack(first_pass), np.vstack(second_pass))

    def test_ragged_class_sizes_keep_contract(self):
        # 6 samples per class with K = 4 leaves 2-sample stragglers that are
        # topped up from consumed samples; the P*K histogram never bends.
        loader = make_loader(classes=8, samples_per_class=6)
        exhausted = False
        batches = 0
        while not exhausted and batches < 50:
            batch, exhausted = loader.next_batch(4, 4)
            _, counts = np.unique(batch.labels, return_counts=True)
            assert counts.tolist() == [4] * 4
            batches += 1
        assert exhausted

    def test_batch_too_large(self):
        loader = make_loader()
        with pytest.raises(ConfigurationError, match="exceeds dataset size"):
            loader.next_batch(30, 4)

    def test_more_identities_than_classes(self):
        loader = make_loader(classes=8, samples_per_class=8)
        with pytest.raises(ConfigurationError, match="identities"):
            loader.next_batch(9, 4)

    def test_subsample_fraction(self):
        spec = four_task_spec()
        corpus = build_corpus(spec)
        loader = Loader(corpus.tasks["fine"], stream(1, "x"), subsample_fraction=0.5)
        assert loader.size == 100

    def test_subsample_starving_a_class_is_rejected(self):
        # An aggressive subsample can leave some class under K samples; the
        # loader refuses to hand out batches rather than bend the contract.
        spec = four_task_spec()
        corpus = build_corpus(spec)
        loader = Loader(corpus.tasks["fine"], stream(2, "x"), subsample_fraction=0.12)
        with pytest.raises(ConfigurationError, match="class"):
            loader.next_batch(2, 4)

    def test_smallest_class_bounds_k(self):
        # Class 2 holds exactly 3 samples: K = 3 is served, K = 4 is refused
        # on every call, not only the first.
        labels = np.repeat([0, 1, 2], [6, 5, 3])
        data = TaskData("t", "fine-identity", np.zeros((labels.size, 2)), labels)
        loader = Loader(data, stream(0, "x"))
        batch, _ = loader.next_batch(3, 3)
        assert batch.labels.size == 9
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="every class needs >= K = 4"):
                loader.next_batch(2, 4)

    def test_manifest_version_checked(self, tmp_path):
        corpus = build_corpus(four_task_spec())
        corpus.save(RunResult(tmp_path), "c")
        manifest = tmp_path / "c" / "manifest.json"
        payload = manifest.read_text().replace('"manifest_version": 1', '"manifest_version": 9')
        manifest.write_text(payload)
        with pytest.raises(ValidationError, match="manifest version"):
            Corpus.load(tmp_path / "c")

    @pytest.mark.parametrize("classes,spc,p,k", [(5, 6, 3, 2), (6, 8, 4, 4), (4, 10, 2, 3)])
    def test_coverage_fuzz(self, classes, spc, p, k):
        spec = CorpusSpec(
            tasks=(
                TaskGenSpec("t", "fine-identity", classes, spc, 0.2),
                TaskGenSpec("u", "intermediate", classes, spc, 0.3),
            ),
            seed=5,
            ambient_dim=6,
        )
        corpus = build_corpus(spec, positives_per_id=max(1, k // 2))
        loader = Loader(corpus.tasks["t"], stream(7, "fuzz"))
        rows = []
        exhausted = False
        steps = 0
        while not exhausted:
            batch, exhausted = loader.next_batch(p, k)
            rows.append(batch.features)
            steps += 1
            assert steps <= 10 * classes * spc
        # Every sample appears at least once before the refresh.
        emitted = {tuple(r) for r in np.vstack(rows)}
        expected = {tuple(r) for r in loader._data.features}
        assert expected <= emitted


class ReferenceLoader(Loader):
    """The loader before it counted consumed samples: a boolean mask checked
    with ``.all()`` on every call, ``set(chosen)`` rebuilt per identity and a
    list scan for the top-up pool. It also tallies which branches ran."""

    def __init__(self, *args, **kwargs):
        self.branches = Counter()
        super().__init__(*args, **kwargs)

    @property
    def cursor(self) -> int:
        return int(self._consumed.sum())

    def _refresh(self) -> None:
        self.order = self._rng.permutation(self._indices)
        self._consumed = np.zeros(len(self.order), dtype=bool)
        labels = self._data.labels[self.order]
        self._per_id = {}
        for pos, lab in enumerate(labels):
            self._per_id.setdefault(int(lab), []).append(pos)
        self._remaining = {lab: list(positions) for lab, positions in self._per_id.items()}

    def next_batch(self, p, k):
        rich = [lab for lab, rem in self._remaining.items() if len(rem) >= k]
        scarce = [lab for lab, rem in self._remaining.items() if 0 < len(rem) < k]
        if len(rich) >= p:
            chosen = list(self._rng.choice(rich, size=p, replace=False))
        else:
            chosen = rich
            need = p - len(chosen)
            take_scarce = list(self._rng.permutation(scarce))[:need]
            self.branches["scarce"] += bool(take_scarce)
            chosen = chosen + take_scarce
            need = p - len(chosen)
            if need > 0:
                self.branches["spent"] += 1
                spent = [lab for lab in self._per_id if lab not in set(chosen)]
                chosen = chosen + list(self._rng.choice(spent, size=need, replace=False))
        positions = []
        for lab in chosen:
            rem = self._remaining[lab]
            fresh = rem[:k]
            del rem[: len(fresh)]
            for pos in fresh:
                self._consumed[pos] = True
            short = k - len(fresh)
            if short > 0:
                self.branches["top-up"] += 1
                seen = [pos for pos in self._per_id[lab] if pos not in rem]
                fresh = fresh + list(self._rng.choice(seen, size=short, replace=True))
            positions.extend(fresh)
        sample_indices = self.order[positions]
        batch = Batch(
            features=self._data.features[sample_indices],
            labels=self._data.labels[sample_indices],
            task=self.task,
        )
        exhausted = bool(self._consumed.all())
        if exhausted:
            self.refreshes += 1
            self._refresh()
        return batch, exhausted


def ragged_task(sizes):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    # Each feature row names its sample, so equal batches mean equal draws.
    return TaskData("t", "fine-identity", np.arange(labels.size, dtype=float)[:, None], labels)


class TestLoaderOracle:
    # (class sizes, subsample fraction, P, K). Ragged sizes leave identities
    # short of K (the scarce branch and the top-up); P near the number of
    # identities forces fully consumed identities into a batch (the spent
    # branch); fractions below 1 subsample before the first pass.
    CASES = [
        ((4,) * 20, 1.0, 10, 4),
        ((6, 5, 9, 4, 7, 6, 5, 8), 1.0, 4, 4),
        ((6, 5, 9, 4, 7, 6, 5, 8), 1.0, 7, 3),
        ((3, 7, 5, 5, 4, 6), 1.0, 6, 3),
        ((10,) * 12, 0.5, 5, 2),
        ((9, 12, 7, 15, 11, 8, 10, 13), 0.7, 6, 3),
        ((30,) * 4 + (5,) * 4, 0.9, 8, 2),
    ]

    def test_batches_and_flags_match_reference(self):
        branches = Counter()
        for case, (sizes, fraction, p, k) in enumerate(self.CASES):
            data = ragged_task(sizes)
            loader = Loader(data, stream(case, "oracle"), fraction)
            reference = ReferenceLoader(data, stream(case, "oracle"), fraction)
            assert np.array_equal(loader._indices, reference._indices)
            for _ in range(60):
                batch, flag = loader.next_batch(p, k)
                expected, expected_flag = reference.next_batch(p, k)
                assert np.array_equal(batch.features, expected.features)
                assert np.array_equal(batch.labels, expected.labels)
                assert flag is expected_flag
                assert loader.cursor == reference.cursor
            assert loader.refreshes == reference.refreshes > 1
            assert loader._rng.bit_generator.state == reference._rng.bit_generator.state
            branches += reference.branches
        assert {"scarce", "spent", "top-up"} <= {name for name, n in branches.items() if n}
