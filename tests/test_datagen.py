"""Corpus generation and batch loader contracts."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taskweave.artifacts import RunResult
from taskweave.curriculum import block_masks
from taskweave.datagen import (
    Batch,
    Corpus,
    CorpusSpec,
    Loader,
    TaskData,
    TaskGenSpec,
    build_corpus,
)
from taskweave.encoder import id_masks
from taskweave.errors import ContractError, ValidationError
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

    # The writer encodes the label arrays apart from the rest of the
    # manifest; the bytes must be the plain indent-2 text of the whole.
    @pytest.mark.parametrize(
        "relabel",
        [
            lambda labels: labels[:0],
            lambda labels: labels - 7,
            lambda labels: labels + 2**31 + 1,
            lambda labels: np.where(labels % 2, 2**63 - 1 - labels, -(2**63) + labels),
        ],
        ids=["empty", "negative", "above-2**31", "int64-extremes"],
    )
    def test_manifest_is_the_indent_2_text(self, tmp_path, relabel):
        corpus = build_corpus(four_task_spec())
        fine = corpus.tasks["fine"]
        labels = relabel(fine.labels)
        corpus.tasks["fine"] = TaskData(
            "fine", fine.regime, np.asfortranarray(fine.features[: labels.size]), labels
        )
        corpus.save(RunResult(tmp_path), "corpus")
        written = (tmp_path / "corpus" / "manifest.json").read_text()
        manifest = json.loads(written)
        assert written == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert manifest["tasks"][1]["labels"] == labels.tolist()
        loaded = Corpus.load(tmp_path / "corpus")
        for name, data in corpus.tasks.items():
            assert loaded.tasks[name].labels.dtype == np.int64
            assert np.array_equal(loaded.tasks[name].labels, data.labels)
            assert np.array_equal(loaded.tasks[name].features, data.features)


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
        with pytest.raises(ValidationError, match="exceeds dataset size"):
            loader.next_batch(30, 4)

    def test_more_identities_than_classes(self):
        loader = make_loader(classes=8, samples_per_class=8)
        with pytest.raises(ValidationError, match="identities"):
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
        with pytest.raises(ValidationError, match="class"):
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
            with pytest.raises(ValidationError, match="every class needs >= K = 4"):
                loader.next_batch(2, 4)

    def test_manifest_version_checked(self, tmp_path):
        corpus = build_corpus(four_task_spec())
        corpus.save(RunResult(tmp_path), "c")
        manifest = tmp_path / "c" / "manifest.json"
        payload = manifest.read_text().replace('"manifest_version": 1', '"manifest_version": 9')
        manifest.write_text(payload)
        with pytest.raises(ValidationError, match="manifest version"):
            Corpus.load(tmp_path / "c")


class TestMalformedCorpus:
    """Every way a saved corpus can be unreadable raises ValidationError
    naming the file."""

    @pytest.fixture
    def saved(self, tmp_path):
        build_corpus(four_task_spec()).save(RunResult(tmp_path), "c")
        return tmp_path / "c"

    def edit_manifest(self, saved, edit):
        path = saved / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, saved):
        (saved / "manifest.json").unlink()
        with pytest.raises(ValidationError, match=f"cannot read corpus manifest {saved}"):
            Corpus.load(saved)

    def test_missing_features(self, saved):
        (saved / "fine.npy").unlink()
        with pytest.raises(ValidationError, match=f"corpus features {saved}/fine.npy"):
            Corpus.load(saved)

    def test_manifest_not_json(self, saved):
        (saved / "manifest.json").write_text('{"manifest_version": 1,')
        with pytest.raises(ValidationError, match="manifest.json is not valid JSON"):
            Corpus.load(saved)

    @pytest.mark.parametrize("key", ["seed", "split", "tasks", "file", "labels", "regime"])
    def test_manifest_missing_a_key(self, saved, key):
        def drop(manifest):
            del (manifest if key in manifest else manifest["tasks"][1])[key]

        self.edit_manifest(saved, drop)
        with pytest.raises(ValidationError, match=f"manifest.json: missing key '{key}'"):
            Corpus.load(saved)

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("tasks", 5, "tasks must be a list of JSON objects"),
            ("tasks", [5], "tasks must be a list of JSON objects"),
            ("tasks", {"a": 1}, "tasks must be a list of JSON objects"),
            ("file", 5, "task 'fine': file must be 'fine.npy'"),
            ("file", None, "task 'fine': file must be 'fine.npy'"),
            ("file", "coarse.npy", "task 'fine': file must be 'fine.npy'"),
            ("file", "../c/fine.npy", "task 'fine': file must be 'fine.npy'"),
            # Each used to load, and a bad regime to fail later as a bare
            # KeyError in scoring.
            ("samples_per_class", "x", r"tasks\[1\].samples_per_class must be of type int"),
            ("regime", 5, r"tasks\[1\].regime must be of type str"),
            ("regime", "fine", "task 'fine': unknown regime 'fine'"),
            ("seed", "x", "corpus.seed must be of type int"),
            ("ambient_dim", None, "corpus.ambient_dim must be of type int"),
            ("split", 5, "corpus.split must be of type str"),
        ],
    )
    def test_manifest_of_the_wrong_shape(self, saved, field, value, problem):
        def edit(manifest):
            (manifest if field in manifest else manifest["tasks"][1])[field] = value

        self.edit_manifest(saved, edit)
        with pytest.raises(ValidationError, match=f"manifest.json: {problem}"):
            Corpus.load(saved)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (
                lambda m: m.update(ambient_dim=-1),
                "corpus.ambient_dim must be an integer >= 1, got -1",
            ),
            (
                lambda m: m.update(seed=-5),
                r"corpus.seed must be an integer in \[0, 18446744073709551615\], got -5",
            ),
            (
                lambda m: m["tasks"][2].update(twin="nobody"),
                "task 'fine_lq': twin 'nobody' does not exist",
            ),
            (
                lambda m: m["tasks"][1].update(classes=1),
                r"tasks\[1\].classes must be an integer >= 2, got 1",
            ),
            (
                lambda m: m["tasks"][3].update(samples_per_class=1),
                r"tasks\[3\].samples_per_class must be an integer >= 2, got 1",
            ),
            (
                lambda m: m["tasks"][3].update(within_class_spread=-0.1),
                r"tasks\[3\].within_class_spread must be a finite number >= 0, got -0.1",
            ),
            (
                lambda m: m["tasks"][3].update(within_class_spread=float("nan")),
                r"tasks\[3\].within_class_spread must be a finite number >= 0, got nan",
            ),
            (
                lambda m: m["tasks"][3].update(between_class_spread=0),
                r"tasks\[3\].between_class_spread must be a finite number > 0, got 0",
            ),
            (
                lambda m: m["tasks"][2].update(degradation_noise=-0.1),
                r"tasks\[2\].degradation_noise must be a finite number >= 0, got -0.1",
            ),
        ],
        ids=[
            "negative ambient_dim",
            "negative seed",
            "twin of no task",
            "one class",
            "one sample per class",
            "negative within_class_spread",
            "NaN within_class_spread",
            "zero between_class_spread",
            "negative degradation_noise",
        ],
    )
    def test_manifest_recipe_that_does_not_validate(self, saved, edit, problem):
        # Each used to load: only each task's own recipe was validated.
        self.edit_manifest(saved, edit)
        with pytest.raises(ValidationError, match=f"manifest.json: {problem}"):
            Corpus.load(saved)

    def test_batch_shape_is_not_the_manifests_to_check(self, tmp_path):
        # Classes of 4 samples suit a K of 2, not the default K of 4: the
        # build checks K, the load does not.
        spec = four_task_spec(samples_per_class=4)
        with pytest.raises(ValidationError, match="samples_per_class must be >= 2\\*K = 8"):
            build_corpus(spec)
        build_corpus(spec, positives_per_id=2).save(RunResult(tmp_path), "c")
        assert Corpus.load(tmp_path / "c").spec == spec

    def test_labels_not_one_per_row(self, saved):
        self.edit_manifest(saved, lambda manifest: manifest["tasks"][1]["labels"].pop())
        with pytest.raises(ValidationError, match="task 'fine' has 199 labels for 200 feature rows"):
            Corpus.load(saved)

    @pytest.mark.parametrize(
        "label, problem",
        [
            (1.5, "list of JSON integers"),
            (True, "list of JSON integers"),
            ("3", "list of JSON integers"),
            ("x", "list of JSON integers"),
            (None, "list of JSON integers"),
            (2**70, "does not fit in int64"),
            (-(2**63) - 1, "does not fit in int64"),
        ],
    )
    def test_labels_must_be_int64_integers(self, saved, label, problem):
        def edit(manifest):
            manifest["tasks"][1]["labels"][7] = label

        self.edit_manifest(saved, edit)
        with pytest.raises(ValidationError, match=f"manifest.json: task 'fine': .*{problem}"):
            Corpus.load(saved)

    def test_labels_not_a_list(self, saved):
        self.edit_manifest(saved, lambda manifest: manifest["tasks"][1].update(labels=5))
        with pytest.raises(ValidationError, match="task 'fine': labels must be a list"):
            Corpus.load(saved)

    def test_int64_extreme_labels_load(self, saved):
        def edit(manifest):
            manifest["tasks"][1]["labels"][:2] = [2**63 - 1, -(2**63)]

        self.edit_manifest(saved, edit)
        labels = Corpus.load(saved).tasks["fine"].labels
        assert labels.dtype == np.int64 and labels[:2].tolist() == [2**63 - 1, -(2**63)]

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


# Identity labels a loader must treat alike: dense ids, sparse ones, and
# sparse ones with negatives in no sorted order (37 is invertible mod 41).
LABELINGS = {
    "dense": lambda ids: ids,
    "sparse": lambda ids: 1000 * ids + 3,
    "negative": lambda ids: (37 * ids) % 41 - 20,
}


def ragged_task(sizes, labeling="dense"):
    labels = LABELINGS[labeling](np.repeat(np.arange(len(sizes)), sizes))
    # Each feature row names its sample, so equal batches mean equal draws.
    return TaskData("t", "fine-identity", np.arange(labels.size, dtype=float)[:, None], labels)


def unique_layout(order, labels):
    """A pass's layout as the loader first built it, sorting by label:
    identities get slots in order of first appearance in ``order``, and
    ``_pass`` holds each slot's samples in pass order, slot after slot.
    Returns ``(_pass, _starts, _ends)``."""
    _, first, inverse = np.unique(labels[order], return_index=True, return_inverse=True)
    slot_of_label = np.empty(first.size, dtype=int)
    slot_of_label[np.argsort(first)] = np.arange(first.size)
    slots = slot_of_label[inverse]
    sizes = np.bincount(slots)
    ends = np.cumsum(sizes)
    return order[np.argsort(slots, kind="stable")], ends - sizes, ends


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

    @pytest.mark.parametrize("labeling", sorted(LABELINGS))
    def test_batches_and_flags_match_reference(self, labeling):
        branches = Counter()
        for case, (sizes, fraction, p, k) in enumerate(self.CASES):
            data = ragged_task(sizes, labeling)
            loader = Loader(data, stream(case, "oracle"), fraction)
            reference = ReferenceLoader(data, stream(case, "oracle"), fraction)
            assert np.array_equal(loader._indices, reference._indices)
            masks = block_masks(1, p, k)
            for _ in range(60):
                batch, flag = loader.next_batch(p, k)
                expected, expected_flag = reference.next_batch(p, k)
                assert np.array_equal(batch.features, expected.features)
                assert np.array_equal(batch.labels, expected.labels)
                assert flag is expected_flag
                assert loader.cursor == reference.cursor
                for got, want in zip(id_masks(batch.labels[None]), masks):
                    assert np.array_equal(got, want)
                layout = unique_layout(loader.order, data.labels)
                for got, want in zip((loader._pass, loader._starts, loader._ends), layout):
                    assert np.array_equal(got, want)
                if loader.cursor == 0:
                    assert np.array_equal(loader._next, loader._starts)
            assert loader.refreshes == reference.refreshes > 1
            assert loader._rng.bit_generator.state == reference._rng.bit_generator.state
            branches += reference.branches
        assert {"scarce", "spent", "top-up"} <= {name for name, n in branches.items() if n}

    def test_top_up_draw_is_the_per_identity_loop(self):
        # The loader tops up a batch's short identities with one vector
        # ``integers`` call over each identity's sample count, repeated once
        # per missing sample. It must give the offsets of the per-identity
        # ``choice(n, short, replace=True)`` calls made back to back, and
        # leave the generator in the same state.
        meta = np.random.default_rng(0)
        for case in range(300):
            sizes = meta.integers(1, 40, size=meta.integers(1, 9))
            shorts = meta.integers(0, 6, size=sizes.size)
            loop, vector = stream(case, "top-up"), stream(case, "top-up")
            # Earlier draws may leave half a 64-bit word buffered.
            warm = int(meta.integers(0, 3))
            loop.integers(0, 7, size=warm)
            vector.integers(0, 7, size=warm)
            expected = [loop.choice(n, size=short, replace=True) for n, short in zip(sizes, shorts)]
            drawn = vector.integers(0, np.repeat(sizes, shorts), dtype=np.int64)
            assert np.array_equal(drawn, np.concatenate(expected))
            assert vector.bit_generator.state == loop.bit_generator.state

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_draw_leaves_the_loader_where_next_batch_does(self, case):
        sizes, fraction, p, k = self.CASES[case]
        data = ragged_task(sizes, "negative")
        drawing = Loader(data, stream(case, "draw"), fraction)
        batching = Loader(data, stream(case, "draw"), fraction)
        for _ in range(60):
            samples, flag = drawing.draw(p, k)
            batch, expected_flag = batching.next_batch(p, k)
            assert np.array_equal(samples, batch.features[:, 0])
            assert flag is expected_flag
            assert drawing.cursor == batching.cursor
            assert drawing.refreshes == batching.refreshes
            assert drawing._rng.bit_generator.state == batching._rng.bit_generator.state
        assert np.array_equal(drawing._next, batching._next)
        assert drawing.refreshes > 1


@st.composite
def loader_cases(draw):
    """A ragged task, a subsample fraction, a (P, K) with P near the number
    of identities, and a labeling: the scarce, spent and top-up branches
    all come up."""
    k = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(k, k + 6), min_size=2, max_size=9))
    fraction = draw(st.sampled_from([1.0, 1.0, 0.9, 0.75]))
    p = max(2, len(sizes) - draw(st.integers(0, 2)))
    return sizes, fraction, p, k, draw(st.sampled_from(sorted(LABELINGS)))


class TestBlockMasks:
    """Every loader batch is P distinct identities of K consecutive rows,
    so its id masks are the block masks of (P, K), and a stack of B batches
    has the block masks of B."""

    @settings(max_examples=60, deadline=None)
    @given(loader_cases(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_every_stack_has_the_block_masks(self, case, stack, seed):
        sizes, fraction, p, k, labeling = case
        loader = Loader(ragged_task(sizes, labeling), stream(seed, "masks"), fraction)
        assume(p * k <= loader.size and loader._smallest_class >= k and p <= loader._ends.size)
        masks = block_masks(stack, p, k)
        for _ in range(40 // stack):
            labels = np.stack([loader.next_batch(p, k)[0].labels for _ in range(stack)])
            for got, want in zip(id_masks(labels), masks):
                assert np.array_equal(got, want)

    def test_block_masks_are_read_only_and_checked(self):
        same, positive = block_masks(3, 4, 2)
        assert same.shape == positive.shape == (3, 8, 8)
        assert not same.flags.writeable and not positive.flags.writeable
        with pytest.raises(ContractError, match="at least twice"):
            block_masks(2, 4, 1)
        with pytest.raises(ContractError, match="two ids"):
            block_masks(2, 1, 4)
