"""Synthetic multi-task corpora and refreshing P*K batch loaders.

Four task regimes mirror recognition problems of different granularity:

* ``coarse-category``        -- few classes, large within-class variation
  (basic-level categorization).
* ``fine-identity``          -- many classes, tight within-class variation
  (within-category discrimination).
* ``fine-identity-degraded`` -- the same identities as a named fine-identity
  twin task, observed through extra isotropic noise.
* ``intermediate``           -- between the two.

Each non-degraded task places its class centroids inside a private block of
ambient coordinates, offset from the origin so task clouds occupy distinct
regions (mirroring categorically different image domains), while within-class
noise is isotropic over the full ambient space. Tasks therefore carry
non-overlapping discriminative structure and must compete for encoder
capacity, which is what makes forgetting observable at desk scale. Degraded
observations carry a systematic signature: their noise has a nonzero mean
per coordinate, not just spread, the way real quality loss shifts image
statistics rather than merely blurring them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .seeding import stream

REGIMES = ("coarse-category", "fine-identity", "fine-identity-degraded", "intermediate")

MANIFEST_VERSION = 1

# Each task's centroid cloud sits this many between-class spreads from the
# origin along its block coordinates, keeping task regions disjoint.
BLOCK_OFFSET_SCALE = 2.0

# Degraded observations shift by this many degradation-noise units along
# every ambient coordinate: the systematic component of quality loss (real
# degradation moves image statistics, it does not just add spread).
DEGRADATION_SHIFT_SCALE = 3.0

# Characters a CSV cell cannot hold unquoted; the artifact writer quotes none.
CSV_UNSAFE = ',"\r\n'


@dataclass(frozen=True)
class TaskGenSpec:
    """Generation recipe for one task's dataset."""

    name: str
    regime: str
    classes: int
    samples_per_class: int
    within_class_spread: float
    between_class_spread: float = 1.0
    degradation_noise: float = 0.0
    twin: str | None = None  # required for fine-identity-degraded

    def validate(self) -> None:
        if not self.name:
            raise ValidationError("task name must be non-empty")
        if any(c in self.name for c in CSV_UNSAFE):
            # The name becomes CSV cells and artifact file names.
            raise ValidationError(
                f"task name {self.name!r} must not contain ',', '\"', CR or LF"
            )
        if self.regime not in REGIMES:
            raise ValidationError(f"task {self.name!r}: unknown regime {self.regime!r}")
        if self.classes < 2:
            raise ValidationError(f"task {self.name!r}: classes must be >= 2")
        if self.samples_per_class < 2:
            raise ValidationError(f"task {self.name!r}: samples_per_class must be >= 2")
        if self.within_class_spread < 0:
            raise ValidationError(f"task {self.name!r}: within_class_spread must be >= 0")
        if self.between_class_spread <= 0:
            raise ValidationError(f"task {self.name!r}: between_class_spread must be > 0")
        if self.degradation_noise < 0:
            raise ValidationError(f"task {self.name!r}: degradation_noise must be >= 0")
        degraded = self.regime == "fine-identity-degraded"
        if degraded and self.twin is None:
            raise ValidationError(f"task {self.name!r}: degraded regime requires a twin task")
        if not degraded and self.twin is not None:
            raise ValidationError(f"task {self.name!r}: twin is only valid for the degraded regime")
        if not degraded and self.degradation_noise != 0.0:
            raise ValidationError(f"task {self.name!r}: degradation_noise must be 0 outside the degraded regime")


@dataclass(frozen=True)
class CorpusSpec:
    """Full corpus description: task recipes, ambient dimension, seed."""

    tasks: tuple[TaskGenSpec, ...]
    seed: int
    ambient_dim: int

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))

    def task(self, name: str) -> TaskGenSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    def validate(self, positives_per_id: int = 4) -> None:
        """Check all corpus invariants.

        ``positives_per_id`` is the K of the intended P*K batch structure;
        every class must hold at least 2*K samples so batching never
        degenerates.
        """
        if len(self.tasks) < 2:
            raise ValidationError("corpus needs at least 2 tasks")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate task names: {dupes}")
        if self.ambient_dim < 1:
            raise ValidationError("ambient_dim must be positive")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        for t in self.tasks:
            t.validate()
            if t.samples_per_class < 2 * positives_per_id:
                raise ValidationError(
                    f"task {t.name!r}: samples_per_class must be >= 2*K = {2 * positives_per_id}"
                )
        by_name = {t.name: t for t in self.tasks}
        for t in self.tasks:
            if t.regime != "fine-identity-degraded":
                continue
            twin = by_name.get(t.twin)
            if twin is None:
                raise ValidationError(f"task {t.name!r}: twin {t.twin!r} does not exist")
            if twin.regime != "fine-identity":
                raise ValidationError(f"task {t.name!r}: twin {t.twin!r} must be a fine-identity task")
            if (twin.classes, twin.samples_per_class) != (t.classes, t.samples_per_class):
                raise ValidationError(
                    f"task {t.name!r}: class/sample counts must match twin {t.twin!r}"
                )
        fine_spreads = [t.within_class_spread for t in self.tasks if t.regime == "fine-identity"]
        for t in self.tasks:
            if t.regime == "coarse-category" and fine_spreads:
                if t.within_class_spread < max(fine_spreads):
                    raise ValidationError(
                        f"task {t.name!r}: coarse within_class_spread must be >= every "
                        f"fine-identity task's within_class_spread"
                    )
        blocks = sum(1 for t in self.tasks if t.regime != "fine-identity-degraded")
        if self.ambient_dim < blocks:
            raise ValidationError(
                f"ambient_dim {self.ambient_dim} too small for {blocks} centroid blocks"
            )


@dataclass
class TaskData:
    """One task's realized samples: features are n x ambient, column-major."""

    name: str
    regime: str
    features: np.ndarray
    labels: np.ndarray  # int class ids, aligned with feature rows

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)


@dataclass
class Corpus:
    spec: CorpusSpec
    split: str
    tasks: dict[str, TaskData] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return sum(t.n_samples for t in self.tasks.values())

    def save(self, out, rel: str) -> None:
        """Export as per-task binary matrices plus a JSON manifest, written
        through the artifact writer ``out`` (an ``experiments.RunResult``)
        under the directory ``rel``.

        The round trip through :meth:`load` is bit-exact.
        """
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "seed": self.spec.seed,
            "ambient_dim": self.spec.ambient_dim,
            "split": self.split,
            "tasks": [],
        }
        for name, data in self.tasks.items():
            spec = self.spec.task(name)
            fname = f"{name}.npy"
            out.npy(f"{rel}/{fname}", data.features)
            manifest["tasks"].append(
                {
                    **{f.name: getattr(spec, f.name) for f in fields(TaskGenSpec)},
                    "shape": list(data.features.shape),
                    "labels": data.labels.tolist(),
                    "file": fname,
                }
            )
        out.json(f"{rel}/manifest.json", manifest)

    @classmethod
    def load(cls, directory: str | Path) -> "Corpus":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest.get("manifest_version") != MANIFEST_VERSION:
            raise ValidationError(
                f"unsupported corpus manifest version {manifest.get('manifest_version')!r}"
            )
        task_specs = tuple(
            TaskGenSpec(**{f.name: t[f.name] for f in fields(TaskGenSpec)})
            for t in manifest["tasks"]
        )
        spec = CorpusSpec(tasks=task_specs, seed=manifest["seed"], ambient_dim=manifest["ambient_dim"])
        corpus = cls(spec=spec, split=manifest["split"])
        for t in manifest["tasks"]:
            features = np.load(directory / t["file"])
            if list(features.shape) != t["shape"]:
                raise ValidationError(f"task {t['name']!r}: stored shape mismatch")
            corpus.tasks[t["name"]] = TaskData(
                name=t["name"],
                regime=t["regime"],
                features=np.asfortranarray(features),
                labels=np.asarray(t["labels"], dtype=np.int64),
            )
        return corpus


def _centroid_blocks(spec: CorpusSpec) -> dict[str, slice]:
    """Assign each non-degraded task a private slice of ambient coordinates;
    degraded tasks reuse their twin's slice."""
    owners = [t.name for t in spec.tasks if t.regime != "fine-identity-degraded"]
    width = spec.ambient_dim // len(owners)
    blocks = {name: slice(i * width, (i + 1) * width) for i, name in enumerate(owners)}
    for t in spec.tasks:
        if t.regime == "fine-identity-degraded":
            blocks[t.name] = blocks[t.twin]
    return blocks


def _task_centroids(spec: CorpusSpec, task: TaskGenSpec, block: slice) -> np.ndarray:
    rng = stream(spec.seed, "centroids", task.name)
    centroids = np.zeros((task.classes, spec.ambient_dim))
    width = block.stop - block.start
    offset = BLOCK_OFFSET_SCALE * task.between_class_spread
    centroids[:, block] = offset + task.between_class_spread * rng.standard_normal(
        (task.classes, width)
    )
    return centroids


def build_corpus(spec: CorpusSpec, split: str = "train", positives_per_id: int = 4) -> Corpus:
    """Realize a corpus from its spec. Pure function of (spec, split).

    ``split`` selects the sample-noise substream; class centroids depend only
    on (seed, task), so distinct splits share identities and differ in the
    observations around them.
    """
    spec.validate(positives_per_id)
    blocks = _centroid_blocks(spec)
    corpus = Corpus(spec=spec, split=split)
    by_name = {t.name: t for t in spec.tasks}
    # Degraded tasks copy their twin's realized samples, so twins build first;
    # the corpus dict still lists tasks in spec order.
    built: dict[str, TaskData] = {}
    ordered = sorted(spec.tasks, key=lambda t: t.regime == "fine-identity-degraded")
    for task in ordered:
        n = task.classes * task.samples_per_class
        labels = np.repeat(np.arange(task.classes), task.samples_per_class)
        if task.regime == "fine-identity-degraded":
            twin_features = built[by_name[task.twin].name].features
            rng = stream(spec.seed, "degrade", split, task.name)
            # Spread plus a systematic shift, both scaled by degradation_noise
            # (zero noise = exact twin copy).
            features = twin_features + task.degradation_noise * (
                rng.standard_normal(twin_features.shape) + DEGRADATION_SHIFT_SCALE
            )
        else:
            centroids = _task_centroids(spec, task, blocks[task.name])
            rng = stream(spec.seed, "samples", split, task.name)
            noise = task.within_class_spread * rng.standard_normal((n, spec.ambient_dim))
            features = centroids[labels] + noise
        built[task.name] = TaskData(
            name=task.name,
            regime=task.regime,
            features=np.asfortranarray(np.ascontiguousarray(features, dtype=np.float64)),
            labels=labels,
        )
    corpus.tasks = {task.name: built[task.name] for task in spec.tasks}
    return corpus


@dataclass
class Batch:
    """P identities x K positives from a single task."""

    features: np.ndarray  # (P*K, ambient)
    labels: np.ndarray  # (P*K,) class ids
    task: str

    def __len__(self) -> int:
        return self.features.shape[0]


class Loader:
    """Single-consumer shuffled loader over one task's samples.

    A pass consumes every sample index exactly once; the call that consumes
    the final unseen index reports ``exhausted=True`` and reshuffles. The
    P*K batch contract is unconditional: identities short of K unconsumed
    samples are topped up (with replacement) from their already-consumed
    samples, and missing identities are filled from fully-consumed ones.
    """

    def __init__(
        self,
        data: TaskData,
        rng: np.random.Generator,
        subsample_fraction: float = 1.0,
    ):
        if not 0.0 < subsample_fraction <= 1.0:
            raise ConfigurationError("subsample_fraction must lie in (0, 1]")
        self.task = data.name
        self._data = data
        self._rng = rng
        if subsample_fraction < 1.0:
            keep = max(1, int(round(subsample_fraction * data.n_samples)))
            self._indices = np.sort(rng.choice(data.n_samples, size=keep, replace=False))
        else:
            self._indices = np.arange(data.n_samples)
        counts = np.bincount(data.labels[self._indices])
        self._smallest_class = int(counts[counts > 0].min())
        self.refreshes = 0
        self._refresh()

    @property
    def size(self) -> int:
        return len(self._indices)

    @property
    def cursor(self) -> int:
        return self._n_consumed

    def _refresh(self) -> None:
        self.order = self._rng.permutation(self._indices)
        self._n_consumed = 0
        # Identities get slots in order of first appearance in the pass.
        # ``_pass`` holds the pass's sample indices slot after slot, each
        # slot's in pass order: slot j owns ``_starts[j]:_ends[j]``, of which
        # ``_next[j]:_ends[j]`` are still unconsumed.
        _, first, inverse = np.unique(
            self._data.labels[self.order], return_index=True, return_inverse=True
        )
        slot_of_label = np.empty(first.size, dtype=int)
        slot_of_label[np.argsort(first)] = np.arange(first.size)
        slots = slot_of_label[inverse]
        self._pass = self.order[np.argsort(slots, kind="stable")]
        sizes = np.bincount(slots)
        self._ends = np.cumsum(sizes)
        self._starts = self._ends - sizes
        self._next = self._starts.copy()

    def next_batch(self, p: int, k: int) -> tuple[Batch, bool]:
        """Draw a P*K batch; returns (batch, exhausted_flag)."""
        if p * k > self.size:
            raise ConfigurationError(
                f"task {self.task!r}: batch P*K = {p * k} exceeds dataset size {self.size}"
            )
        if self._smallest_class < k:
            raise ConfigurationError(f"task {self.task!r}: every class needs >= K = {k} samples")
        if p > self._ends.size:
            raise ConfigurationError(
                f"task {self.task!r}: P = {p} exceeds the {self._ends.size} available identities"
            )

        remaining = self._ends - self._next
        rich = (remaining >= k).nonzero()[0]
        if rich.size >= p:
            chosen = self._rng.choice(rich, size=p, replace=False)
        else:
            # Prefer identities still holding unconsumed samples, then top up
            # with fresh identities whose samples were already consumed.
            scarce = ((remaining > 0) & (remaining < k)).nonzero()[0]
            chosen = np.concatenate([rich, self._rng.permutation(scarce)[: p - rich.size]])
            if chosen.size < p:
                spent = (remaining == 0).nonzero()[0]
                drawn = self._rng.choice(spent, size=p - chosen.size, replace=False)
                chosen = np.concatenate([chosen, drawn])

        # Each identity gives its next k unconsumed samples; one that runs
        # out is topped up with replacement from all of its samples in this
        # pass, identity by identity in batch order.
        fresh = np.minimum(remaining[chosen], k)
        first = self._next[chosen]
        # A short identity's row reads on past its own samples (clamped to
        # the pass); its top-up overwrites those cells.
        samples = self._pass[np.minimum(first[:, None] + np.arange(k), self._pass.size - 1)]
        self._next[chosen] = first + fresh
        self._n_consumed += p * k
        for row in (fresh < k).nonzero()[0]:
            slot, short = chosen[row], int(k - fresh[row])
            self._n_consumed -= short
            own = self._pass[self._starts[slot] : self._ends[slot]]
            samples[row, fresh[row] :] = self._rng.choice(own, size=short, replace=True)
        sample_indices = samples.ravel()
        batch = Batch(
            features=self._data.features[sample_indices],
            labels=self._data.labels[sample_indices],
            task=self.task,
        )
        exhausted = self._n_consumed == len(self.order)
        if exhausted:
            self.refreshes += 1
            self._refresh()
        return batch, exhausted
