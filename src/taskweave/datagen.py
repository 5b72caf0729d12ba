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
import math
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ValidationError
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


def _conforms(value, hint) -> bool:
    """``value`` has the annotated type ``hint``. A bool is not a number,
    and an int is a float."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if get_origin(hint) is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items()
        )
    if args:  # a union such as ``int | None``
        return any(_conforms(value, arg) for arg in args)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _numbers(value, hint, path: str) -> list:
    """The ``(path, number, number type)`` of each number in a field of
    the annotated type ``hint``: a list's entries, a dict's values, an
    optional's value when it is set, or the field's value."""
    args = get_args(hint)
    if get_origin(hint) is list:
        return [(f"{path}[{i}]", v, args[0]) for i, v in enumerate(value)]
    if get_origin(hint) is dict:
        return [(f"{path}[{k!r}]", v, args[1]) for k, v in value.items()]
    return [] if value is None else [(path, value, args[0] if args else hint)]


def _invalid(path: str, rule: str, value) -> ValidationError:
    """The error of every field check; ``path`` names the field."""
    return ValidationError(f"{path} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class Bound:
    """The range of a numeric field, from ``low`` to ``high``; an end is
    included unless it is open. Its ``str`` is the range as the messages
    state it: ``>= 1``, ``> 0``, ``in [1, 8]``, ``in [0, 1)``, ``in (0, 1]``."""

    low: float
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>' if self.low_open else '>='} {self.low}"
        left = "(" if self.low_open else "["
        right = ")" if self.high_open else "]"
        return f"in {left}{self.low}, {self.high}{right}"

    def check(self, value, path: str, number: type = int) -> None:
        """``value``, of the field that ``path`` names, must lie in this
        range, and be finite if the field holds a ``float``."""
        above = self.low < value if self.low_open else self.low <= value
        below = value < self.high if self.high_open else value <= self.high
        if not (above and below) or (isinstance(value, float) and not math.isfinite(value)):
            noun = "a finite number" if number is float else "an integer"
            raise _invalid(path, f"{noun} {self}", value)


def ranged(bound: Bound, **kwargs):
    """A dataclass field whose numbers must lie in ``bound``; ``kwargs``
    are :func:`dataclasses.field`'s."""
    return field(metadata={"range": bound}, **kwargs)


_type_hints = cache(get_type_hints)


def check_fields(obj, path: str, names=None) -> None:
    """Each field of the dataclass instance ``obj`` named in ``names`` (all
    of them by default) must have its annotated type, and then lie in its
    declared range (:func:`ranged`): the check of a config section, and of
    a corpus recipe's fields. ``path`` names ``obj`` in the error."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        if names is not None and f.name not in names:
            continue
        value, where = getattr(obj, f.name), f"{path}.{f.name}"
        if not _conforms(value, hints[f.name]):
            raise _invalid(where, f"of type {f.type}", value)
        if "range" in f.metadata:
            for at, number, kind in _numbers(value, hints[f.name], where):
                f.metadata["range"].check(number, at, kind)


@dataclass(frozen=True)
class TaskGenSpec:
    """Generation recipe for one task's dataset."""

    name: str
    regime: str
    classes: int = ranged(Bound(2))
    samples_per_class: int = ranged(Bound(2))
    within_class_spread: float = ranged(Bound(0))
    between_class_spread: float = ranged(Bound(0, low_open=True), default=1.0)
    degradation_noise: float = ranged(Bound(0), default=0.0)
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
    seed: int = ranged(Bound(0, 2**64 - 1))
    ambient_dim: int = ranged(Bound(1))

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))

    def task(self, name: str) -> TaskGenSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(name)

    def validate(self, positives_per_id: int = 4) -> None:
        """Check all corpus invariants: :meth:`validate_recipe`, and the
        batch shape's.

        ``positives_per_id`` is the K of the intended P*K batch structure;
        every class must hold at least 2*K samples so batching never
        degenerates.
        """
        self.validate_recipe()
        for t in self.tasks:
            if t.samples_per_class < 2 * positives_per_id:
                raise ValidationError(
                    f"task {t.name!r}: samples_per_class must be >= 2*K = {2 * positives_per_id}"
                )

    def validate_recipe(self) -> None:
        """Check the invariants that need no batch shape: the seed's, the
        ambient dimension's and every task field's type and range, then the
        task count and names, each task's recipe, the degraded tasks' twins
        and the task spreads."""
        check_fields(self, "corpus", ["seed", "ambient_dim"])
        for i, task in enumerate(self.tasks):
            check_fields(task, f"tasks[{i}]")
        if len(self.tasks) < 2:
            raise ValidationError("corpus needs at least 2 tasks")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate task names: {dupes}")
        for t in self.tasks:
            t.validate()
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
        through the artifact writer ``out`` (an ``artifacts.RunResult``)
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
                    "labels": data.labels,
                    "file": fname,
                }
            )
        out.json(f"{rel}/manifest.json", manifest)

    @classmethod
    def load(cls, directory: str | Path) -> "Corpus":
        """The corpus :meth:`save` wrote under ``directory``. A missing or
        malformed file raises ValidationError naming it, as does a field of
        the wrong type, a recipe that fails :meth:`CorpusSpec.validate_recipe`
        (the batch shape is not the manifest's to check), or a task whose
        features are not in the ``<name>.npy`` that :meth:`save` writes."""
        directory = Path(directory)
        path = directory / "manifest.json"
        try:
            manifest = json.loads(path.read_text())
        except OSError as exc:
            raise ValidationError(f"cannot read corpus manifest {path}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValidationError(f"corpus manifest {path} is not valid JSON: {exc}") from None
        version = manifest.get("manifest_version") if isinstance(manifest, dict) else None
        if version != MANIFEST_VERSION:
            raise ValidationError(f"{path}: unsupported corpus manifest version {version!r}")
        try:
            tasks = manifest["tasks"]
            if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
                raise ValidationError(f"{path}: tasks must be a list of JSON objects")
            task_specs = tuple(
                TaskGenSpec(**{f.name: t[f.name] for f in fields(TaskGenSpec)}) for t in tasks
            )
            spec = CorpusSpec(
                tasks=task_specs, seed=manifest["seed"], ambient_dim=manifest["ambient_dim"]
            )
            try:
                spec.validate_recipe()
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None
            corpus = cls(spec=spec, split=manifest["split"])
            check_fields(corpus, f"{path}: corpus", ["split"])
            for t in tasks:
                fname = f"{t['name']}.npy"
                if t["file"] != fname:
                    raise ValidationError(f"{path}: task {t['name']!r}: file must be {fname!r}")
                file = directory / fname
                try:
                    features = np.load(file)
                except (OSError, ValueError, EOFError) as exc:
                    raise ValidationError(f"cannot read corpus features {file}: {exc}") from None
                if list(features.shape) != t["shape"]:
                    raise ValidationError(f"{file}: task {t['name']!r}: stored shape mismatch")
                labels = _int64_labels(t["labels"], f"{path}: task {t['name']!r}")
                if labels.size != features.shape[0]:
                    raise ValidationError(
                        f"{path}: task {t['name']!r} has {labels.size} labels "
                        f"for {features.shape[0]} feature rows"
                    )
                corpus.tasks[t["name"]] = TaskData(
                    name=t["name"],
                    regime=t["regime"],
                    features=np.asfortranarray(features),
                    labels=labels,
                )
        except KeyError as exc:
            raise ValidationError(f"{path}: missing key {exc.args[0]!r}") from None
        return corpus


def _int64_labels(labels, where: str) -> np.ndarray:
    """A manifest's label list as int64. Only JSON integers that fit in
    int64 are labels: numpy would truncate 1.5, read true or "3" as
    integers, and fail with a bare error on "x", null or 2**70."""
    if not isinstance(labels, list) or not set(map(type, labels)) <= {int}:
        raise ValidationError(f"{where}: labels must be a list of JSON integers")
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{where}: a label does not fit in int64") from None


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

    Every batch holds P distinct identities of K consecutive rows each:
    row ``i`` belongs to the batch's ``i // K``-th identity. Its id masks
    are therefore the (P, K) block pattern whatever the labels are, so a
    stack of B batches has the masks of ``np.repeat(np.arange(P), K)``
    tiled B times; ``Trainer`` builds them once per stack size on that.

    :meth:`draw` makes a batch's random choices and returns its sample
    indices; :meth:`next_batch` is a draw and the gather of its rows.
    """

    def __init__(
        self,
        data: TaskData,
        rng: np.random.Generator,
        subsample_fraction: float = 1.0,
    ):
        self.task = data.name
        self._data = data
        self._rng = rng
        if subsample_fraction < 1.0:
            keep = max(1, int(round(subsample_fraction * data.n_samples)))
            self._indices = np.sort(rng.choice(data.n_samples, size=keep, replace=False))
        else:
            self._indices = np.arange(data.n_samples)
        # Each sample's identity as a dense small-int id, so any integer
        # labels, negative or sparse ones included, lay a pass out alike.
        _, dense = np.unique(data.labels[self._indices], return_inverse=True)
        self._ids = np.zeros(data.n_samples, dtype=np.min_scalar_type(dense.max()))
        self._ids[self._indices] = dense
        self._counts = np.bincount(dense)
        self._smallest_class = int(self._counts.min())
        self.refreshes = 0
        # The last (P, K) that passed _check.
        self._checked: tuple[int, int] | None = None
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
        ids = self._ids[self.order]
        first = np.full(self._counts.size, self.size)
        np.minimum.at(first, ids, np.arange(ids.size))
        by_slot = np.argsort(first)
        slot_of_id = np.empty_like(ids, shape=by_slot.size)
        slot_of_id[by_slot] = np.arange(by_slot.size)
        # A stable sort of small ints is a radix sort.
        self._pass = self.order[np.argsort(slot_of_id[ids], kind="stable")]
        sizes = self._counts[by_slot]
        self._ends = np.cumsum(sizes)
        self._starts = self._ends - sizes
        self._next = self._starts.copy()

    def _check(self, p: int, k: int) -> None:
        """Whether P*K batches fit this loader's samples; what it checks
        never changes, so a shape is checked once."""
        if p * k > self.size:
            raise ValidationError(
                f"task {self.task!r}: batch P*K = {p * k} exceeds dataset size {self.size}"
            )
        if self._smallest_class < k:
            raise ValidationError(f"task {self.task!r}: every class needs >= K = {k} samples")
        if p > self._ends.size:
            raise ValidationError(
                f"task {self.task!r}: P = {p} exceeds the {self._ends.size} available identities"
            )
        self._checked = (p, k)

    def _scarce_samples(
        self, p: int, k: int, remaining: np.ndarray, rich: np.ndarray
    ) -> np.ndarray:
        """The ``(p, k)`` sample indices of a batch drawn when fewer than P
        identities hold K unconsumed samples."""
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
        self._n_consumed += int(fresh.sum())
        # One vector draw is the per-identity ``choice(own, short,
        # replace=True)`` calls back to back: the same offsets into each
        # identity's samples, and the same generator state after.
        short = k - fresh
        starts = self._starts[chosen]
        sizes = self._ends[chosen] - starts
        offsets = self._rng.integers(0, np.repeat(sizes, short), dtype=np.int64)
        samples[np.arange(k) >= fresh[:, None]] = self._pass[np.repeat(starts, short) + offsets]
        return samples

    def draw(self, p: int, k: int) -> tuple[np.ndarray, bool]:
        """The random choices of a P*K batch, without its rows: returns the
        ``(P*K,)`` sample indices and the exhausted flag, and leaves the
        loader where :meth:`next_batch` would."""
        if (p, k) != self._checked:
            self._check(p, k)
        remaining = self._ends - self._next
        rich = (remaining >= k).nonzero()[0]
        if rich.size >= p:
            # Every chosen identity has k unconsumed samples to give.
            chosen = self._rng.choice(rich, size=p, replace=False)
            first = self._next[chosen]
            samples = self._pass[first[:, None] + np.arange(k)]
            self._next[chosen] = first + k
            self._n_consumed += p * k
        else:
            samples = self._scarce_samples(p, k, remaining, rich)
        exhausted = self._n_consumed == len(self.order)
        if exhausted:
            self.refreshes += 1
            self._refresh()
        return samples.ravel(), exhausted

    def next_batch(self, p: int, k: int) -> tuple[Batch, bool]:
        """Draw a P*K batch; returns (batch, exhausted_flag)."""
        sample_indices, exhausted = self.draw(p, k)
        batch = Batch(
            features=self._data.features[sample_indices],
            labels=self._data.labels[sample_indices],
            task=self.task,
        )
        return batch, exhausted
