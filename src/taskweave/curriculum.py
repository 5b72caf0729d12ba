"""Multi-task training schedules over one gradient-coupled step.

Two configured modes choose each step's per-task batch allocation:

* ``balanced``  -- every task contributes the same number of batches per
  optimizer step; an epoch ends once every task's loader has been exhausted.
* ``adaptive``  -- batch slots are sampled per step in proportion to a task
  difficulty score (distance from goal divided by recent improvement rate),
  with a minimum sampling probability guaranteed by two-stage normalization.

A third schedule, ``blocked``, is an explicit allocation fed to
``Trainer.train_step``: tasks one after another, never two in one step. It
drives single-task pretraining and the sequential fine-tuning baseline.

A balanced run's batch total depends on its loaders alone, so a balanced
Trainer plans it before any training (:meth:`Trainer.planned_batches`):
fresh loaders from its own recipe replay the draws its steps make
(:meth:`Loader.draw`, without gathering any rows) through the same epoch
rule.

Every schedule the lab trains (the curriculum run, pretraining, the
sequential baseline and both interleaved fine-tunes) is one ``Trainer``,
built from the experiment config with a fresh optimizer of its own; no
other module builds an optimizer state. All per-batch gradients inside one
step are summed into a single buffer and applied by exactly one optimizer
update; ``Trainer.train_step`` is the only place that does so. It returns
the step's trace record, the plain dict that a ``traces/*.jsonl`` line holds,
and hands it to the trainer's trace sink; the trainer itself keeps counts,
not records.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import CurriculumConfig, ExperimentConfig
from .datagen import Batch, Loader, TaskData
from .encoder import (
    EncoderParams,
    GradBuffer,
    OptimState,
    accumulate,
    adam_step,
    embed,
    hardest_distances,
    id_masks,
)
from .errors import ContractError, ValidationError
from .seeding import stream

BALANCED = "balanced"
ADAPTIVE = "adaptive"
MODES = (BALANCED, ADAPTIVE)
# Reported by steps that ran an explicit allocation; not a configurable mode.
BLOCKED = "blocked"


@dataclass
class TaskState:
    """Per-task scheduler state: accuracy log and last allocation."""

    metric_log: list[tuple[int, float]] = field(default_factory=list)
    last_allocation: int | None = None


# A task's scored fields in a step that the adaptive scorer did not allocate.
_UNSCORED = dict.fromkeys(("improvement", "goal_distance", "score", "probability"))


def relative_improvement(
    metric_prev: float, metric_curr: float, allocation: int, epsilon: float
) -> float:
    """Improvement rate per allocated batch: |curr - prev| / prev / t + eps.

    A zero previous metric substitutes eps for the relative ratio.
    """
    if allocation < 1:
        raise ContractError("allocation must be >= 1")
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    if metric_prev < 0:
        raise ContractError("metric_prev must be nonnegative")
    ratio = epsilon if metric_prev == 0 else abs(metric_curr - metric_prev) / metric_prev
    return ratio / allocation + epsilon


def distance_from_goal(goal: float, accuracy: float) -> float:
    """Normalized shortfall (goal - accuracy) / goal, clamped at 0."""
    if not 0.0 < goal <= 1.0:
        raise ContractError("goal must lie in (0, 1]")
    return max(0.0, (goal - accuracy) / goal)


def _float_sum(values: list[float]) -> float:
    """numpy's float64 sum of ``values``, bit for bit. numpy adds fewer than
    8 values left to right, and sums more in its pairwise order, so those
    go through numpy itself."""
    if len(values) >= 8:
        return float(np.add.reduce(np.array(values)))
    total = 0.0
    for value in values:
        total += value
    return total


def task_scores_to_probabilities(scores, floor: float) -> np.ndarray:
    """Two-stage normalization of nonnegative scores into probabilities.

    Stage 1 divides by the total (uniform if all scores are zero). Stage 2
    pins every task below ``floor`` to exactly ``floor`` and redistributes the
    remaining mass over the others in proportion to their stage-1 share,
    iterating until no new task falls below the floor.

    The arithmetic runs on Python floats, a few times cheaper than numpy
    calls for a handful of tasks, and every sum adds in numpy's order
    (:func:`_float_sum`), so the result is the float64 array that the same
    steps in numpy give, bit for bit.
    """
    scores = [float(s) for s in scores]
    n = len(scores)
    if n == 0:
        raise ContractError("scores must be non-empty")
    if not all(0 <= s < math.inf for s in scores):
        raise ContractError("scores must be finite and nonnegative")
    if floor < 0 or floor * n >= 1.0:
        raise ContractError("floor must satisfy 0 <= floor and floor * n < 1")
    total = _float_sum(scores)
    if total == math.inf:
        raise ContractError("scores must have a finite sum")
    p_hat = [1.0 / n] * n if total == 0 else [s / total for s in scores]
    pinned = [q < floor for q in p_hat]
    while True:
        mass = 1.0 - floor * sum(pinned)
        scale = mass / _float_sum([q for q, pin in zip(p_hat, pinned) if not pin])
        p = [floor if pin else q * scale for q, pin in zip(p_hat, pinned)]
        grown = [pin or q < floor for q, pin in zip(p, pinned)]
        if grown == pinned:
            return np.array(p)
        pinned = grown


def sample_allocation(probabilities, total: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial draw of ``total`` batch slots over tasks; the
    probabilities are renormalized by their float64 sum, on Python floats
    as in :func:`task_scores_to_probabilities`."""
    p = [float(q) for q in probabilities]
    if total < 1:
        raise ContractError("total must be >= 1")
    mass = _float_sum(p)
    if any(q < 0 for q in p) or abs(mass - 1.0) > 1e-9:
        raise ContractError("probabilities must be nonnegative and sum to 1")
    return rng.multinomial(total, [q / mass for q in p])


def blocked_schedule(
    task_names: list[str], total_batches: int, group: int
) -> Iterator[dict[str, int]]:
    """Per-step allocations of the blocked schedule: tasks one after another,
    each with a budget from ``divmod(total_batches, n_tasks)`` (the first
    ``remainder`` tasks take one batch more), spent in steps of at most
    ``group`` batches. No step mixes two tasks."""
    if group < 1:
        raise ContractError("group must be >= 1")
    base, extra = divmod(total_batches, len(task_names))
    for i, name in enumerate(task_names):
        budget = base + (1 if i < extra else 0)
        while budget > 0:
            take = min(group, budget)
            yield {n: take if n == name else 0 for n in task_names}
            budget -= take


def make_loaders(
    task_data: dict[str, TaskData], curriculum: CurriculumConfig, seed: int, loader_stream: str
) -> dict[str, Loader]:
    """One loader per task, in task order, each drawing from its own
    ``(seed, loader_stream, task)`` substream over the configured subsample."""
    return {
        name: Loader(data, stream(seed, loader_stream, name), curriculum.subsample.get(name, 1.0))
        for name, data in task_data.items()
    }


def draw_step(
    loaders: dict[str, Loader], allocations: dict[str, int], identities: int, positives: int
) -> tuple[list[Batch], dict[str, bool]]:
    """A step's batches, tasks in loader order and each loader in its own
    order, and whether each task's loader exhausted during the step."""
    batches: list[Batch] = []
    exhausted = dict.fromkeys(loaders, False)
    for name, loader in loaders.items():
        for _ in range(allocations[name]):
            batch, flag = loader.next_batch(identities, positives)
            exhausted[name] = exhausted[name] or flag
            batches.append(batch)
    return batches, exhausted


def block_masks(stack: int, identities: int, positives: int) -> tuple[np.ndarray, np.ndarray]:
    """The id masks of any stack of ``stack`` loader batches of P =
    ``identities`` identities of K = ``positives`` rows each: by the
    Loader's batch contract, those of ``np.repeat(np.arange(P), K)`` in
    every batch, whatever the labels. ``id_masks`` builds and checks them;
    they are read-only."""
    ids = np.tile(np.repeat(np.arange(identities), positives), (stack, 1))
    masks = id_masks(ids)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _satisfied_anchors(
    params: EncoderParams, features: np.ndarray, labels: np.ndarray, masks=None
) -> np.ndarray:
    """Per batch of a ``(B, n, d)`` stack, the number of anchors whose
    hardest positive is nearer than their hardest negative: one ``embed``
    and one ``hardest_distances`` call. ``masks`` is ``id_masks(labels)``
    when the caller has it already."""
    d_pos, d_neg, _, _ = hardest_distances(embed(params, features), labels, masks)
    return (d_pos < d_neg).sum(axis=1)


class Trainer:
    """Holds everything one training run needs and advances it stepwise.

    It reads the schedule from ``config.curriculum``, the batch shape from
    ``config.batch`` and the triplet margin from ``config.margin``, and it
    trains ``params`` in place under a fresh optimizer built from
    ``config.optimizer``. ``mode`` picks the allocation of a plain
    ``train_step()``; a step given an explicit allocation runs that instead.
    ``seed`` is the integer every substream of the run derives from, and
    ``loader_stream`` names the seeding substream of the per-task loaders.
    ``trace``, when given, takes each step's record, a fresh dict, as the
    step ends (an ``artifacts.JsonLines``); the trainer keeps only the
    counts ``step`` and ``batches`` (batches spent).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        mode: str,
        task_data: dict[str, TaskData],
        params: EncoderParams,
        seed: int,
        loader_stream: str = "loader",
        trace: Callable[[dict], None] | None = None,
    ):
        if mode not in MODES:
            raise ContractError(f"unknown curriculum mode {mode!r}")
        config.curriculum.validate(list(task_data))
        self.mode = mode
        self.task_names = list(task_data)
        self.task_data = task_data
        self.params = params
        self.opt_state = OptimState.for_params(params, **vars(config.optimizer))
        self.curriculum = config.curriculum
        self.identities = config.batch.identities
        self.positives = config.batch.positives
        self.margin = config.margin
        self.seed = seed
        self.loader_stream = loader_stream
        self.loaders = make_loaders(task_data, self.curriculum, seed, loader_stream)
        self.buffer = GradBuffer.zeros_like(params)
        self.states = {name: TaskState() for name in task_data}
        self.alloc_rng = stream(seed, "allocation")
        self.trace = trace
        self.step = 0
        self.batches = 0
        # A stack's id masks depend on its size alone (the Loader's batch
        # contract); built on first use, read-only.
        self._masks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if mode == ADAPTIVE:
            self.seed_initial_accuracies()

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def total_batches(self) -> int:
        if self.curriculum.total_batches is not None:
            return self.curriculum.total_batches
        return self.n_tasks * self.curriculum.batches_per_task

    def seed_initial_accuracies(self) -> None:
        """Pre-training evaluation pass: log a step-0 accuracy per task so
        the adaptive scorer has a starting point."""
        for name, data in self.task_data.items():
            rng = stream(self.seed, "probe", name)
            # A task's probe batches share one P x K shape, so they stack.
            batches = [self._probe_batch(data, rng) for _ in range(self.curriculum.probe_batches)]
            labels = np.array([batch.labels for batch in batches])
            features = np.array([batch.features for batch in batches])
            satisfied = int(_satisfied_anchors(self.params, features, labels).sum())
            self.states[name].metric_log.append((0, satisfied / labels.size))

    def _probe_batch(self, data: TaskData, rng: np.random.Generator) -> Batch:
        classes = data.classes
        p = min(self.identities, len(classes))
        chosen = rng.choice(classes, size=p, replace=False)
        rows = []
        for lab in chosen:
            members = np.flatnonzero(data.labels == lab)
            rows.extend(rng.choice(members, size=self.positives, replace=False))
        rows = np.asarray(rows)
        return Batch(features=data.features[rows], labels=data.labels[rows], task=data.name)

    def _score_tasks(self) -> dict[str, dict[str, float]]:
        """The scored fields of each task's step record, as Python floats."""
        eps = self.curriculum.epsilon
        scored = {}
        for name in self.task_names:
            state = self.states[name]
            log = state.metric_log
            if not log:
                raise ContractError(
                    f"task {name!r} has no logged accuracy; seed initial accuracies first"
                )
            curr = log[-1][1]
            prev = log[-2][1] if len(log) >= 2 else curr
            alloc = 1 if state.last_allocation is None else state.last_allocation
            # No batches last step means no measured improvement.
            improvement = relative_improvement(prev, curr, alloc, eps) if alloc >= 1 else eps
            goal_dist = distance_from_goal(self.curriculum.goals[name], curr)
            score = goal_dist / improvement
            scored[name] = {"improvement": improvement, "goal_distance": goal_dist, "score": score}
        probs = task_scores_to_probabilities(
            [scored[name]["score"] for name in self.task_names], self.curriculum.floor
        )
        for name, prob in zip(self.task_names, probs.tolist()):
            scored[name]["probability"] = prob
        return scored

    def train_step(self, allocations: dict[str, int] | None = None) -> dict:
        """One gradient-coupled step: allocate, draw the batches, accumulate
        them in one stacked kernel call, update once, then measure online
        accuracy on the just-used batches in one more stacked pass.

        ``allocations`` (batches per task) overrides the mode's allocation;
        such a step reports mode ``blocked``. Returns the step's trace record,
        which also goes to the trace sink; a task's unmeasured or unscored
        fields are None."""
        self.step += 1
        scoring = dict.fromkeys(self.task_names, _UNSCORED)
        if allocations is not None:
            unknown = sorted(set(allocations) - set(self.task_names))
            if unknown:
                raise ContractError(f"allocation names unknown tasks: {unknown}")
            mode = BLOCKED
            allocations = {name: int(allocations.get(name, 0)) for name in self.task_names}
        else:
            mode = self.mode
            if mode == BALANCED:
                allocations = dict.fromkeys(self.task_names, self.curriculum.batches_per_task)
            else:
                scoring = self._score_tasks()
                probs = [scoring[name]["probability"] for name in self.task_names]
                alloc_list = sample_allocation(probs, self.total_batches, self.alloc_rng)
                allocations = {name: int(a) for name, a in zip(self.task_names, alloc_list)}

        # Draw every batch of the step first, then run them through the
        # kernel as one stack. The stack and its id masks serve the accuracy
        # pass too; the masks depend on the stack size alone.
        batches, exhausted = draw_step(self.loaders, allocations, self.identities, self.positives)
        if not batches:
            raise ContractError("a step needs at least one batch")
        features = np.array([batch.features for batch in batches])
        labels = np.array([batch.labels for batch in batches])
        stack = len(batches)
        if stack not in self._masks:
            self._masks[stack] = block_masks(stack, self.identities, self.positives)
        masks = self._masks[stack]
        batch_losses = accumulate(
            self.params, features, labels, self.margin, self.buffer, masks
        ).tolist()
        adam_step(self.params, self.buffer, self.opt_state)

        measured = self.step % self.curriculum.accuracy_cadence == 0
        if measured:
            satisfied = _satisfied_anchors(self.params, features, labels, masks).tolist()
            anchors = self.identities * self.positives
        tasks = {}
        start = 0
        for name in self.task_names:
            # A task's batches are consecutive in the stack.
            stop = start + allocations[name]
            loss = 0.0
            for batch_loss in batch_losses[start:stop]:
                loss += batch_loss
            accuracy = None
            if measured and stop > start:
                accuracy = sum(satisfied[start:stop]) / (anchors * (stop - start))
                self.states[name].metric_log.append((self.step, accuracy))
            self.states[name].last_allocation = allocations[name]
            tasks[name] = {
                "allocation": allocations[name],
                "loss": loss,
                "accuracy": accuracy,
                "exhausted": exhausted[name],
                **scoring[name],
            }
            start = stop

        self.batches += len(batches)
        record = {"step": self.step, "mode": mode, "tasks": tasks}
        if self.trace is not None:
            self.trace(record)
        return record

    def run_epoch(self) -> None:
        """Balanced: step until every loader has exhausted at least once.
        Adaptive: run the configured number of steps."""
        if self.mode == ADAPTIVE:
            if self.curriculum.steps_per_epoch is None:
                raise ValidationError(
                    "config.curriculum.steps_per_epoch is required in adaptive mode"
                )
            for _ in range(self.curriculum.steps_per_epoch):
                self.train_step()
            return

        balanced_epoch(
            lambda: {name: t["exhausted"] for name, t in self.train_step()["tasks"].items()},
            self.loaders,
            self.curriculum.batches_per_task,
            self.identities * self.positives,
        )

    def planned_batches(self, epochs: int) -> int:
        """The batch total of ``epochs`` balanced epochs of this trainer,
        found before it trains: fresh loaders from its own recipe replay the
        same draws through the same epoch rule, with no kernel call and no
        gathered rows (:meth:`Loader.draw` leaves a loader where
        :meth:`Loader.next_batch` would). The total depends on the loaders
        alone, so it is the one the trainer then spends. Its own loaders are
        not touched."""
        if self.mode != BALANCED:
            raise ContractError(f"only a balanced trainer plans its batches, not {self.mode!r}")
        loaders = make_loaders(self.task_data, self.curriculum, self.seed, self.loader_stream)
        per_task = self.curriculum.batches_per_task

        def step() -> dict[str, bool]:
            exhausted = {}
            for name, loader in loaders.items():
                flags = [loader.draw(self.identities, self.positives)[1] for _ in range(per_task)]
                exhausted[name] = any(flags)
            return exhausted

        steps = sum(
            balanced_epoch(step, loaders, per_task, self.identities * self.positives)
            for _ in range(epochs)
        )
        return steps * per_task * self.n_tasks


def balanced_epoch(
    step: Callable[[], dict[str, bool]],
    loaders: dict[str, Loader],
    per_task: int,
    batch_size: int,
) -> int:
    """The balanced epoch rule: call ``step`` (one step of ``per_task``
    batches of ``batch_size`` samples per task, returning each task's
    exhausted flag) until every loader has exhausted at least once. Returns
    the number of steps; raises ContractError past a step cap well
    beyond the largest loader's pass."""
    seen = {name: False for name in loaders}
    largest = max(loader.size for loader in loaders.values())
    step_cap = 10 * (largest // (per_task * batch_size) + 2)
    steps = 0
    while not all(seen.values()):
        if steps >= step_cap:
            raise ContractError("epoch failed to exhaust all loaders (internal bound hit)")
        exhausted = step()
        steps += 1
        for name, flag in exhausted.items():
            seen[name] = seen[name] or flag
    return steps
