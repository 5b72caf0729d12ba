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

A balanced run's batch total depends on its loaders alone, so
:func:`balanced_budget` finds it before any training by replaying the
loaders through the same batch draw and epoch rule the Trainer uses.

All per-batch gradients inside one step are summed into a single buffer and
applied by exactly one optimizer update; ``Trainer.train_step`` is the only
place that does so.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import CurriculumConfig
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
from .errors import ConfigurationError, ContractError
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

    def latest_accuracy(self) -> float | None:
        return self.metric_log[-1][1] if self.metric_log else None


@dataclass
class TaskScore:
    improvement: float
    goal_distance: float
    score: float
    probability: float


@dataclass
class StepReport:
    step: int
    mode: str
    allocations: dict[str, int]
    losses: dict[str, float]
    exhausted: dict[str, bool]
    accuracies: dict[str, float | None]
    scoring: dict[str, TaskScore] | None

    @property
    def batches_consumed(self) -> int:
        return sum(self.allocations.values())

    def to_record(self) -> dict:
        """JSON-ready trace record; the replay conformance surface."""
        tasks = {}
        for name in self.allocations:
            entry = {
                "allocation": self.allocations[name],
                "loss": self.losses[name],
                "accuracy": self.accuracies[name],
                "exhausted": self.exhausted[name],
            }
            if self.scoring is not None:
                s = self.scoring[name]
                entry.update(
                    improvement=s.improvement,
                    goal_distance=s.goal_distance,
                    score=s.score,
                    probability=s.probability,
                )
            else:
                entry.update(improvement=None, goal_distance=None, score=None, probability=None)
            tasks[name] = entry
        return {"step": self.step, "mode": self.mode, "tasks": tasks}


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


def task_scores_to_probabilities(scores, floor: float) -> np.ndarray:
    """Two-stage normalization of nonnegative scores into probabilities.

    Stage 1 divides by the total (uniform if all scores are zero). Stage 2
    pins every task below ``floor`` to exactly ``floor`` and redistributes the
    remaining mass over the others in proportion to their stage-1 share,
    iterating until no new task falls below the floor.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0:
        raise ContractError("scores must be non-empty")
    if (scores < 0).any() or not np.isfinite(scores).all():
        raise ContractError("scores must be finite and nonnegative")
    if floor < 0 or floor * n >= 1.0:
        raise ConfigurationError("floor must satisfy 0 <= floor and floor * n < 1")
    total = scores.sum()
    p_hat = np.full(n, 1.0 / n) if total == 0 else scores / total
    pinned = p_hat < floor
    while True:
        mass = 1.0 - floor * pinned.sum()
        unpinned_share = p_hat[~pinned].sum()
        p = np.where(pinned, floor, p_hat * (mass / unpinned_share))
        newly = ~pinned & (p < floor)
        if not newly.any():
            return p
        pinned |= newly


def sample_allocation(probabilities, total: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial draw of ``total`` batch slots over tasks."""
    p = np.asarray(probabilities, dtype=np.float64)
    if total < 1:
        raise ContractError("total must be >= 1")
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ContractError("probabilities must be nonnegative and sum to 1")
    return rng.multinomial(total, p / p.sum())


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


def _satisfied_anchors(
    params: EncoderParams, features: np.ndarray, labels: np.ndarray, masks=None
) -> np.ndarray:
    """Per batch of a ``(B, n, d)`` stack, the number of anchors whose
    hardest positive is nearer than their hardest negative: one ``embed``
    and one ``hardest_distances`` call. ``masks`` is ``id_masks(labels)``
    when the caller has it already."""
    d_pos, d_neg, _, _ = hardest_distances(embed(params, features), labels, masks)
    return (d_pos < d_neg).sum(axis=1)


def online_accuracy(params: EncoderParams, batches: list[Batch]) -> float:
    """Fraction of anchors, pooled over ``batches``, whose hardest positive is
    nearer than their hardest negative: the online training-accuracy signal."""
    anchors = sum(batch.labels.size for batch in batches)
    sizes = np.array([batch.labels.size for batch in batches])
    satisfied = 0
    # Batches of one size share one stacked pass.
    for size in np.unique(sizes):
        group = [batches[i] for i in np.flatnonzero(sizes == size)]
        features = np.stack([batch.features for batch in group])
        labels = np.stack([batch.labels for batch in group])
        satisfied += int(_satisfied_anchors(params, features, labels).sum())
    return satisfied / anchors


class Trainer:
    """Holds everything one training run needs and advances it stepwise.

    ``mode`` picks the allocation of a plain ``train_step()``; a step given
    an explicit allocation runs that instead. ``loader_stream`` names the
    seeding substream of the per-task loaders.
    """

    def __init__(
        self,
        mode: str,
        task_data: dict[str, TaskData],
        params: EncoderParams,
        opt_state: OptimState,
        curriculum: CurriculumConfig,
        identities: int,
        positives: int,
        margin: float,
        seed: int,
        loader_stream: str = "loader",
    ):
        if mode not in MODES:
            raise ConfigurationError(f"unknown curriculum mode {mode!r}")
        curriculum.validate(list(task_data))
        self.mode = mode
        self.task_names = list(task_data)
        self.task_data = task_data
        self.params = params
        self.opt_state = opt_state
        self.curriculum = curriculum
        self.identities = identities
        self.positives = positives
        self.margin = margin
        self.seed = seed
        self.loaders = make_loaders(task_data, curriculum, seed, loader_stream)
        self.buffer = GradBuffer.zeros_like(params)
        self.states = {name: TaskState() for name in task_data}
        self.alloc_rng = stream(seed, "allocation")
        self.step = 0
        # Every step's report, in order: the run's scheduler trace.
        self.reports: list[StepReport] = []
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
            batches = [self._probe_batch(data, rng) for _ in range(self.curriculum.probe_batches)]
            self.states[name].metric_log.append((0, online_accuracy(self.params, batches)))

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

    def _score_tasks(self) -> dict[str, TaskScore]:
        eps = self.curriculum.epsilon
        raw = {}
        for name in self.task_names:
            state = self.states[name]
            log = state.metric_log
            if not log:
                raise ConfigurationError(
                    f"task {name!r} has no logged accuracy; seed initial accuracies first"
                )
            curr = log[-1][1]
            prev = log[-2][1] if len(log) >= 2 else curr
            alloc = state.last_allocation
            if alloc is None:
                alloc = 1
            if alloc >= 1:
                improvement = relative_improvement(prev, curr, alloc, eps)
            else:
                # No batches last step means no measured improvement.
                improvement = eps
            goal_dist = distance_from_goal(self.curriculum.goals[name], curr)
            raw[name] = (improvement, goal_dist, goal_dist / improvement)
        probs = task_scores_to_probabilities(
            [raw[name][2] for name in self.task_names], self.curriculum.floor
        )
        return {
            name: TaskScore(*raw[name], float(prob))
            for name, prob in zip(self.task_names, probs)
        }

    def train_step(self, allocations: dict[str, int] | None = None) -> StepReport:
        """One gradient-coupled step: allocate, draw the batches, accumulate
        them in one stacked kernel call, update once, then measure online
        accuracy on the just-used batches in one more stacked pass.

        ``allocations`` (batches per task) overrides the mode's allocation;
        such a step reports mode ``blocked``.
        """
        self.step += 1
        scoring = None
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
                probs = [scoring[name].probability for name in self.task_names]
                alloc_list = sample_allocation(probs, self.total_batches, self.alloc_rng)
                allocations = {name: int(a) for name, a in zip(self.task_names, alloc_list)}

        # Draw every batch of the step first, then run them through the
        # kernel as one stack. The stack and its id masks serve the accuracy
        # pass too.
        batches, exhausted = draw_step(self.loaders, allocations, self.identities, self.positives)
        if not batches:
            raise ContractError("a step needs at least one batch")
        features = np.stack([batch.features for batch in batches])
        labels = np.stack([batch.labels for batch in batches])
        masks = id_masks(labels)
        batch_losses = accumulate(
            self.params, features, labels, self.margin, self.buffer, masks
        ).tolist()
        adam_step(self.params, self.buffer, self.opt_state)

        losses = {name: 0.0 for name in self.task_names}
        accuracies: dict[str, float | None] = {name: None for name in self.task_names}
        measured = self.step % self.curriculum.accuracy_cadence == 0
        if measured:
            satisfied = _satisfied_anchors(self.params, features, labels, masks).tolist()
            anchors = self.identities * self.positives
        start = 0
        for name in self.task_names:
            # A task's batches are consecutive in the stack.
            stop = start + allocations[name]
            for loss in batch_losses[start:stop]:
                losses[name] += loss
            if measured and stop > start:
                accuracies[name] = sum(satisfied[start:stop]) / (anchors * (stop - start))
                self.states[name].metric_log.append((self.step, accuracies[name]))
            self.states[name].last_allocation = allocations[name]
            start = stop

        report = StepReport(
            step=self.step,
            mode=mode,
            allocations=allocations,
            losses=losses,
            exhausted=exhausted,
            accuracies=accuracies,
            scoring=scoring,
        )
        self.reports.append(report)
        return report

    def run_epoch(self) -> None:
        """Balanced: step until every loader has exhausted at least once.
        Adaptive: run the configured number of steps. The steps' reports
        join ``self.reports``."""
        if self.mode == ADAPTIVE:
            if self.curriculum.steps_per_epoch is None:
                raise ConfigurationError("adaptive mode requires steps_per_epoch")
            for _ in range(self.curriculum.steps_per_epoch):
                self.train_step()
            return

        balanced_epoch(
            lambda: self.train_step().exhausted,
            self.loaders,
            self.curriculum.batches_per_task,
            self.identities * self.positives,
        )


def balanced_epoch(
    step: Callable[[], dict[str, bool]],
    loaders: dict[str, Loader],
    per_task: int,
    batch_size: int,
) -> int:
    """The balanced epoch rule: call ``step`` (one step of ``per_task``
    batches of ``batch_size`` samples per task, returning each task's
    exhausted flag) until every loader has exhausted at least once. Returns
    the number of steps; raises ConfigurationError past a step cap well
    beyond the largest loader's pass."""
    seen = {name: False for name in loaders}
    largest = max(loader.size for loader in loaders.values())
    step_cap = 10 * (largest // (per_task * batch_size) + 2)
    steps = 0
    while not all(seen.values()):
        if steps >= step_cap:
            raise ConfigurationError("epoch failed to exhaust all loaders (internal bound hit)")
        exhausted = step()
        steps += 1
        for name, flag in exhausted.items():
            seen[name] = seen[name] or flag
    return steps


def balanced_budget(
    task_data: dict[str, TaskData],
    curriculum: CurriculumConfig,
    identities: int,
    positives: int,
    seed: int,
    epochs: int,
) -> int:
    """The batch total of ``epochs`` balanced epochs of a Trainer seeded
    ``seed``, found before any training: the same loaders, on the
    trainer's default ``"loader"`` stream, replay the same draws through the
    same epoch rule, with no kernel call. The total depends on the loaders
    alone, so it is the trainer's own."""
    loaders = make_loaders(task_data, curriculum, seed, "loader")
    per_task = curriculum.batches_per_task
    allocations = dict.fromkeys(loaders, per_task)

    def step() -> dict[str, bool]:
        return draw_step(loaders, allocations, identities, positives)[1]

    steps = sum(
        balanced_epoch(step, loaders, per_task, identities * positives) for _ in range(epochs)
    )
    return steps * per_task * len(loaders)
