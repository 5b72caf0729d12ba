"""Scheduler formulas, two-stage normalization, and trainer behavior."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskweave.curriculum import (
    ADAPTIVE,
    BALANCED,
    BLOCKED,
    Trainer,
    blocked_schedule,
    distance_from_goal,
    online_accuracy,
    relative_improvement,
    sample_allocation,
    task_scores_to_probabilities,
)
from taskweave.config import CurriculumConfig
from taskweave.datagen import Batch, CorpusSpec, TaskGenSpec, build_corpus
from taskweave.encoder import EncoderParams, OptimState, init_params
from taskweave.errors import ConfigurationError, ContractError
from taskweave.seeding import stream


class TestAllocationFormulas:
    def test_relative_improvement_direct(self):
        assert abs(relative_improvement(0.5, 0.6, 2, 1e-8) - (0.1 + 1e-8)) < 1e-12

    def test_relative_improvement_flat(self):
        assert relative_improvement(0.7, 0.7, 3, 1e-8) == 1e-8

    def test_relative_improvement_absolute_value(self):
        assert abs(relative_improvement(0.8, 0.6, 1, 1e-8) - (0.25 + 1e-8)) < 1e-12

    def test_relative_improvement_zero_previous(self):
        eps = 1e-8
        assert abs(relative_improvement(0.0, 0.4, 2, eps) - (eps / 2 + eps)) < 1e-20

    def test_distance_from_goal_direct(self):
        assert abs(distance_from_goal(0.9, 0.45) - 0.5) < 1e-12

    def test_distance_at_goal(self):
        assert distance_from_goal(0.8, 0.8) == 0.0

    def test_distance_clamped_above_goal(self):
        assert distance_from_goal(0.8, 0.95) == 0.0

    def test_monotone_pressure(self):
        # With improvement fixed, a larger shortfall raises the score; with a
        # positive shortfall fixed, faster improvement lowers it.
        improvement = relative_improvement(0.5, 0.55, 1, 1e-8)
        assert distance_from_goal(0.9, 0.3) / improvement > distance_from_goal(0.9, 0.5) / improvement
        shortfall = distance_from_goal(0.9, 0.5)
        slow = relative_improvement(0.5, 0.51, 1, 1e-8)
        fast = relative_improvement(0.5, 0.70, 1, 1e-8)
        assert shortfall / fast < shortfall / slow


class TestScoresToProbabilities:
    def test_uniform(self):
        np.testing.assert_allclose(
            task_scores_to_probabilities([1, 1, 1, 1], 0.05), [0.25] * 4, atol=1e-15
        )

    def test_three_tasks_pinned(self):
        p = task_scores_to_probabilities([0.97, 0.01, 0.01, 0.01], 0.05)
        np.testing.assert_allclose(p, [0.85, 0.05, 0.05, 0.05], atol=1e-12)

    def test_zero_scores_receive_floor(self):
        p = task_scores_to_probabilities([1.0, 0.0, 0.0, 0.0], 0.05)
        np.testing.assert_allclose(p, [0.85, 0.05, 0.05, 0.05], atol=1e-12)

    def test_all_zero_scores_uniform(self):
        np.testing.assert_allclose(
            task_scores_to_probabilities([0.0, 0.0, 0.0], 0.05), [1 / 3] * 3, atol=1e-15
        )

    def test_iterative_pinning(self):
        # The middle task starts above the floor (0.101) but falls below it
        # after the first redistribution (0.101 * 0.9 / 0.951 < 0.1), forcing
        # a second pinning round; the final split is then (0.8, 0.1, 0.1).
        p = task_scores_to_probabilities([0.85, 0.101, 0.049], 0.1)
        np.testing.assert_allclose(p, [0.8, 0.1, 0.1], atol=1e-12)

    def test_floor_too_large(self):
        with pytest.raises(ConfigurationError, match="floor"):
            task_scores_to_probabilities([1, 1, 1], 0.4)

    def test_negative_scores_rejected(self):
        with pytest.raises(ContractError):
            task_scores_to_probabilities([0.5, -0.1], 0.05)

    @given(
        scores=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=2, max_size=12),
        floor_scale=st.floats(0.0, 0.95),
    )
    @settings(max_examples=300, deadline=None)
    def test_floor_and_sum_invariants(self, scores, floor_scale):
        floor = floor_scale / len(scores)
        p = task_scores_to_probabilities(scores, floor)
        assert p.min() >= floor - 1e-12
        assert abs(p.sum() - 1.0) <= 1e-12


class TestSampleAllocation:
    def test_sums_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            alloc = sample_allocation([0.4, 0.3, 0.2, 0.1], 8, rng)
            assert alloc.sum() == 8

    def test_degenerate_distribution(self):
        rng = np.random.default_rng(1)
        alloc = sample_allocation([1.0, 0.0, 0.0, 0.0], 6, rng)
        assert alloc.tolist() == [6, 0, 0, 0]

    def test_monte_carlo_mean_matches_expectation(self):
        rng = np.random.default_rng(2)
        draws = np.stack([sample_allocation([0.25] * 4, 8, rng) for _ in range(10_000)])
        np.testing.assert_allclose(draws.mean(axis=0), 2.0, atol=0.05)


class TestBlockedSchedule:
    def test_uneven_budget_and_partial_groups(self):
        steps = list(blocked_schedule(["a", "b", "c"], 11, 3))
        # divmod(11, 3) = (3, 2): budgets 4, 4, 3, each spent in groups of <= 3.
        assert [(name, n) for step in steps for name, n in step.items() if n] == [
            ("a", 3), ("a", 1), ("b", 3), ("b", 1), ("c", 3)
        ]
        assert all(set(step) == {"a", "b", "c"} for step in steps)

    @given(
        n_tasks=st.integers(1, 5),
        total=st.integers(0, 40),
        group=st.integers(1, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_task_per_step_and_budgets(self, n_tasks, total, group):
        names = [f"t{i}" for i in range(n_tasks)]
        steps = list(blocked_schedule(names, total, group))
        per_task = {name: 0 for name in names}
        order = []
        for step in steps:
            active = [name for name, n in step.items() if n]
            assert len(active) == 1
            assert 1 <= step[active[0]] <= group
            per_task[active[0]] += step[active[0]]
            order.append(active[0])
        assert sum(per_task.values()) == total
        assert max(per_task.values()) - min(per_task.values()) <= 1
        assert order == sorted(order, key=names.index)

    def test_group_must_be_positive(self):
        with pytest.raises(ContractError, match="group"):
            list(blocked_schedule(["a"], 4, 0))


class TestOnlineAccuracy:
    identity = EncoderParams(weights=[np.eye(2)], biases=[np.zeros(2)])

    def test_satisfaction_rate(self):
        emb = np.array([[1.0, 0.0], [0.99, 0.14], [-1.0, 0.0], [-0.99, 0.14]])
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        batch = Batch(features=emb, labels=np.array([0, 0, 1, 1]), task="t")
        assert online_accuracy(self.identity, [batch]) == 1.0

    def test_counts_pool_across_batches(self):
        # Six satisfied anchors in one batch, four violated in the other: the
        # pooled rate is 6 / 10, not the mean of the per-batch rates (0.5).
        tight = Batch(
            features=np.array(
                [[1.0, 0.0], [0.99, 0.14], [-0.5, 0.87], [-0.6, 0.8], [-0.5, -0.87], [-0.6, -0.8]]
            ),
            labels=np.array([0, 0, 1, 1, 2, 2]),
            task="t",
        )
        swapped = Batch(
            features=np.array([[1.0, 0.0], [0.99, 0.14], [-1.0, 0.0], [-0.99, 0.14]]),
            labels=np.array([0, 1, 0, 1]),
            task="t",
        )
        assert online_accuracy(self.identity, [swapped]) == 0.0
        assert online_accuracy(self.identity, [tight, swapped]) == 0.6


def small_task_data(sizes=(80, 80, 80, 80), seed=5):
    names = [f"t{i}" for i in range(len(sizes))]
    regimes = ["coarse-category", "fine-identity", "intermediate", "intermediate"]
    tasks = tuple(
        TaskGenSpec(
            names[i],
            regimes[i % len(regimes)],
            classes=sizes[i] // 4,
            samples_per_class=4,
            within_class_spread=0.5 if regimes[i % len(regimes)] == "coarse-category" else 0.3,
        )
        for i in range(len(sizes))
    )
    spec = CorpusSpec(tasks=tasks, seed=seed, ambient_dim=8)
    return build_corpus(spec, positives_per_id=2).tasks


def make_trainer(mode, sizes=(80, 80, 80, 80), seed=5, **sched):
    data = small_task_data(sizes, seed)
    params = init_params([8, 12, 6], stream(seed, "init"))
    opt = OptimState.for_params(params, learning_rate=1e-3)
    defaults = dict(
        goals={name: 0.9 for name in data},
        batches_per_task=1,
        probe_batches=1,
    )
    defaults.update(sched)
    return Trainer(
        mode=mode,
        task_data=data,
        params=params,
        opt_state=opt,
        curriculum=CurriculumConfig(**defaults),
        identities=10,
        positives=4,
        margin=0.35,
        seed=seed,
    )


def param_hash(params):
    return hashlib.sha256(params.ravel().tobytes()).hexdigest()


class TestTrainerBalanced:
    def test_constant_allocation_and_single_update(self):
        trainer = make_trainer(BALANCED)
        before = param_hash(trainer.params)
        report = trainer.train_step()
        assert list(report.allocations.values()) == [1, 1, 1, 1]
        assert report.batches_consumed == 4
        assert trainer.opt_state.step == 1
        assert param_hash(trainer.params) != before

    def test_epoch_ends_when_all_exhausted(self):
        trainer = make_trainer(BALANCED)
        trainer.run_epoch()
        # 80 samples per task at P*K = 40 means two steps exhaust everything.
        assert len(trainer.reports) == 2
        final = trainer.reports[-1]
        assert all(final.exhausted.values())

    def test_uneven_sizes_refresh_smaller_task(self):
        trainer = make_trainer(BALANCED, sizes=(80, 160))
        trainer.run_epoch()
        assert len(trainer.reports) == 4
        assert trainer.loaders["t0"].refreshes >= 1

    def test_allocations_identical_every_step(self):
        trainer = make_trainer(BALANCED)
        allocations = [tuple(trainer.train_step().allocations.values()) for _ in range(5)]
        assert len(set(allocations)) == 1

    def test_accuracies_logged_every_step(self):
        trainer = make_trainer(BALANCED)
        report = trainer.train_step()
        assert all(a is not None for a in report.accuracies.values())
        assert all(len(s.metric_log) == 1 for s in trainer.states.values())


    def test_trainer_keeps_every_step_report(self):
        trainer = make_trainer(BALANCED)
        trainer.run_epoch()
        first = list(trainer.reports)
        extra = trainer.train_step({"t0": 2})
        trainer.run_epoch()
        assert len(first) == 2
        assert trainer.reports[:3] == first + [extra]
        assert len(trainer.reports) > 3
        assert [r.step for r in trainer.reports] == list(range(1, len(trainer.reports) + 1))
        assert extra.mode == "blocked"


class TestTrainerAdaptive:
    def test_initial_accuracies_seeded(self):
        trainer = make_trainer(ADAPTIVE, total_batches=4, steps_per_epoch=5)
        assert all(s.metric_log and s.metric_log[0][0] == 0 for s in trainer.states.values())

    def test_allocations_sum_to_total(self):
        trainer = make_trainer(ADAPTIVE, total_batches=6, steps_per_epoch=5)
        for _ in range(8):
            report = trainer.train_step()
            assert report.batches_consumed == 6
            assert trainer.opt_state.step == report.step

    def test_step_budget_epoch(self):
        trainer = make_trainer(ADAPTIVE, total_batches=4, steps_per_epoch=10)
        trainer.run_epoch()
        assert len(trainer.reports) == 10

    def test_missing_step_budget_rejected(self):
        trainer = make_trainer(ADAPTIVE, total_batches=4)
        with pytest.raises(ConfigurationError, match="steps_per_epoch"):
            trainer.run_epoch()

    def test_zero_allocation_reuses_logged_accuracy(self):
        trainer = make_trainer(ADAPTIVE, total_batches=4, steps_per_epoch=30)
        starved_step = None
        starved_task = None
        for _ in range(30):
            report = trainer.train_step()
            zero = [t for t, a in report.allocations.items() if a == 0]
            if zero:
                starved_step, starved_task = report.step, zero[0]
                logged = trainer.states[starved_task].latest_accuracy()
                assert report.accuracies[starved_task] is None
                next_report = trainer.train_step()
                used = next_report.scoring[starved_task].goal_distance
                expected = distance_from_goal(trainer.curriculum.goals[starved_task], logged)
                assert used == expected
                break
        assert starved_step is not None, "30 adaptive steps never starved a task"

    def test_probabilities_respect_floor(self):
        trainer = make_trainer(ADAPTIVE, total_batches=4, steps_per_epoch=5, floor=0.1)
        for _ in range(5):
            report = trainer.train_step()
            probs = [s.probability for s in report.scoring.values()]
            assert min(probs) >= 0.1 - 1e-12
            assert abs(sum(probs) - 1.0) <= 1e-12

    def test_empty_metric_log_is_a_configuration_error(self):
        trainer = make_trainer(ADAPTIVE, total_batches=4, steps_per_epoch=5)
        trainer.states["t0"].metric_log.clear()
        with pytest.raises(ConfigurationError, match="no logged accuracy"):
            trainer.train_step()

    def test_goals_required_for_every_task(self):
        data = small_task_data()
        params = init_params([8, 12, 6], stream(1, "init"))
        opt = OptimState.for_params(params)
        goals = {name: 0.9 for name in data}
        goals.pop("t3")
        with pytest.raises(ConfigurationError, match="t3"):
            Trainer(
                mode=BALANCED,
                task_data=data,
                params=params,
                opt_state=opt,
                curriculum=CurriculumConfig(goals=goals),
                identities=10,
                positives=4,
                margin=0.35,
                seed=1,
            )


class TestTrainerBlocked:
    def test_explicit_allocation_reports_blocked(self):
        trainer = make_trainer(BALANCED)
        report = trainer.train_step({"t1": 2})
        assert report.mode == BLOCKED
        assert report.allocations == {"t0": 0, "t1": 2, "t2": 0, "t3": 0}
        assert report.accuracies["t1"] is not None and report.accuracies["t0"] is None
        assert trainer.opt_state.step == 1
        assert report.to_record()["mode"] == "blocked"

    def test_unknown_task_rejected(self):
        trainer = make_trainer(BALANCED)
        with pytest.raises(ContractError, match="ghost"):
            trainer.train_step({"ghost": 1})

    def test_single_task_trainer(self):
        data = {"t0": small_task_data()["t0"]}
        params = init_params([8, 12, 6], stream(2, "init"))
        trainer = Trainer(
            mode=BALANCED,
            task_data=data,
            params=params,
            opt_state=OptimState.for_params(params),
            curriculum=CurriculumConfig(goals={"t0": 0.9}),
            identities=10,
            positives=4,
            margin=0.35,
            seed=2,
        )
        for allocation in blocked_schedule(["t0"], 6, 2):
            report = trainer.train_step(allocation)
        assert trainer.opt_state.step == 3
        assert report.batches_consumed == 2


class TestGradientCoupling:
    def test_summed_buffer_equals_sum_of_independent_gradients(self):
        from taskweave.datagen import Loader
        from taskweave.encoder import GradBuffer, _forward, backward, batch_hard_triplet, embed

        data = small_task_data()
        params = init_params([8, 12, 6], stream(3, "init"))
        batches = []
        for name, task in data.items():
            loader = Loader(task, stream(11, "loader", name))
            batches.append(loader.next_batch(10, 4)[0])

        coupled = GradBuffer.zeros_like(params)
        for batch in batches:
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, 0.35)
            backward(params, _forward(params, batch.features), grad_emb, coupled)

        independent = np.zeros_like(coupled.ravel())
        for batch in batches:
            solo = GradBuffer.zeros_like(params)
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, 0.35)
            backward(params, _forward(params, batch.features), grad_emb, solo)
            independent = independent + solo.ravel()

        assert coupled.accumulation_count == len(batches)
        np.testing.assert_allclose(coupled.ravel(), independent, rtol=0, atol=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("mode", [BALANCED, ADAPTIVE])
    def test_identical_runs(self, mode):
        kwargs = dict(total_batches=4, steps_per_epoch=4) if mode == ADAPTIVE else {}
        first = make_trainer(mode, **kwargs)
        second = make_trainer(mode, **kwargs)
        records_a = [first.train_step().to_record() for _ in range(4)]
        records_b = [second.train_step().to_record() for _ in range(4)]
        assert records_a == records_b
        assert np.array_equal(first.params.ravel(), second.params.ravel())


class TestStepRecord:
    def test_record_schema(self):
        trainer = make_trainer(BALANCED)
        record = trainer.train_step().to_record()
        assert set(record) == {"step", "mode", "tasks"}
        for entry in record["tasks"].values():
            assert set(entry) == {
                "allocation",
                "loss",
                "accuracy",
                "exhausted",
                "improvement",
                "goal_distance",
                "score",
                "probability",
            }
