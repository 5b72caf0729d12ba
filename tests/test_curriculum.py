"""Scheduler formulas, two-stage normalization, and trainer behavior."""

import gc
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskweave.artifacts import RunResult
from taskweave.curriculum import (
    ADAPTIVE,
    BALANCED,
    BLOCKED,
    Trainer,
    blocked_schedule,
    distance_from_goal,
    relative_improvement,
    sample_allocation,
    task_scores_to_probabilities,
)
from taskweave.config import BatchConfig, CurriculumConfig, ExperimentConfig, OptimizerConfig
from taskweave.datagen import CorpusSpec, TaskData, TaskGenSpec, build_corpus
from taskweave.encoder import EncoderParams, embed, init_params
from taskweave.errors import ContractError, ValidationError
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
        with pytest.raises(ContractError, match="floor"):
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


def numpy_probabilities(scores, floor):
    """``task_scores_to_probabilities`` as it was written in numpy, checks
    left out, with the number of pinning rounds it took."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    total = scores.sum()
    p_hat = np.full(n, 1.0 / n) if total == 0 else scores / total
    pinned = p_hat < floor
    rounds = 1
    while True:
        mass = 1.0 - floor * pinned.sum()
        unpinned_share = p_hat[~pinned].sum()
        p = np.where(pinned, floor, p_hat * (mass / unpinned_share))
        newly = ~pinned & (p < floor)
        if not newly.any():
            return p, rounds
        pinned |= newly
        rounds += 1


def numpy_allocation(probabilities, total, rng):
    """``sample_allocation`` as it was written in numpy, checks left out."""
    p = np.asarray(probabilities, dtype=np.float64)
    return rng.multinomial(total, p / p.sum())


def scheduler_cases():
    """(scores, floor) for 2 to 20 tasks: all zeros, and stage-1 shares
    near the floor at score scales from 1e-3 to 1e7, so that pinning some
    tasks pushes others below the floor over several rounds."""
    meta = np.random.default_rng(33)
    for n in range(2, 21):
        yield [0.0] * n, 0.5 / n
        yield [-0.0] * (n - 1) + [2.5], 0.9 / n
        for _ in range(150):
            floor = float(meta.uniform(0, 1 / n))
            scores = floor * meta.uniform(0.5, 1.5, size=n)
            scores[meta.integers(n)] += meta.exponential()
            scores *= 10.0 ** meta.integers(-3, 8)
            yield scores.tolist(), floor


class TestFloatScheduler:
    """The scheduler runs on Python floats; every probability and every
    allocation must be the numpy code's, bit for bit."""

    def test_probabilities_and_allocations_are_the_numpy_ones(self):
        rounds_seen, tasks_seen = set(), set()
        for case, (scores, floor) in enumerate(scheduler_cases()):
            expected, rounds = numpy_probabilities(scores, floor)
            p = task_scores_to_probabilities(scores, floor)
            assert p.dtype == np.float64
            assert p.tobytes() == expected.tobytes(), (scores, floor)
            by_floats, by_numpy = stream(case, "allocation"), stream(case, "allocation")
            total = len(scores) + case % 7
            alloc = sample_allocation(p.tolist(), total, by_floats)
            assert np.array_equal(alloc, numpy_allocation(expected, total, by_numpy))
            assert by_floats.bit_generator.state == by_numpy.bit_generator.state
            rounds_seen.add(rounds)
            tasks_seen.add(len(scores))
        # Cascades of up to three further pinning rounds; numpy sums 8 and
        # more values pairwise.
        assert rounds_seen >= {1, 2, 3, 4}
        assert tasks_seen == set(range(2, 21))

    def test_the_iterative_cascade(self):
        # 0.101 is above the floor until 0.049 is pinned and takes its mass.
        scores, floor = [0.85, 0.101, 0.049], 0.1
        expected, rounds = numpy_probabilities(scores, floor)
        assert rounds == 2
        assert task_scores_to_probabilities(scores, floor).tobytes() == expected.tobytes()

    def test_a_sum_beyond_float_range_is_rejected(self):
        # Each score is finite but their total is not; the numpy code gave
        # every task the floor here, with a RuntimeWarning, and the
        # allocation then failed.
        with pytest.raises(ContractError, match="finite sum"):
            task_scores_to_probabilities([1e308] * 4, 0.05)


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


def trainer_config(curriculum, identities=10, positives=4, **optimizer):
    """An unvalidated experiment config that sets only what a Trainer reads:
    the schedule, the batch shape and the optimizer (the margin is 0.35)."""
    return ExperimentConfig(
        seed=0,
        output_dir="unused",
        tasks=[],
        ambient_dim=0,
        batch=BatchConfig(identities, positives),
        curriculum=curriculum,
        optimizer=OptimizerConfig(**optimizer),
    )


class TestSeedPass:
    """The adaptive trainer's step-0 accuracy of a task is the number of
    anchors whose hardest positive is nearer than their hardest negative,
    counted over the task's whole stack of probe batches, divided by the
    stack's rows."""

    identity = EncoderParams(weights=[np.eye(2)], biases=[np.zeros(2)])

    def seeded(self, features, labels, identities, positives):
        """The step-0 accuracy of a one-task adaptive trainer on the given
        samples."""
        data = {"t": TaskData("t", "fine-identity", np.array(features), np.array(labels))}
        curriculum = CurriculumConfig(goals={"t": 0.9}, probe_batches=3)
        config = trainer_config(curriculum, identities, positives, learning_rate=1e-3)
        trainer = Trainer(config, ADAPTIVE, data, self.identity, seed=1)
        (step, accuracy), = trainer.states["t"].metric_log
        assert step == 0
        return accuracy

    # A probe batch of P identities with K samples each holds every sample
    # of these tasks, so its count does not depend on the draw.
    def test_every_anchor_satisfied(self):
        features = [[1.0, 0.0], [0.99, 0.14], [-0.5, 0.87], [-0.6, 0.8], [-0.5, -0.87], [-0.6, -0.8]]
        assert self.seeded(features, [0, 0, 1, 1, 2, 2], 3, 2) == 1.0

    def test_every_anchor_violated(self):
        features = [[1.0, 0.0], [0.99, 0.14], [-1.0, 0.0], [-0.99, 0.14]]
        assert self.seeded(features, [0, 1, 0, 1], 2, 2) == 0.0

    def test_count_over_the_probe_stack(self):
        trainer = small_trainer(ADAPTIVE, probe_batches=3)
        for name, data in trainer.task_data.items():
            rng = stream(trainer.seed, "probe", name)
            satisfied = rows = 0
            for _ in range(3):
                batch = trainer._probe_batch(data, rng)
                emb = embed(trainer.params, batch.features)
                dist = np.linalg.norm(emb[:, None] - emb[None], axis=-1)
                same = batch.labels[:, None] == batch.labels[None]
                d_pos = np.where(same, dist, -np.inf).max(axis=1)
                d_neg = np.where(same, np.inf, dist).min(axis=1)
                satisfied += int((d_pos < d_neg).sum())
                rows += batch.labels.size
            assert rows == 3 * 10 * 4
            assert trainer.states[name].metric_log == [(0, satisfied / rows)]


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


def small_trainer(mode, sizes=(80, 80, 80, 80), seed=5, trace=None, **sched):
    data = small_task_data(sizes, seed)
    params = init_params([8, 12, 6], stream(seed, "init"))
    defaults = dict(
        goals={name: 0.9 for name in data},
        batches_per_task=1,
        probe_batches=1,
    )
    defaults.update(sched)
    config = trainer_config(CurriculumConfig(**defaults), learning_rate=1e-3)
    return Trainer(config, mode, data, params, seed, trace=trace)


def param_hash(params):
    return hashlib.sha256(params.flat.tobytes()).hexdigest()


def allocations(record):
    """A step record's batches per task, in task order."""
    return {name: task["allocation"] for name, task in record["tasks"].items()}


def batches_spent(record):
    return sum(allocations(record).values())


class TestTrainerBalanced:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match="unknown curriculum mode 'blocked'"):
            small_trainer("blocked")

    def test_constant_allocation_and_single_update(self):
        trainer = small_trainer(BALANCED)
        before = param_hash(trainer.params)
        report = trainer.train_step()
        assert allocations(report) == {"t0": 1, "t1": 1, "t2": 1, "t3": 1}
        assert batches_spent(report) == 4
        assert trainer.opt_state.step == 1
        assert param_hash(trainer.params) != before

    def test_uneven_sizes_refresh_smaller_task(self):
        # A step draws one batch of P*K = 40 per task, and a loader's cursor
        # reads 0 after the draw that ends its pass: the 80-sample task ends
        # a pass every two steps, the 160-sample task every four.
        trainer = small_trainer(BALANCED, sizes=(80, 160))
        passes = dict.fromkeys(trainer.task_names, 0)
        for _ in range(4):
            trainer.train_step()
            for name, loader in trainer.loaders.items():
                passes[name] += loader.cursor == 0
        assert passes == {"t0": 2, "t1": 1}

    def test_allocations_identical_every_step(self):
        trainer = small_trainer(BALANCED)
        steps = [tuple(allocations(trainer.train_step()).values()) for _ in range(5)]
        assert len(set(steps)) == 1

    def test_accuracies_logged_every_step(self):
        trainer = small_trainer(BALANCED)
        report = trainer.train_step()
        assert all(task["accuracy"] is not None for task in report["tasks"].values())
        assert all(len(s.metric_log) == 1 for s in trainer.states.values())


    def test_trace_takes_every_step_record(self):
        records = []
        trainer = small_trainer(BALANCED, trace=records.append)
        for _ in range(2):
            trainer.train_step()
        first = list(records)
        extra = trainer.train_step({"t0": 2})
        for _ in range(2):
            trainer.train_step()
        assert len(first) == 2
        assert records[:3] == first + [extra]
        assert len(records) == trainer.step == 5
        assert [r["step"] for r in records] == list(range(1, len(records) + 1))
        assert trainer.batches == sum(batches_spent(r) for r in records)
        assert extra["mode"] == "blocked"

    @pytest.mark.parametrize("mode", [BALANCED, ADAPTIVE])
    def test_trainer_keeps_no_records(self, mode):
        # The records go to the sink as JSON text; once the steps are over,
        # no step record may be alive anywhere, the trainer included.
        lines = []
        trainer = small_trainer(mode, trace=lambda r: lines.append(json.dumps(r)))
        for _ in range(6):
            trainer.train_step()
        trainer.train_step({"t0": 1})
        gc.collect()
        record_keys = {"step", "mode", "tasks"}
        alive = [o for o in gc.get_objects() if isinstance(o, dict) and set(o) == record_keys]
        assert alive == []
        assert len(lines) == trainer.step > 1
        assert trainer.batches == sum(
            t["allocation"] for line in lines for t in json.loads(line)["tasks"].values()
        )


class TestTrainerAdaptive:
    def test_initial_accuracies_seeded(self):
        trainer = small_trainer(ADAPTIVE)
        assert all(s.metric_log and s.metric_log[0][0] == 0 for s in trainer.states.values())

    def test_allocations_sum_to_total(self):
        # The group is tasks × batches_per_task, a balanced step's batches.
        trainer = small_trainer(ADAPTIVE, batches_per_task=2)
        for _ in range(8):
            report = trainer.train_step()
            assert batches_spent(report) == 8
            assert trainer.opt_state.step == report["step"]

    def test_zero_allocation_reuses_logged_accuracy(self):
        trainer = small_trainer(ADAPTIVE)
        starved_step = None
        starved_task = None
        for _ in range(30):
            report = trainer.train_step()
            zero = [t for t, a in allocations(report).items() if a == 0]
            if zero:
                starved_step, starved_task = report["step"], zero[0]
                logged = trainer.states[starved_task].metric_log[-1][1]
                assert report["tasks"][starved_task]["accuracy"] is None
                next_report = trainer.train_step()
                used = next_report["tasks"][starved_task]["goal_distance"]
                expected = distance_from_goal(trainer.curriculum.goals[starved_task], logged)
                assert used == expected
                break
        assert starved_step is not None, "30 adaptive steps never starved a task"

    def test_probabilities_respect_floor(self):
        trainer = small_trainer(ADAPTIVE, floor=0.1)
        for _ in range(5):
            report = trainer.train_step()
            probs = [task["probability"] for task in report["tasks"].values()]
            assert min(probs) >= 0.1 - 1e-12
            assert abs(sum(probs) - 1.0) <= 1e-12

    def test_empty_metric_log_is_a_contract_error(self):
        trainer = small_trainer(ADAPTIVE)
        trainer.states["t0"].metric_log.clear()
        with pytest.raises(ContractError, match="no logged accuracy"):
            trainer.train_step()

    def test_goals_required_for_every_task(self):
        data = small_task_data()
        params = init_params([8, 12, 6], stream(1, "init"))
        goals = {name: 0.9 for name in data}
        goals.pop("t3")
        with pytest.raises(ValidationError, match=r"config.curriculum.goals .*'t3'"):
            Trainer(trainer_config(CurriculumConfig(goals=goals)), BALANCED, data, params, seed=1)


class TestTrainerBlocked:
    def test_explicit_allocation_reports_blocked(self):
        trainer = small_trainer(BALANCED)
        report = trainer.train_step({"t1": 2})
        assert report["mode"] == BLOCKED == "blocked"
        assert allocations(report) == {"t0": 0, "t1": 2, "t2": 0, "t3": 0}
        tasks = report["tasks"]
        assert tasks["t1"]["accuracy"] is not None and tasks["t0"]["accuracy"] is None
        assert trainer.opt_state.step == 1

    def test_unknown_task_rejected(self):
        trainer = small_trainer(BALANCED)
        with pytest.raises(ContractError, match="ghost"):
            trainer.train_step({"ghost": 1})

    def test_single_task_trainer(self):
        data = {"t0": small_task_data()["t0"]}
        params = init_params([8, 12, 6], stream(2, "init"))
        config = trainer_config(CurriculumConfig(goals={"t0": 0.9}))
        trainer = Trainer(config, BALANCED, data, params, seed=2)
        for allocation in blocked_schedule(["t0"], 6, 2):
            report = trainer.train_step(allocation)
        assert trainer.opt_state.step == 3
        assert batches_spent(report) == 2


class TestFreshOptimizer:
    def test_new_trainer_on_trained_params_starts_fresh(self):
        data = small_task_data()
        params = init_params([8, 12, 6], stream(4, "init"))
        hyper = dict(learning_rate=1e-3, beta1=0.8, beta2=0.99, epsilon=1e-7, weight_decay=0.0)
        config = trainer_config(CurriculumConfig(goals=dict.fromkeys(data, 0.9)), **hyper)
        trained = Trainer(config, BALANCED, data, params, seed=4)
        for _ in range(3):
            trained.train_step()
        assert trained.opt_state.step == 3 and trained.opt_state.m.any()

        fresh = Trainer(config, BALANCED, data, trained.params, seed=4).opt_state
        assert fresh is not trained.opt_state
        assert fresh.step == 0
        assert fresh.m.shape == fresh.v.shape == params.flat.shape
        assert not fresh.m.any() and not fresh.v.any()
        assert {name: getattr(fresh, name) for name in hyper} == vars(config.optimizer) == hyper
        assert trained.opt_state.step == 3


class TestGradientCoupling:
    def test_summed_buffer_equals_sum_of_independent_gradients(self):
        from taskweave.datagen import Loader
        from taskweave.encoder import GradBuffer, _forward, backward, batch_hard_triplet, embed

        data = small_task_data()
        params = init_params([8, 12, 6], stream(3, "init"))
        batches = []
        for name, task in data.items():
            loader = Loader(task, stream(11, "loader", name))
            batches.append(loader.next_batch(10, 4))

        coupled = GradBuffer.zeros_like(params)
        for batch in batches:
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, 0.35)
            backward(params, _forward(params, batch.features), grad_emb, coupled)

        independent = np.zeros_like(coupled.flat)
        for batch in batches:
            solo = GradBuffer.zeros_like(params)
            emb = embed(params, batch.features)
            _, grad_emb = batch_hard_triplet(emb, batch.labels, 0.35)
            backward(params, _forward(params, batch.features), grad_emb, solo)
            independent = independent + solo.flat

        assert coupled.accumulation_count == len(batches)
        np.testing.assert_allclose(coupled.flat, independent, rtol=0, atol=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("mode", [BALANCED, ADAPTIVE])
    def test_identical_runs(self, mode):
        first = small_trainer(mode)
        second = small_trainer(mode)
        records_a = [first.train_step() for _ in range(4)]
        records_b = [second.train_step() for _ in range(4)]
        assert records_a == records_b
        assert np.array_equal(first.params.flat, second.params.flat)


class TestStepRecord:
    def test_record_schema(self):
        trainer = small_trainer(BALANCED)
        record = trainer.train_step()
        assert set(record) == {"step", "mode", "tasks"}
        for entry in record["tasks"].values():
            assert set(entry) == {
                "allocation",
                "loss",
                "accuracy",
                "improvement",
                "goal_distance",
                "score",
                "probability",
            }

    @pytest.mark.parametrize(
        "mode, allocation",
        [(BALANCED, None), (ADAPTIVE, None), (BALANCED, {"t1": 2, "t3": 1})],
        ids=["balanced", "adaptive", "blocked"],
    )
    def test_the_step_returns_its_trace_line(self, tmp_path, mode, allocation):
        out = RunResult(tmp_path)
        with out.stream("trace.jsonl") as trace:
            trainer = small_trainer(mode, trace=trace)
            records = [trainer.train_step(allocation) for _ in range(3)]
        assert [r["mode"] for r in records] == [BLOCKED if allocation else mode] * 3
        scored = [task["probability"] is not None for task in records[0]["tasks"].values()]
        assert all(scored) if mode == ADAPTIVE and not allocation else not any(scored)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert typed([json.loads(line) for line in lines]) == typed(records)
        # The forked fine-tunes send their records back pickled.
        assert typed(pickle.loads(pickle.dumps(records))) == typed(records)


def typed(value):
    """``value`` with every leaf paired with its type, so that equality
    also tells a numpy float or an int from a Python float."""
    if isinstance(value, dict):
        return {key: typed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    return type(value), value
