"""Tracer coverage: run from the repository root with

    python3 -m pytest perfbench/test_tracer.py -q

Each workload runs once untraced and twice traced (about a minute in all).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import SPAN_NAMES, Tracer  # noqa: E402
from worker import EXPECTED_SPANS, WORKLOADS, Loop, tree_digest  # noqa: E402


def test_interaction_list_names_every_span():
    assert sorted(EXPECTED_SPANS) == sorted(SPAN_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_coverage(workload, tmp_path):
    loop = Loop(workload, seed=72025, outdir=tmp_path / workload)
    loop.iterate()
    untraced = tree_digest(loop.outdir)
    tracers = [Tracer(), Tracer()]
    digests = []
    for tracer in tracers:
        loop.iterate(tracer)
        digests.append(tree_digest(loop.outdir))
    assert loop.failures == {}

    fired = {name for name, calls in tracers[0].counts().items() if calls > 0}
    expected = {name for name, where in EXPECTED_SPANS.items() if workload in where}
    assert fired == expected

    assert digests == [untraced, untraced]

    assert tracers[0].counts() == tracers[1].counts()
    assert tracers[0].forward_passes_per_batch() == tracers[1].forward_passes_per_batch()


def test_uninstall_restores_the_package(tmp_path):
    from taskweave import curriculum, experiments, geometry

    before = (experiments.embed, geometry.linear_task_probe, curriculum.Trainer.train_step)
    with Tracer():
        assert experiments.embed is not before[0]
        assert geometry.linear_task_probe is not before[1]
    assert (experiments.embed, geometry.linear_task_probe, curriculum.Trainer.train_step) == before
