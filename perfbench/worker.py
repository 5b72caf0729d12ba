"""Workload process: runs one pipeline in a closed loop and checks each
iteration's artifacts.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS pinned to one thread. It prints ``ready`` once the imports are done
and the workload config is validated (the end of set-up), then, unless
``--setup-only`` is given, iterates until ``--seconds`` have passed and
prints one JSON line with the timings, the failures and the peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from taskweave import experiments
from taskweave.config import ExperimentConfig, default_config

from tracer import Tracer

WORKLOADS = ("pipeline", "forgetting", "scale-scores")

# Spans each workload must fire at least once. Everything not listed for a
# workload is predicted never to run there.
ALL_WORKLOADS = set(WORKLOADS)
EXPECTED_SPANS = {
    "datagen.build_corpus": ALL_WORKLOADS,
    "datagen.Loader.next_batch": ALL_WORKLOADS,
    "datagen.Corpus.save": {"pipeline", "scale-scores"},
    "encoder.embed": ALL_WORKLOADS,
    "encoder.batch_hard_triplet": ALL_WORKLOADS,
    "encoder.hardest_distances": ALL_WORKLOADS,
    "encoder.backward": ALL_WORKLOADS,
    "encoder.adam_step": ALL_WORKLOADS,
    "encoder.save_checkpoint": ALL_WORKLOADS,
    "curriculum.Trainer.train_step": ALL_WORKLOADS,
    "metrics.verification_accuracy": ALL_WORKLOADS,
    "metrics.rank_k": ALL_WORKLOADS,
    "metrics.roc_auc": ALL_WORKLOADS,
    "metrics.tar_at_far": ALL_WORKLOADS,
    "geometry.linear_task_probe": {"pipeline"},
    "geometry.sliding_window_probe": {"pipeline"},
    "geometry.projection_sweep": {"pipeline"},
    "geometry.principal_angles": {"pipeline"},
    "geometry.pca": {"pipeline"},
    "geometry.task_subspace": {"pipeline"},
    "experiments.build_splits": ALL_WORKLOADS,
    "experiments.verification_pair_plan": ALL_WORKLOADS,
    "experiments.evaluate_row": ALL_WORKLOADS,
    "experiments.geometry_suite": {"pipeline"},
    "experiments.pretrain_encoder": {"forgetting"},
    "experiments.sequential_finetune": {"forgetting"},
    "experiments.run": {"pipeline", "scale-scores"},
    "experiments.run_forgetting_comparison": {"forgetting"},
}


# Workloads whose config takes the benchmark seed as its master seed. The
# other two run the stock config at its stock master seed: their cost and
# their acceptance criteria depend on the master seed (see README.md).
SEEDED = {"scale-scores"}


def build_config(workload: str, seed: int, output_dir: Path) -> ExperimentConfig:
    """A fresh, validated config; never reused across iterations because the
    pipelines write ``config.seed``."""
    if workload in SEEDED:
        config = default_config(output_dir=str(output_dir), seed=seed)
    else:
        config = default_config(output_dir=str(output_dir))
    if workload == "scale-scores":
        config.tasks = [
            dataclasses.replace(t, samples_per_class=4 * t.samples_per_class)
            for t in config.tasks
        ]
        config.evaluation.verification_pairs = 6000
        config.evaluation.suites = ["scores"]
        config.curriculum.mode = "adaptive"
        config.curriculum.steps_per_epoch = 100
        config.training.epochs = 3
    config.validate()
    return config


def execute(workload: str, config: ExperimentConfig) -> experiments.RunResult:
    # Looked up on the module at call time so an installed tracer sees it.
    if workload == "forgetting":
        return experiments.run_forgetting_comparison(config)
    return experiments.run(config)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _non_finite(value, where: str) -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"non-finite {where} = {value!r}"]
    return []


def check(workload: str, outdir: Path, result: experiments.RunResult) -> list[str]:
    """Problems with one iteration's outputs; empty when it is correct."""
    report_file = "forgetting_report.json" if workload == "forgetting" else "summary.json"
    report = json.loads((outdir / report_file).read_text())
    manifest = result.artifacts if workload == "forgetting" else report["artifacts"]
    problems = [f"missing artifact {a}" for a in manifest if not (outdir / a).is_file()]
    problems += _non_finite(report, report_file)
    if workload == "forgetting":
        models = report["models"]
        seq, bal, ada = (
            models[m] for m in ("sequential", "interleaved-balanced", "interleaved-adaptive")
        )
        if seq["pretrain_task_drop"] < 2.0 * bal["pretrain_task_drop"]:
            problems.append("criterion 6: sequential drop below 2x the balanced drop")
        for m in (bal, ada):
            if not m["multitask_index_expert"] > seq["multitask_index_expert"]:
                problems.append("criterion 6: interleaved expert index not above sequential")
    elif workload == "pipeline":
        acc = report["results"]["geometry"]["task_probe_accuracy_mean"]
        if acc < 0.95:
            problems.append(f"criterion 7: task_probe_accuracy_mean {acc} < 0.95")
    return problems


def machine_facts() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


class Loop:
    """One client, closed loop: each iteration starts after the last ends,
    on a freshly cleared output directory."""

    def __init__(self, workload: str, seed: int, outdir: Path):
        self.workload = workload
        self.seed = seed
        self.outdir = outdir
        self.reference: str | None = None
        self.attempted = 0
        # Failed iteration number -> what went wrong.
        self.failures: dict[int, list[str]] = {}

    def fail(self, problem: str) -> None:
        self.failures.setdefault(self.attempted, []).append(problem)

    def iterate(self, tracer: Tracer | None = None) -> float:
        """Run one iteration; return its wall time in seconds."""
        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        config = build_config(self.workload, self.seed, self.outdir)
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = execute(self.workload, config)
            else:
                with tracer:
                    result = execute(self.workload, config)
        except Exception:
            elapsed = time.perf_counter() - start
            self.fail(f"raised:\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            problems = check(self.workload, self.outdir, result)
            digest = tree_digest(self.outdir)
        except Exception:
            problems, digest = [f"check raised:\n{traceback.format_exc()}"], None
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("artifacts differ from the first iteration")
        for problem in problems:
            self.fail(problem)
        return elapsed


def measure(loop: Loop, seconds: float) -> dict:
    """Untraced iterations until the next one would pass the deadline."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        walls.append(loop.iterate())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {"walls": walls}


def measure_traced(loop: Loop, seconds: float) -> dict:
    """Alternate untraced and traced iterations; per-span self times are
    medians over the traced ones, call counts must repeat exactly."""
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        plain.append(loop.iterate())
        tracer = Tracer()
        traced.append(loop.iterate(tracer))
        tracers.append(tracer)
        if tracer.counts() != tracers[0].counts():
            loop.fail("span call counts differ from the first traced iteration")
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break
    first = tracers[0]
    spans = {
        name: {
            "calls": stats.calls,
            "self_s": statistics.median(t.stats[name].self_s for t in tracers),
            "total_s": statistics.median(t.stats[name].total_s for t in tracers),
        }
        for name, stats in first.stats.items()
    }
    return {
        "walls": plain,
        "traced_walls": traced,
        "spans": spans,
        "forward_passes_per_batch": first.forward_passes_per_batch(),
        "batches_per_s": statistics.median(t.batches_per_s() for t in tracers),
        "overhead_s": statistics.median(traced) - statistics.median(plain),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    outdir = args.workdir / args.workload
    build_config(args.workload, args.seed, outdir)
    print("ready", flush=True)
    if args.setup_only:
        return

    loop = Loop(args.workload, args.seed, outdir)
    if args.trace:
        report = measure_traced(loop, args.seconds)
    else:
        report = measure(loop, args.seconds)
    shutil.rmtree(outdir, ignore_errors=True)
    report.update(
        attempted=loop.attempted,
        failures=loop.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_facts(),
    )
    for iteration, problems in loop.failures.items():
        for problem in problems:
            print(f"iteration {iteration} failed: {problem}", file=sys.stderr)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
