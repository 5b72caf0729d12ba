"""Span tracer that wraps the public functions of each taskweave layer.

The package is not modified. Installing a :class:`Tracer` replaces every
listed function with a timing wrapper in *every* ``taskweave`` module
namespace that binds it, because ``curriculum`` and ``experiments`` import
encoder and geometry functions by name and ``sliding_window_probe`` calls
``linear_task_probe`` through the ``geometry`` globals. Methods are wrapped
on their class. Uninstalling restores the original objects.

For each span the tracer keeps the call count, the inclusive time and the
self time (inclusive time minus the time covered by traced child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Layer (module) -> public functions wrapped as spans, named
# "<module>.<function>".
SPANS = {
    "datagen": ["build_corpus", "Loader.next_batch", "Corpus.save"],
    "encoder": [
        "embed",
        "batch_hard_triplet",
        "hardest_distances",
        "backward",
        "adam_step",
        "save_checkpoint",
    ],
    "curriculum": ["Trainer.train_step"],
    "metrics": ["verification_accuracy", "rank_k", "roc_auc", "tar_at_far"],
    "geometry": [
        "linear_task_probe",
        "sliding_window_probe",
        "projection_sweep",
        "principal_angles",
        "pca",
        "task_subspace",
    ],
    "experiments": [
        "build_splits",
        "verification_pair_plan",
        "evaluate_row",
        "geometry_suite",
        "pretrain_encoder",
        "sequential_finetune",
        "run",
        "run_forgetting_comparison",
    ],
}

SPAN_NAMES = [f"{module}.{fn}" for module, fns in SPANS.items() for fn in fns]

TRAIN_STEP = "curriculum.Trainer.train_step"
BACKWARD = "encoder.backward"
EMBED = "encoder.embed"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates spans in memory while installed; use as a context manager."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        # Open spans, innermost last: [name, time covered by child spans].
        self._stack: list[list] = []
        self.backward_in_step = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name == BACKWARD and any(frame[0] == TRAIN_STEP for frame in stack):
                self.backward_in_step += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]

        return span

    def install(self) -> None:
        namespaces = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "taskweave" or mod_name.startswith("taskweave."))
        ]
        for layer, fns in SPANS.items():
            module = sys.modules[f"taskweave.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def counts(self) -> dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}

    def forward_passes_per_batch(self) -> float:
        """(embed calls + backward calls) / backward calls: forward passes
        paid per training batch, accuracy and evaluation passes included."""
        backward = self.stats[BACKWARD].calls
        return (self.stats[EMBED].calls + backward) / backward

    def batches_per_s(self) -> float:
        """Backward calls made inside train steps per second of inclusive
        train-step time."""
        return self.backward_in_step / self.stats[TRAIN_STEP].total_s
