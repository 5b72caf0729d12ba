"""End-to-end and per-layer benchmark for the taskweave pipelines.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 72025 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``). ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics. Both check
every iteration's artifacts. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the machine facts and a readable table.

The workload runs in a child process (one client, closed loop) that imports
the package from ``src`` with BLAS pinned to one thread. Set-up time is the
median over several fresh interpreters of the time to imports done and
config validated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Every worker must have ended this long after the benchmark started.
TIME_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(
    args, workdir: Path, setup_only: bool, deadline: float
) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time (spawn to 'ready')."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker, killing it past the deadline; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(report: dict, setups: list[float]) -> dict:
    return {
        "wall_s": metric(statistics.median(report["walls"]), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
    }


def per_layer(report: dict) -> dict:
    metrics = {}
    for name, span in report["spans"].items():
        metrics[f"{name}.self_s"] = metric(span["self_s"], "s")
        metrics[f"{name}.calls"] = metric(span["calls"], "count")
    metrics["encoder.forward_passes_per_batch"] = metric(report["forward_passes_per_batch"], "ratio")
    metrics["curriculum.batches_per_s"] = metric(report["batches_per_s"], "1/s")
    metrics["trace.overhead_s"] = metric(report["overhead_s"], "s")
    return metrics


def layer_table(report: dict) -> list[dict]:
    """Spans by self time, each with its share of the traced wall time."""
    traced = statistics.median(report["traced_walls"])
    rows = [
        {"span": name, **span, "share": span["self_s"] / traced}
        for name, span in report["spans"].items()
    ]
    return sorted(rows, key=lambda r: -r["self_s"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="pipeline, forgetting or scale-scores")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full report as JSON here")
    args = parser.parse_args()

    if not (ROOT / "src" / "taskweave" / "__init__.py").is_file():
        print(f"error: no taskweave package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / ".work"
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, workdir, setup_only=True, deadline=deadline)
            finish(proc, deadline)
            setups.append(setup)
        proc, setup = start_worker(args, workdir, setup_only=False, deadline=deadline)
        setups.append(setup)
        report = json.loads(finish(proc, deadline).splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = report["attempted"]
    failed = len(report["failures"])
    metrics = per_layer(report) if args.trace else end_to_end(report, setups)
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {attempted}  error_rate {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        full = dict(report, workload=args.workload, seed=args.seed, setup_s=setups, metrics=metrics)
        if args.trace:
            full["layers"] = layer_table(report)
            del full["spans"]
        args.out.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
