"""Command-line entry points.

``gen``, ``train`` and ``compare-forgetting`` take a JSON config (the
built-in benchmark config is used when none is given) plus optional seed /
output-dir overrides. ``eval`` and ``analyze`` take a finished run's
directory and read the config, the corpora and the checkpoint from it.
Each command writes only its own tree, its ``summary.json`` last.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .config import ExperimentConfig, default_config
from .errors import NumericError, TaskweaveError, ValidationError

VALIDATION_EXIT = 2
NUMERIC_EXIT = 3


def _load_config(config_path) -> ExperimentConfig:
    return ExperimentConfig.from_file(config_path) if config_path else default_config()


class _Commands(click.Group):
    """Every command's ``TaskweaveError`` ends the process with its exit
    status: 3 for a ``NumericError``, else 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TaskweaveError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(NUMERIC_EXIT if isinstance(exc, NumericError) else VALIDATION_EXIT)


config_option = click.option(
    "--config", "-c", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
    help="JSON experiment config (defaults to the built-in benchmark).",
)
seed_option = click.option("--seed", type=int, default=None, help="Override the master seed.")
output_option = click.option(
    "--output", "-o", "output_dir", type=click.Path(file_okay=False), default=None,
    help="Override the output directory.",
)
run_argument = click.argument(
    "run_dir", metavar="RUN", type=click.Path(exists=True, file_okay=False)
)
checkpoint_option = click.option(
    "--checkpoint", type=click.Path(exists=True, dir_okay=False), default=None,
    help="Parameters to use (defaults to RUN/checkpoints/encoder_final.npz).",
)


@click.group(cls=_Commands)
def main() -> None:
    """Interleaved multi-task metric-learning lab."""


@main.command()
@config_option
@seed_option
@output_option
def gen(config_path, seed, output_dir) -> None:
    """Generate and export the train/eval corpora. Writes ``corpus/`` and
    ``corpus_eval/``, then ``summary.json`` last. Refuses a directory
    whose ``summary.json`` another command wrote."""
    from .artifacts import SUMMARY, RunResult
    from .experiments import build_splits, overridden

    config = overridden(_load_config(config_path), seed, output_dir)
    out = RunResult(config.output_dir)
    previous = out.output_dir / SUMMARY
    try:
        owner = json.loads(previous.read_text()).get("command") if previous.exists() else "gen"
    except (ValueError, AttributeError):
        owner = None
    if owner != "gen":
        raise ValidationError(f"{out.output_dir} holds another command's {SUMMARY}")
    out.start()
    train, held_out = build_splits(config)
    train.save(out, "corpus")
    held_out.save(out, "corpus_eval")
    samples = {"train": train.n_samples, "eval": held_out.n_samples}
    out.finish(config.seed, {"samples": samples}, command="gen")
    click.echo(
        f"corpus: {train.n_samples} train / {held_out.n_samples} eval samples -> {out.output_dir}"
    )


@main.command()
@config_option
@seed_option
@output_option
def train(config_path, seed, output_dir) -> None:
    """Run the configured experiment end to end (corpus, training, suites).
    Refuses a run that ``eval`` or ``analyze`` scored."""
    from .experiments import run

    result = run(_load_config(config_path), seed=seed, output_dir=output_dir)
    click.echo(f"run complete -> {result.output_dir / 'summary.json'}")


def _score_run(run_dir, checkpoint, command: str, suite: str) -> dict:
    """Run ``suite`` on a run's checkpoint and corpora into ``RUN/<command>/``,
    its ``summary.json`` last, by the code the run scored itself with."""
    from .artifacts import RunResult
    from .experiments import encoder_embedder, load_run, score_suites
    from .scoring import class_centroids

    config, *splits, params, ckpt = load_run(run_dir, checkpoint)
    embedder = encoder_embedder(params)
    # Each split is handed on unnamed, so it lives only while it is read:
    # the scores read the train split's centroids alone, and scoring holds
    # the eval split.
    centroids = class_centroids(embedder, splits.pop(0))
    out = RunResult(Path(run_dir) / command)
    out.start()
    floored = score_suites(out, config, [suite], centroids, splits.pop(), embedder)
    fields = {"floored_cells": floored} if suite == "scores" else {}
    results = out.results[suite]
    out.finish(config.seed, results, command=command, checkpoint=str(ckpt), **fields)
    return results


@main.command("eval")
@run_argument
@checkpoint_option
def eval_cmd(run_dir, checkpoint) -> None:
    """Score a run's checkpoint on the run's own corpora. Writes
    ``RUN/eval/tables/metrics.csv``, then ``RUN/eval/summary.json`` last."""
    row = _score_run(run_dir, checkpoint, "eval", "scores")
    for column, value in row.items():
        click.echo(f"{column}: {value:.4f}")
    click.echo(f"table -> {Path(run_dir) / 'eval' / 'tables' / 'metrics.csv'}")


@main.command()
@run_argument
@checkpoint_option
def analyze(run_dir, checkpoint) -> None:
    """Run the embedding-geometry suite on a run's checkpoint and eval
    corpus. Writes ``RUN/analyze/geometry/``, then
    ``RUN/analyze/summary.json`` last."""
    summary = _score_run(run_dir, checkpoint, "analyze", "geometry")
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.command("compare-forgetting")
@config_option
@seed_option
@output_option
def compare_forgetting(config_path, seed, output_dir) -> None:
    """Pretrain, then compare sequential vs interleaved fine-tuning.
    Refuses a run that ``eval`` or ``analyze`` scored."""
    from .experiments import run_forgetting_comparison

    config = _load_config(config_path)
    result = run_forgetting_comparison(config, seed=seed, output_dir=output_dir)
    for name, stats in result.results["models"].items():
        click.echo(
            f"{name}: pretrain-task drop {stats['pretrain_task_drop']:+.4f}, "
            f"multitask index {stats['multitask_index_expert']:+.4f}"
        )
    click.echo(f"report -> {result.output_dir / 'forgetting_report.json'}")


@main.command("score-table")
@click.option("--table", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Score table CSV (defaults to the bundled benchmark table).")
@click.option("--mode", type=click.Choice(["expert", "human"]), default="expert")
@click.option("--human-refs", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON mapping column -> human reference (human mode).")
def score_table(table, mode, human_refs) -> None:
    """Rank a score table by multi-task index."""
    from .experiments import bundled_reference_table, load_human_references, score_paper_table

    table_path = Path(table) if table else bundled_reference_table()
    refs = load_human_references(human_refs) if human_refs else None
    ranking = score_paper_table(table_path, mode, refs)
    for rank, (model, index) in enumerate(ranking, start=1):
        click.echo(f"{rank:2d}. {model:20s} {index:+.5f}")


if __name__ == "__main__":
    main()
