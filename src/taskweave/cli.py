"""Command-line entry points.

Every subcommand takes a JSON config (the built-in benchmark config is used
when none is given) plus optional seed / output-dir overrides.
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


def _load_config(config_path, seed, output_dir) -> ExperimentConfig:
    """The config with the command-line overrides applied, then validated."""
    config = ExperimentConfig.from_file(config_path) if config_path else default_config()
    if seed is not None:
        config.seed = seed
    if output_dir is not None:
        config.output_dir = str(output_dir)
    config.validate()
    return config


def _fail(exc: TaskweaveError) -> None:
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


@click.group()
def main() -> None:
    """Interleaved multi-task metric-learning lab."""


@main.command()
@config_option
@seed_option
@output_option
def gen(config_path, seed, output_dir) -> None:
    """Generate and export the train/eval corpora."""
    from .experiments import RunResult, build_splits

    try:
        config = _load_config(config_path, seed, output_dir)
        train, held_out = build_splits(config)
        outdir = Path(config.output_dir)
        train.save(RunResult(outdir), "corpus")
        held_out.save(RunResult(outdir), "corpus_eval")
    except TaskweaveError as exc:
        _fail(exc)
    click.echo(f"corpus: {train.n_samples} train / {held_out.n_samples} eval samples -> {outdir}")


@main.command()
@config_option
@seed_option
@output_option
def train(config_path, seed, output_dir) -> None:
    """Run the configured experiment end to end (corpus, training, suites)."""
    from .experiments import run

    try:
        config = _load_config(config_path, seed, output_dir)
        result = run(config)
    except TaskweaveError as exc:
        _fail(exc)
    click.echo(f"run complete -> {result.output_dir / 'summary.json'}")


def _load_model(config, checkpoint):
    from .encoder import load_checkpoint
    from .experiments import build_splits

    train_corpus, eval_corpus = build_splits(config)
    if checkpoint:
        params = load_checkpoint(checkpoint)
    else:
        ckpt = Path(config.output_dir) / "checkpoints" / "encoder_final.npz"
        if ckpt.exists():
            params = load_checkpoint(ckpt)
        else:
            raise ValidationError(f"no checkpoint at {ckpt}; pass --checkpoint")
    return train_corpus, eval_corpus, params


@main.command("eval")
@config_option
@seed_option
@output_option
@click.option("--checkpoint", type=click.Path(exists=True, dir_okay=False), default=None)
def eval_cmd(config_path, seed, output_dir, checkpoint) -> None:
    """Score a trained checkpoint on the evaluation corpus."""
    from .experiments import RunResult, evaluate_row, rows_to_table

    try:
        config = _load_config(config_path, seed, output_dir)
        train_corpus, eval_corpus, params = _load_model(config, checkpoint)
        row = evaluate_row(params, train_corpus, eval_corpus, config)
        table, _ = rows_to_table({"encoder": row})
        out = RunResult(config.output_dir)
        table.to_csv(out, "tables/metrics.csv")
    except TaskweaveError as exc:
        _fail(exc)
    for column, value in row.items():
        click.echo(f"{column}: {value:.4f}")
    click.echo(f"table -> {out.output_dir / 'tables' / 'metrics.csv'}")


@main.command()
@config_option
@seed_option
@output_option
@click.option("--checkpoint", type=click.Path(exists=True, dir_okay=False), default=None)
def analyze(config_path, seed, output_dir, checkpoint) -> None:
    """Run the embedding-geometry suite on a trained checkpoint."""
    from .experiments import RunResult, geometry_suite

    try:
        config = _load_config(config_path, seed, output_dir)
        _, eval_corpus, params = _load_model(config, checkpoint)
        summary = geometry_suite(params, eval_corpus, config, RunResult(config.output_dir))
    except TaskweaveError as exc:
        _fail(exc)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.command("compare-forgetting")
@config_option
@seed_option
@output_option
def compare_forgetting(config_path, seed, output_dir) -> None:
    """Pretrain, then compare sequential vs interleaved fine-tuning."""
    from .experiments import run_forgetting_comparison

    try:
        config = _load_config(config_path, seed, output_dir)
        result = run_forgetting_comparison(config)
    except TaskweaveError as exc:
        _fail(exc)
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
    from .experiments import bundled_reference_table, score_paper_table

    try:
        table_path = Path(table) if table else bundled_reference_table()
        refs = json.loads(Path(human_refs).read_text()) if human_refs else None
        ranking = score_paper_table(table_path, mode, refs)
    except TaskweaveError as exc:
        _fail(exc)
    for rank, (model, index) in enumerate(ranking, start=1):
        click.echo(f"{rank:2d}. {model:20s} {index:+.5f}")


if __name__ == "__main__":
    main()
