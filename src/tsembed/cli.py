"""Command-line interface: run, embed, rank, synth."""

from __future__ import annotations

import sys

import click

from .bench import (average_rank, csv_fields, dump_embeddings, emit_reports, fmt,
                    load_config, make_output_dir, read_accuracy_csv, run_grid)
from .data_io import save_wide_csv
from .errors import TsembedError
from .synthgen import SYNTH_KINDS, SynthSpec, generate


@click.group()
def main() -> None:
    """Time-series embedding benchmark tool."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON config describing datasets, embeddings, classifiers.")
def run(config_path: str) -> None:
    """Run the full evaluation grid and write report CSVs."""
    try:
        cfg = load_config(config_path)
        make_output_dir(cfg.output_dir)  # fail before the grid, not after it
        report = run_grid(cfg)
        paths = emit_reports(report, cfg.output_dir)
    except TsembedError as e:
        raise click.ClickException(str(e)) from None
    ok = sum(1 for c in report.cells if c.status == "ok")
    click.echo(f"{ok}/{len(report.cells)} cells ok")
    for path in paths:
        click.echo(path)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", "embedding_name", required=True,
              help="Embedding name from the config.")
@click.option("--dataset", "dataset_name", required=True,
              help="Dataset name from the config.")
@click.option("--out", "output_dir", default=None,
              help="Output directory (defaults to the config's output_dir).")
def embed(config_path: str, embedding_name: str, dataset_name: str,
          output_dir: str | None) -> None:
    """Fit one embedding and dump all window vectors to CSV."""
    try:
        cfg = load_config(config_path)
        path = dump_embeddings(cfg, dataset_name, embedding_name, output_dir)
    except TsembedError as e:
        raise click.ClickException(str(e)) from None
    click.echo(path)


@main.command()
@click.option("--accuracies", "acc_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV with header 'dataset,<method>,...' and accuracy rows.")
@click.option("--ties", type=click.Choice(["first", "competition"]),
              default="first", show_default=True,
              help="Tie policy: earlier column wins, or shared minimal rank.")
def rank(acc_path: str, ties: str) -> None:
    """Average per-method ranks from an accuracy table (rank 1 is best)."""
    try:
        _, methods, matrix = read_accuracy_csv(acc_path)
        ranks = average_rank(matrix, ties=ties)
    except TsembedError as e:
        raise click.ClickException(str(e)) from None
    click.echo("method,avg_rank")
    for name, value in zip(methods, ranks):
        click.echo(f"{csv_fields(name)},{fmt(value)}")


@main.command()
@click.option("--kind", required=True, type=click.Choice(list(SYNTH_KINDS)))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--classes", default=2, show_default=True)
@click.option("--n-per-class", default=100, show_default=True)
@click.option("--tau", default=64, show_default=True)
@click.option("--channels", default=1, show_default=True)
@click.option("--noise-sigma", default=0.1, show_default=True)
@click.option("--seed", default=7, show_default=True)
def synth(kind: str, out_path: str, classes: int, n_per_class: int, tau: int,
          channels: int, noise_sigma: float, seed: int) -> None:
    """Generate a labeled synthetic dataset and write it as wide CSV."""
    try:
        spec = SynthSpec(kind, classes, n_per_class, tau, channels,
                         noise_sigma, seed)
        ds = generate(spec)
        save_wide_csv(ds, out_path)
    except TsembedError as e:
        raise click.ClickException(str(e)) from None
    click.echo(f"{out_path}: {len(ds.series)} series, {channels} channel(s), "
               f"length {tau}")


if __name__ == "__main__":
    main(sys.argv[1:])
