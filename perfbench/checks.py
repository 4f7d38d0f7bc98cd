"""Correctness checks on a finished grid and on an embedding dump.

The reports are the program's byte-deterministic oracle: cells.csv,
summary.csv and ranks.csv must come out byte for byte the same on every
repetition and with or without tracing. On top of that, each grid must obey
invariants checked here independently of the program's own code paths:
the cell set is datasets x embeddings x classifiers, ok accuracies lie in
[0, 1], summary means match the ok cells, each dataset's ranks are a
permutation of 1..m, and their average is what ranks.csv reports.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

REPORT_FILES = ("cells.csv", "summary.csv", "ranks.csv")
TOL = 1e-9


def report_bytes(out_dir: str) -> bytes:
    parts = []
    for name in REPORT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            parts.append(fh.read())
    return b"".join(parts)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _first_wins_ranks(row: list[float]) -> list[int]:
    """Rank 1 for the highest value; exact ties go to the earlier column."""
    order = sorted(range(len(row)), key=lambda j: (-row[j], j))
    ranks = [0] * len(row)
    for position, j in enumerate(order):
        ranks[j] = position + 1
    return ranks


def check_report(report, out_dir: str, average_rank) -> list[str]:
    """Problems found in one EvaluationReport and its CSV files."""
    cfg = report.config
    problems = []
    expected = [(d.name, e.name, c.name) for d in cfg.datasets
                for e in cfg.embeddings for c in cfg.classifiers]
    got = [(c.dataset, c.embedding, c.classifier) for c in report.cells]
    if sorted(got) != sorted(expected):
        problems.append(f"cell set has {len(got)} cells, expected the "
                        f"{len(expected)} of datasets x embeddings x classifiers")

    ok_accs: dict[tuple[str, str], list[float]] = {}
    for c in report.cells:
        where = f"cell {c.dataset}/{c.embedding}/{c.classifier}"
        if c.status == "ok":
            if c.accuracy is None or not 0.0 <= c.accuracy <= 1.0:
                problems.append(f"{where}: ok accuracy {c.accuracy} outside [0, 1]")
            else:
                ok_accs.setdefault((c.dataset, c.embedding), []).append(c.accuracy)
        elif not c.status.startswith("error:") or c.accuracy is not None:
            problems.append(f"{where}: status {c.status!r} with accuracy {c.accuracy}")

    with open(os.path.join(out_dir, "cells.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != len(report.cells) + 1:
        problems.append(f"cells.csv has {len(rows) - 1} rows for {len(report.cells)} cells")

    means = {}
    for ds_name, emb_name, mean, std in report.summary:
        accs = ok_accs.get((ds_name, emb_name), [])
        if not accs or abs(mean - float(np.mean(accs))) > TOL \
                or abs(std - float(np.std(accs))) > TOL:
            problems.append(f"summary {ds_name}/{emb_name}: mean/std do not match ok cells")
        means[(ds_name, emb_name)] = mean
    if set(means) != set(ok_accs):
        problems.append("summary rows differ from the (dataset, embedding) pairs with ok cells")

    rankable = [e.name for e in cfg.embeddings
                if all((d.name, e.name) in means for d in cfg.datasets)]
    if [name for name, _ in report.avg_ranks] != rankable:
        problems.append(f"ranked methods {[n for n, _ in report.avg_ranks]} "
                        f"!= methods with a mean on every dataset {rankable}")
    elif rankable:
        m = len(rankable)
        per_dataset = []
        for d in cfg.datasets:
            row = [means[(d.name, name)] for name in rankable]
            program = sorted(average_rank(np.array([row])).tolist())
            if program != [float(r) for r in range(1, m + 1)]:
                problems.append(f"dataset {d.name}: ranks {program} are not a "
                                f"permutation of 1..{m}")
            per_dataset.append(_first_wins_ranks(row))
        oracle = np.mean(per_dataset, axis=0)
        for (name, rank), want in zip(report.avg_ranks, oracle):
            if abs(rank - want) > TOL:
                problems.append(f"average rank of {name} is {rank}, expected {want}")
        with open(os.path.join(out_dir, "ranks.csv"), newline="") as fh:
            if len(list(csv.reader(fh))) != m + 1:
                problems.append("ranks.csv row count differs from the ranked methods")
    return problems


def check_dump(path: str, expected_rows: int) -> list[str]:
    """Problems in an embeddings_<method>_<dataset>.csv file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [f"{path}: empty"]
    header, body = rows[0], rows[1:]
    width = len(header) - 2
    if header[:2] != ["id", "label"] or header[2:] != [f"v{i}" for i in range(width)] \
            or width < 1:
        return [f"{path}: bad header {header[:4]}..."]
    problems = []
    if len(body) != expected_rows:
        problems.append(f"{path}: {len(body)} rows, expected {expected_rows} windows")
    ids = set()
    for row in body:
        if len(row) != width + 2:
            problems.append(f"{path}: row {row[0]} has {len(row) - 2} values, "
                            f"expected {width}")
            break
        ids.add(row[0])
        if not all(math.isfinite(float(v)) for v in row[2:]):
            problems.append(f"{path}: row {row[0]} has a non-finite value")
            break
    if len(ids) != len(body):
        problems.append(f"{path}: window ids are not unique")
    return problems
