"""Benchmark harness: config parsing, the evaluation grid, ranking, reports.

A run is a cross product of datasets x embedding methods x classifiers. Per
dataset: load, group-disjoint split, segment into windows, fit normalization
on train only. Per embedding method: fit on train windows with a seed derived
from (master seed, dataset, method), transform all splits, and time the train
fit+transform and the test transform with a monotonic clock. Per classifier
(seed from master seed, dataset, method, classifier), each grid combo scores
its mean held-out accuracy over the folds: the validation split as one fold,
else 5-fold CV on train. The best (first on ties) is tested as its validation
fold fit it, or refit on all of train after CV. A numeric failure inside one
cell records that cell as errored and leaves every other cell untouched.

Embedding methods are one table: method -> (param defaults, fit, transform).
make_embedder checks a config's params against the defaults by the rule
classify.fit applies to classifier params (classify.check_params), so a bad
embedding param fails at parse time, before any work starts.

Ranking: per dataset, methods are ranked by descending mean accuracy (rank 1
is best). Two tie policies exist: "first", where the earlier-listed method
wins exact ties (the default used in reports), and "competition", where tied
methods share the minimal rank and the next distinct value skips by the tie
count. Ranks are averaged over datasets. Both policies depend only on the
ordering of each row, so any strictly monotone per-row transform leaves the
output unchanged.

Report files (CSV: comma delimiter, "." decimal, LF endings, 6 significant
digits): cells.csv, summary.csv, ranks.csv are byte-deterministic for a fixed
config and seed; wall-clock numbers live only in timings.csv. manifest.json
records the parsed config and the effective per-method parameters.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import classify
from .data_io import (TimeSeriesDataset, csv_records, load_dataset, open_text,
                      split_by_group)
from .embed_graph import graph_embed
from .embed_neural import ae_embed, ae_train
from .embed_spectral import CwtConfig, check_omega0, default_scales, fft_embed, wavelet_embed
from .embed_subspace import lle_fit, lle_transform, pca_fit, pca_transform
from .embed_tda import DEFAULT_GRID_SIZE, MAX_GRID_SIZE, tda_embed
from .errors import ConfigError, DataError, ParseError, TsembedError
from .preprocess import (WindowBatch, apply_normalizer_all, concat_windows, fit_normalizer,
                         flatten_windows, segment_dataset)
from .rng import Xoshiro256StarStar, derive_seed

DEFAULT_RATIOS = (0.7, 0.15, 0.15)
DEFAULT_EMBED_DIM = 16


def fmt(x: float) -> str:
    """Render a real with 6 significant digits."""
    return "%.6g" % x


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class DatasetCfg:
    name: str
    tau: int
    omega: int
    normalization: str
    format: str
    path: str | None = None
    train_path: str | None = None
    val_path: str | None = None
    test_path: str | None = None
    channels: int | None = None
    ratios: tuple[float, float, float] = DEFAULT_RATIOS


@dataclass(frozen=True)
class EmbeddingCfg:
    method: str
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassifierCfg:
    kind: str
    name: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchConfig:
    seed: int
    output_dir: str
    datasets: tuple[DatasetCfg, ...]
    embeddings: tuple[EmbeddingCfg, ...]
    classifiers: tuple[ClassifierCfg, ...]


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, what: str):
    """value, if it has the JSON type kind (a tuple also serves as a list)."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ConfigError(f"{what} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    _typed(obj, dict, where)
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing key(s) {sorted(missing)}")


def _parse_dataset(obj: dict, index: int) -> DatasetCfg:
    where = f"datasets[{index}]"
    _require_keys(
        obj,
        allowed={"name", "tau", "omega", "normalization", "format", "path",
                 "train_path", "val_path", "test_path", "channels", "ratios"},
        required={"name", "tau", "omega", "normalization", "format"},
        where=where)
    for key in ("name", "path", "train_path", "val_path", "test_path"):
        if key in obj:
            _typed(obj[key], str, f"{where}: {key}")
    has_single = "path" in obj
    has_split = all(k in obj for k in ("train_path", "val_path", "test_path"))
    has_any_split = any(k in obj for k in ("train_path", "val_path", "test_path"))
    if has_single == has_any_split:
        raise ConfigError(f"{where}: give either 'path' or all three split paths")
    if has_any_split and not has_split:
        raise ConfigError(f"{where}: split datasets need train_path, val_path, test_path")
    if has_any_split and "ratios" in obj:
        raise ConfigError(f"{where}: ratios only apply to a single 'path'")
    if obj["normalization"] not in ("zscore", "minmax"):
        raise ConfigError(f"{where}: unknown normalization {obj['normalization']!r}")
    if obj["format"] not in ("long_csv", "wide_csv"):
        raise ConfigError(f"{where}: unknown format {obj['format']!r}")
    ratios = obj.get("ratios", DEFAULT_RATIOS)
    if not isinstance(ratios, (list, tuple)) or len(ratios) != 3:
        raise ConfigError(f"{where}: ratios must be a list of three entries")
    for r in ratios:
        classify.check_value(r, float, f"{where}: ratios")
    channels = obj.get("channels")
    if channels is not None:
        channels = classify.check_value(channels, int, f"{where}: channels")
    return DatasetCfg(
        name=obj["name"], tau=classify.check_value(obj["tau"], int, f"{where}: tau"),
        omega=classify.check_value(obj["omega"], int, f"{where}: omega"),
        normalization=obj["normalization"], format=obj["format"],
        path=obj.get("path"), train_path=obj.get("train_path"),
        val_path=obj.get("val_path"), test_path=obj.get("test_path"),
        channels=channels, ratios=tuple(ratios))


def _parse_embedding(obj: dict, index: int) -> EmbeddingCfg:
    where = f"embeddings[{index}]"
    _require_keys(obj, allowed={"method", "name", "params"},
                  required={"method"}, where=where)
    method = obj["method"]
    if method not in EMBEDDING_METHODS:
        raise ConfigError(f"{where}: unknown embedding method {method!r}")
    cfg = EmbeddingCfg(method=method,
                       name=_typed(obj.get("name", method), str, f"{where}: name"),
                       params=dict(_typed(obj.get("params", {}), dict, f"{where}: params")))
    make_embedder(cfg)  # rejects unknown params before any work starts
    return cfg


def _parse_classifier(obj: dict, index: int) -> ClassifierCfg:
    where = f"classifiers[{index}]"
    _require_keys(obj, allowed={"kind", "name", "params", "grid"},
                  required={"kind"}, where=where)
    kind = obj["kind"]
    if kind not in classify.CLASSIFIER_KINDS:
        raise ConfigError(f"{where}: unknown classifier kind {kind!r}")
    grid = dict(_typed(obj.get("grid", {}), dict, f"{where}: grid"))
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}: grid entry {key!r} must be a nonempty list")
    params = _typed(obj.get("params", {}), dict, f"{where}: params")
    return ClassifierCfg(kind=kind, name=_typed(obj.get("name", kind), str, f"{where}: name"),
                         params=dict(params), grid=grid)


def parse_config(obj: dict) -> BenchConfig:
    _require_keys(obj, allowed={"seed", "output_dir", "datasets", "embeddings",
                                "classifiers"},
                  required={"output_dir", "datasets", "embeddings", "classifiers"},
                  where="config")
    entries = {key: _typed(obj[key], list, f"config: {key}")
               for key in ("datasets", "embeddings", "classifiers")}
    datasets = tuple(_parse_dataset(d, i) for i, d in enumerate(entries["datasets"]))
    embeddings = tuple(_parse_embedding(e, i) for i, e in enumerate(entries["embeddings"]))
    classifiers = tuple(_parse_classifier(c, i)
                        for i, c in enumerate(entries["classifiers"]))
    for label, names in (("dataset", [d.name for d in datasets]),
                         ("embedding", [e.name for e in embeddings]),
                         ("classifier", [c.name for c in classifiers])):
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate {label} names in config")
    if not datasets or not embeddings or not classifiers:
        raise ConfigError("config needs at least one dataset, embedding, and classifier")
    return BenchConfig(classify.check_value(obj.get("seed", 0), int, "config: seed"),
                       _typed(obj["output_dir"], str, "config: output_dir"),
                       datasets, embeddings, classifiers)


def load_config(path: str) -> BenchConfig:
    try:
        with open_text(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: config root must be a JSON object")
    return parse_config(obj)


# ---------------------------------------------------------------- embedders

def _no_fit(windows: WindowBatch, params: dict, seed: int):
    return None, {}


def _fit_tda(windows: WindowBatch, params: dict, seed: int):
    return params["grid_size"], dict(params)


def _fit_wavelet(windows: WindowBatch, params: dict, seed: int):
    scales = params["scales"]
    if scales is None:
        scales = tuple(float(a) for a in default_scales(windows.values.shape[1]))
    return (CwtConfig(scales, params["omega0"]),
            {"scales": list(scales), "omega0": params["omega0"]})


def _fit_pca(windows: WindowBatch, params: dict, seed: int):
    X = flatten_windows(windows)
    d = min(params["d"], X.shape[0] - 1, X.shape[1])
    if d < 1:
        raise ConfigError(f"pca: cannot fit any component on {X.shape[0]} windows")
    return pca_fit(X, d), {"d": d}


def _fit_lle(windows: WindowBatch, params: dict, seed: int):
    X = flatten_windows(windows)
    K = min(params["K"], X.shape[0] - 2)
    d = min(params["d"], K)
    if K < 1 or d < 1:
        raise ConfigError(f"lle: {X.shape[0]} windows leave no valid K")
    return lle_fit(X, K, d, params["reg"]), {"d": d, "K": K, "reg": params["reg"]}


def _fit_ae(windows: WindowBatch, params: dict, seed: int):
    d = min(params["d"], windows.values[0].size - 1)
    model = ae_train(windows, d, params["epochs"], params["batch"], seed)
    return model, dict(params, d=d)


# method -> (param defaults, fit(train_windows, params, seed) -> (state,
# effective params), transform(state, windows) -> (n, width) matrix)
_EMBEDDERS = {
    "fft": ({}, _no_fit, lambda _, windows: fft_embed(windows.values)),
    "wavelet": ({"scales": None, "omega0": 6.0}, _fit_wavelet,
                lambda cfg, windows: wavelet_embed(windows.values, cfg)),
    "pca": ({"d": DEFAULT_EMBED_DIM}, _fit_pca,
            lambda model, windows: pca_transform(model, flatten_windows(windows))),
    "lle": ({"d": DEFAULT_EMBED_DIM, "K": 20, "reg": 1e-3}, _fit_lle,
            lambda model, windows: lle_transform(model, flatten_windows(windows))),
    "graph": ({}, _no_fit,
              lambda _, windows: np.stack([graph_embed(v) for v in windows.values])),
    "tda": ({"grid_size": DEFAULT_GRID_SIZE}, _fit_tda,
            lambda grid_size, windows: tda_embed(windows.values, grid_size)),
    "ae": ({"d": DEFAULT_EMBED_DIM, "epochs": 100, "batch": 64}, _fit_ae, ae_embed),
}
EMBEDDING_METHODS = tuple(_EMBEDDERS)


class Embedder:
    """One embedding method with checked params; fit keeps the fitted state."""

    def __init__(self, method: str, params: dict):
        _, self._fit, self._transform = _EMBEDDERS[method]
        self.params = params
        self.state = None

    def fit(self, windows: WindowBatch, seed: int) -> dict:
        """Fit on train windows; return the effective params."""
        self.state, effective = self._fit(windows, self.params, seed)
        return effective

    def transform(self, windows: WindowBatch) -> np.ndarray:
        return self._transform(self.state, windows)


def make_embedder(cfg: EmbeddingCfg) -> Embedder:
    """An unfitted embedder; unknown or wrongly typed params, wavelet scales
    below embed_spectral.MIN_SCALE, a wavelet omega0 outside (0,
    embed_spectral.MAX_OMEGA0] and a tda grid_size outside [2,
    embed_tda.MAX_GRID_SIZE] raise ConfigError."""
    params = classify.check_params(f"embedding {cfg.method!r}",
                                   _EMBEDDERS[cfg.method][0], cfg.params)
    if cfg.method == "wavelet":
        scales = params["scales"]
        if scales is not None:
            what = "embedding 'wavelet': parameter 'scales'"
            if not isinstance(scales, (list, tuple, np.ndarray)):
                raise ConfigError(f"{what} must be a list of finite numbers, got {scales!r}")
            params["scales"] = tuple(classify.check_value(a, float, what) for a in scales)
        try:
            if scales is not None:
                CwtConfig(params["scales"])  # no scale, or one below MIN_SCALE
            check_omega0(params["omega0"])
        except ConfigError as e:
            raise ConfigError(f"embedding 'wavelet': {e}") from None
    if cfg.method == "tda" and not 2 <= params["grid_size"] <= MAX_GRID_SIZE:
        raise ConfigError(f"embedding 'tda': parameter 'grid_size' must be between 2 "
                          f"and {MAX_GRID_SIZE}, got {params['grid_size']}")
    return Embedder(cfg.method, params)


# ---------------------------------------------------------------- ranking

def _rank_row(row: np.ndarray, ties: str) -> np.ndarray:
    if ties == "first":
        order = np.argsort(-row, kind="stable")
        ranks = np.empty(row.shape[0])
        ranks[order] = np.arange(1, row.shape[0] + 1)
        return ranks
    if ties == "competition":
        return np.array([1 + np.sum(row > v) for v in row], dtype=float)
    raise ConfigError(f"unknown tie policy {ties!r}")


def average_rank(accuracies: np.ndarray, ties: str = "first") -> np.ndarray:
    """Mean per-method rank over dataset rows; rank 1 is the highest accuracy.

    ties="first" breaks exact ties in favor of the earlier column;
    ties="competition" gives tied values the same minimal rank and skips the
    following rank by the tie count ([0.9, 0.9, 0.5] -> [1, 1, 3]).
    """
    A = np.asarray(accuracies, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise DataError(f"expected a nonempty 2-D accuracy matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DataError("accuracy matrix contains NaN or Inf")
    ranks = np.stack([_rank_row(row, ties) for row in A])
    return ranks.mean(axis=0)


def read_accuracy_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read a dataset-by-method accuracy table: header ``dataset,<m1>,...``."""
    with open_text(path) as fh:
        records = csv_records(path, fh)
        _, header = next(records, (1, None))
        if not header or len(header) < 2 or header[0] != "dataset":
            raise ParseError(f"{path}: expected header 'dataset,<method>,...'")
        methods = header[1:]
        names, rows = [], []
        for line_no, row in records:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path} line {line_no}: wrong field count")
            names.append(row[0])
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ParseError(f"{path} line {line_no}: non-numeric accuracy") from None
    if not rows:
        raise DataError(f"{path}: no accuracy rows")
    return names, methods, np.array(rows)


# ---------------------------------------------------------------- grid

@dataclass
class CellResult:
    dataset: str
    embedding: str
    classifier: str
    accuracy: float | None
    status: str                  # "ok" or "error:<Type>"
    selected_params: dict
    fit_seconds: float


@dataclass
class EvaluationReport:
    config: BenchConfig
    cells: list[CellResult]
    summary: list[tuple[str, str, float, float]]      # dataset, emb, mean, std
    avg_ranks: list[tuple[str, float]]                # embedding, avg rank
    timings: list[tuple[str, str, str, float, float, float]]
    effective: dict


def _load_splits(ds: DatasetCfg, master_seed: int):
    try:
        if ds.path is not None:
            full = load_dataset(ds.path, ds.format, ds.channels)
            seed = derive_seed(master_seed, ds.name, "split")
            return split_by_group(full, ds.ratios, seed)
        loaded = [load_dataset(p, ds.format, ds.channels)
                  for p in (ds.train_path, ds.val_path, ds.test_path)]
        if len({part.n_channels for part in loaded}) != 1:
            raise ConfigError("split files disagree on channel count")
        alphabet: dict[str, int] = {}  # label token -> first-appearance id over the files
        for part in loaded:
            remap = np.array([alphabet.setdefault(t, len(alphabet)) for t in part.label_alphabet],
                             dtype=np.int64)
            for rec in part.series:
                rec.labels = remap[rec.labels]
        return tuple(TimeSeriesDataset(part.series, part.n_channels, list(alphabet))
                     for part in loaded)
    except TsembedError as e:
        raise type(e)(f"dataset {ds.name!r}: {e}") from None
    except OSError as e:
        raise ConfigError(f"dataset {ds.name!r}: {e}") from None


def _prepare(ds: DatasetCfg, master_seed: int) -> list[WindowBatch]:
    """Train, val and test windows, normalized with statistics of train."""
    parts = _load_splits(ds, master_seed)
    try:
        splits = [segment_dataset(part, ds.tau, ds.omega) for part in parts]
    except TsembedError as e:
        raise type(e)(f"dataset {ds.name!r}: {e}") from None
    if not splits[0]:
        raise ConfigError(f"dataset {ds.name!r}: no training windows after segmentation")
    norm = fit_normalizer(splits[0], ds.normalization)
    return [apply_normalizer_all(norm, windows) for windows in splits]


def _expand_grid(grid: dict) -> list[dict]:
    if not grid:
        return [{}]
    keys = sorted(grid)
    combos = [{}]
    for key in keys:
        combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]
    return combos


_SEEDED_KINDS = {"forest", "mlp"}


def _error_cell(dataset: str, embedding: str, classifier: str,
                err: Exception) -> CellResult:
    return CellResult(dataset, embedding, classifier, None,
                      f"error:{type(err).__name__}", {}, 0.0)


def _folds(Xtr, ytr, Xval, yval, seed: int) -> list[tuple]:
    """(train part, held-out X, held-out y) per fold: the validation split as
    one fold, else min(5, n) cross-validation folds of train."""
    if Xval is not None and Xval.shape[0] > 0:
        return [(classify.LabeledMatrix(Xtr, ytr), Xval, yval)]
    n = Xtr.shape[0]
    if n < 2:
        raise ConfigError("cross-validation impossible on this train split")
    k = min(5, n)
    indices = list(range(n))
    Xoshiro256StarStar(derive_seed(seed, "cv")).shuffle(indices)
    folds = []
    for i in range(k):
        held = np.zeros(n, dtype=bool)
        held[indices[i::k]] = True
        folds.append((classify.LabeledMatrix(Xtr[~held], ytr[~held]), Xtr[held], ytr[held]))
    return folds


def _run_cell(dataset: str, embedding: str, clf: ClassifierCfg,
              Xtr, ytr, Xval, yval, Xte, yte, cell_seed: int) -> CellResult:
    t0 = time.perf_counter()
    try:
        folds = _folds(Xtr, ytr, Xval, yval, cell_seed)
    except TsembedError as e:
        return _error_cell(dataset, embedding, clf.name, e)
    best_acc = best_combo = best_model = None
    error: TsembedError = ConfigError("no grid combination fit")
    for combo in _expand_grid(clf.grid):
        params = {**clf.params, **combo}
        if clf.kind in _SEEDED_KINDS and "seed" not in params:
            params["seed"] = cell_seed
        accs = []
        try:
            for part, X_held, y_held in folds:
                model = classify.fit(clf.kind, part, params)
                accs.append(classify.accuracy(classify.predict(model, X_held), y_held))
        except TsembedError as e:
            error = e
            continue
        acc = float(np.mean(accs))
        if best_acc is None or acc > best_acc:
            best_acc, best_combo, best_model = acc, params, model
    if best_combo is None:
        return _error_cell(dataset, embedding, clf.name, error)
    try:
        if len(folds) > 1:  # cross-validation has two folds or more
            best_model = classify.fit(clf.kind, classify.LabeledMatrix(Xtr, ytr), best_combo)
        fit_seconds = time.perf_counter() - t0
        test_acc = classify.accuracy(classify.predict(best_model, Xte), yte)
    except TsembedError as e:
        return _error_cell(dataset, embedding, clf.name, e)
    return CellResult(dataset, embedding, clf.name, float(test_acc), "ok", best_combo,
                      fit_seconds)


def run_grid(cfg: BenchConfig) -> EvaluationReport:
    cells: list[CellResult] = []
    timings = []
    effective: dict = {}

    for ds in cfg.datasets:
        train_w, val_w, test_w = _prepare(ds, cfg.seed)
        if not test_w:
            raise ConfigError(f"dataset {ds.name!r}: no test windows after segmentation")
        ytr, yval, yte = train_w.labels, val_w.labels, test_w.labels
        effective[ds.name] = {}

        for emb in cfg.embeddings:
            embedder = make_embedder(emb)
            emb_seed = derive_seed(cfg.seed, ds.name, emb.name)
            try:
                t0 = time.perf_counter()
                effective_params = embedder.fit(train_w, emb_seed)
                Xtr = embedder.transform(train_w)
                t1 = time.perf_counter()
                Xte = embedder.transform(test_w)
                t2 = time.perf_counter()
                Xval = embedder.transform(val_w) if val_w else None
                # free the fitted state now: fit or transform wrapped on the
                # instance (as a benchmark or tracer does) makes a reference
                # cycle that would keep it until the next cyclic collection
                embedder.state = None
            except TsembedError as e:
                cells += [_error_cell(ds.name, emb.name, clf.name, e)
                          for clf in cfg.classifiers]
                continue
            effective[ds.name][emb.name] = effective_params

            for clf in cfg.classifiers:
                cell_seed = derive_seed(cfg.seed, ds.name, emb.name, clf.name)
                cell = _run_cell(ds.name, emb.name, clf, Xtr, ytr, Xval, yval, Xte, yte,
                                 cell_seed)
                cells.append(cell)
                timings.append((ds.name, emb.name, clf.name, cell.fit_seconds,
                                t1 - t0, t2 - t1))

    summary = []
    means: dict[tuple[str, str], float] = {}
    for ds in cfg.datasets:
        for emb in cfg.embeddings:
            accs = [c.accuracy for c in cells
                    if c.dataset == ds.name and c.embedding == emb.name
                    and c.accuracy is not None]
            if accs:
                mean = float(np.mean(accs))
                std = float(np.std(accs))
                summary.append((ds.name, emb.name, mean, std))
                means[(ds.name, emb.name)] = mean

    # methods with a mean on every dataset enter the ranking
    rankable = [emb.name for emb in cfg.embeddings
                if all((ds.name, emb.name) in means for ds in cfg.datasets)]
    avg_ranks: list[tuple[str, float]] = []
    if rankable:
        matrix = np.array([[means[(ds.name, name)] for name in rankable]
                           for ds in cfg.datasets])
        ranks = average_rank(matrix, ties="first")
        avg_ranks = list(zip(rankable, ranks.tolist()))

    return EvaluationReport(cfg, cells, summary, avg_ranks, timings, effective)


# ---------------------------------------------------------------- reports

def make_output_dir(path: str) -> None:
    """Create the output directory if it is missing; ConfigError if it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output_dir {path!r}: {e}") from None


def _write_lines(out_dir: str, name: str, lines: list[str]) -> str:
    """Write LF-terminated lines to out_dir/name; a failed write is a ConfigError."""
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None
    return path


def emit_reports(report: EvaluationReport, output_dir: str) -> list[str]:
    """Write cells/summary/ranks/timings CSVs and manifest.json; return paths."""
    make_output_dir(output_dir)
    paths = []
    lines = ["dataset,embedding,classifier,accuracy,status"]
    for c in report.cells:
        acc = fmt(c.accuracy) if c.accuracy is not None else ""
        lines.append(f"{c.dataset},{c.embedding},{c.classifier},{acc},{c.status}")
    paths.append(_write_lines(output_dir, "cells.csv", lines))

    lines = ["dataset,embedding,mean_accuracy,std_accuracy"]
    for ds_name, emb_name, mean, std in report.summary:
        lines.append(f"{ds_name},{emb_name},{fmt(mean)},{fmt(std)}")
    paths.append(_write_lines(output_dir, "summary.csv", lines))

    lines = ["embedding,avg_rank"]
    for name, rank in report.avg_ranks:
        lines.append(f"{name},{fmt(rank)}")
    paths.append(_write_lines(output_dir, "ranks.csv", lines))

    lines = ["dataset,embedding,classifier,classifier_fit_seconds,"
             "embed_train_seconds,embed_infer_seconds"]
    for ds_name, emb_name, clf_name, clf_s, train_s, infer_s in report.timings:
        lines.append(f"{ds_name},{emb_name},{clf_name},{fmt(clf_s)},"
                     f"{fmt(train_s)},{fmt(infer_s)}")
    paths.append(_write_lines(output_dir, "timings.csv", lines))

    manifest = {
        "seed": report.config.seed,
        "datasets": [d.name for d in report.config.datasets],
        "embeddings": [{"name": e.name, "method": e.method}
                       for e in report.config.embeddings],
        "classifiers": [{"name": c.name, "kind": c.kind}
                        for c in report.config.classifiers],
        "effective_params": report.effective,
        "selected_params": {
            f"{c.dataset}/{c.embedding}/{c.classifier}": c.selected_params
            for c in report.cells if c.status == "ok"},
    }
    paths.append(_write_lines(output_dir, "manifest.json",
                              [json.dumps(manifest, indent=2, sort_keys=True)]))
    return paths


def dump_embeddings(cfg: BenchConfig, dataset_name: str, embedding_name: str,
                    output_dir: str | None = None) -> str:
    """Write embeddings_<method>_<dataset>.csv (id,label,v0..) for all splits."""
    ds = next((d for d in cfg.datasets if d.name == dataset_name), None)
    if ds is None:
        raise ConfigError(f"no dataset named {dataset_name!r} in config")
    emb = next((e for e in cfg.embeddings if e.name == embedding_name), None)
    if emb is None:
        raise ConfigError(f"no embedding named {embedding_name!r} in config")
    out_dir = output_dir or cfg.output_dir
    make_output_dir(out_dir)

    train_w, val_w, test_w = _prepare(ds, cfg.seed)
    embedder = make_embedder(emb)
    embedder.fit(train_w, derive_seed(cfg.seed, ds.name, emb.name))
    windows = concat_windows([train_w, val_w, test_w])
    X = embedder.transform(windows)

    lines = [",".join(["id", "label"] + [f"v{i}" for i in range(X.shape[1])])]
    row_fmt = ",".join(["%.6g"] * X.shape[1])  # fmt() on each value, one % per row
    lines += [f"{source_id}:{start},{label}," + row_fmt % tuple(row)
              for source_id, start, label, row in zip(
                  windows.source_ids, windows.starts.tolist(), windows.labels.tolist(),
                  X.tolist())]
    return _write_lines(out_dir, f"embeddings_{emb.name}_{ds.name}.csv", lines)
