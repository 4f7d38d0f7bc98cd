import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsembed
from batches import window_batch
from grid_reference import _cv_accuracy as cv_accuracy_reference
from grid_reference import _run_cell as run_cell_reference
from test_classify import predict_knn_reference
from test_embed_subspace import lle_fit_reference, lle_transform_reference
from tsembed import bench, classify
from tsembed.bench import (CellResult, DatasetCfg, EmbeddingCfg, _expand_grid, _folds,
                           _load_splits, _prepare, _run_cell, average_rank, dump_embeddings,
                           emit_reports, load_config, make_embedder, parse_config,
                           read_accuracy_csv, run_grid)
from tsembed.data_io import save_wide_csv
from tsembed.errors import ConfigError, DataError, ParseError
from tsembed.synthgen import SynthSpec, generate


@pytest.fixture(scope="module")
def tones_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tones.csv"
    ds = generate(SynthSpec(kind="tones", classes=2, n_per_class=12, tau=16,
                            noise_sigma=0.1, seed=21))
    save_wide_csv(ds, path)
    return str(path)


def base_config(tones_csv, out_dir, **overrides):
    obj = {
        "seed": 5,
        "output_dir": str(out_dir),
        "datasets": [{
            "name": "tones", "path": tones_csv, "format": "wide_csv",
            "tau": 16, "omega": 0, "normalization": "zscore",
            "ratios": [0.5, 0.25, 0.25],
        }],
        "embeddings": [
            {"method": "fft"},
            {"method": "pca", "params": {"d": 4}},
        ],
        "classifiers": [
            {"kind": "knn", "grid": {"k": [1, 3]}},
            {"kind": "gnb"},
        ],
    }
    obj.update(overrides)
    return obj


# ------------------------------------------------------------ ranking

def test_rank_first_breaks_ties_by_column_order():
    np.testing.assert_allclose(
        average_rank(np.array([[0.9, 0.9, 0.5]]), ties="first"), [1, 2, 3])


def test_rank_competition_shares_minimum():
    np.testing.assert_allclose(
        average_rank(np.array([[0.9, 0.9, 0.5]]), ties="competition"), [1, 1, 3])


def test_rank_all_equal():
    np.testing.assert_allclose(
        average_rank(np.array([[0.7, 0.7, 0.7]]), ties="first"), [1, 2, 3])
    np.testing.assert_allclose(
        average_rank(np.array([[0.7, 0.7, 0.7]]), ties="competition"), [1, 1, 1])


def test_rank_one_is_highest_accuracy():
    np.testing.assert_allclose(
        average_rank(np.array([[0.2, 0.8, 0.5]])), [3, 1, 2])


def test_rank_averages_over_datasets():
    A = np.array([[0.9, 0.1], [0.1, 0.9]])
    np.testing.assert_allclose(average_rank(A), [1.5, 1.5])


def test_rank_input_validation():
    with pytest.raises(DataError):
        average_rank(np.array([0.9, 0.5]))
    with pytest.raises(DataError):
        average_rank(np.array([[np.nan, 0.5]]))
    with pytest.raises(ConfigError):
        average_rank(np.array([[0.9, 0.5]]), ties="dense")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1000), min_size=2, max_size=5),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1),
       st.sampled_from(["first", "competition"]))
def test_rank_invariant_under_monotone_transforms(rows, ties):
    A = np.array(rows, dtype=float) / 1000.0
    base = average_rank(A, ties=ties)
    np.testing.assert_allclose(average_rank(A / 4.0 + 3.0, ties=ties), base)
    np.testing.assert_allclose(average_rank(5.0 * A + 1.0, ties=ties), base)


def test_read_accuracy_csv_round_trip(tmp_path):
    path = tmp_path / "acc.csv"
    path.write_text("dataset,m1,m2\nd1,0.9,0.8\nd2,0.7,0.75\n")
    names, methods, A = read_accuracy_csv(path)
    assert names == ["d1", "d2"]
    assert methods == ["m1", "m2"]
    np.testing.assert_allclose(A, [[0.9, 0.8], [0.7, 0.75]])


def test_read_accuracy_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("name,m1\nd1,0.9\n")
    with pytest.raises(ParseError):
        read_accuracy_csv(bad_header)
    short_row = tmp_path / "b.csv"
    short_row.write_text("dataset,m1,m2\nd1,0.9\n")
    with pytest.raises(ParseError):
        read_accuracy_csv(short_row)
    non_numeric = tmp_path / "c.csv"
    non_numeric.write_text("dataset,m1\nd1,high\n")
    with pytest.raises(ParseError):
        read_accuracy_csv(non_numeric)
    empty = tmp_path / "d.csv"
    empty.write_text("dataset,m1\n")
    with pytest.raises(DataError):
        read_accuracy_csv(empty)


# ------------------------------------------------------------ config

def test_parse_config_minimal(tones_csv, tmp_path):
    cfg = parse_config(base_config(tones_csv, tmp_path))
    assert cfg.seed == 5
    assert cfg.datasets[0].name == "tones"
    assert cfg.datasets[0].ratios == (0.5, 0.25, 0.25)
    # names default to the method / kind
    assert [e.name for e in cfg.embeddings] == ["fft", "pca"]
    assert [c.name for c in cfg.classifiers] == ["knn", "gnb"]


def test_parse_config_seed_defaults_to_zero(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path)
    del obj["seed"]
    assert parse_config(obj).seed == 0


def test_parse_config_rejects_unknown_keys_everywhere(tones_csv, tmp_path):
    for mutate in (
        lambda o: o.update(extra=1),
        lambda o: o["datasets"][0].update(windowing="fancy"),
        lambda o: o["datasets"][0].update(channels=1),  # the header gives the count
        lambda o: o["embeddings"][0].update(pipeline=2),
        lambda o: o["classifiers"][0].update(weight="auto"),
    ):
        obj = base_config(tones_csv, tmp_path)
        mutate(obj)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(obj)


def test_parse_config_missing_required(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path)
    del obj["datasets"][0]["tau"]
    with pytest.raises(ConfigError, match="missing key"):
        parse_config(obj)
    obj = base_config(tones_csv, tmp_path)
    del obj["output_dir"]
    with pytest.raises(ConfigError, match="missing key"):
        parse_config(obj)


def test_parse_config_path_exclusivity(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path)
    obj["datasets"][0]["train_path"] = tones_csv
    with pytest.raises(ConfigError, match="either 'path'"):
        parse_config(obj)
    obj = base_config(tones_csv, tmp_path)
    del obj["datasets"][0]["path"]
    del obj["datasets"][0]["ratios"]
    obj["datasets"][0]["train_path"] = tones_csv
    with pytest.raises(ConfigError, match="train_path, val_path, test_path"):
        parse_config(obj)


def test_parse_config_ratios_only_with_single_path(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path)
    d = obj["datasets"][0]
    del d["path"]
    d["train_path"] = d["val_path"] = d["test_path"] = tones_csv
    with pytest.raises(ConfigError, match="ratios"):
        parse_config(obj)


def test_parse_config_whitelists(tones_csv, tmp_path):
    for field, value, message in (
        ("normalization", "robust", "unknown normalization"),
        ("format", "parquet", "unknown format"),
    ):
        obj = base_config(tones_csv, tmp_path)
        obj["datasets"][0][field] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(obj)
    obj = base_config(tones_csv, tmp_path)
    obj["embeddings"][0]["method"] = "umap"
    with pytest.raises(ConfigError, match="unknown embedding method"):
        parse_config(obj)
    obj = base_config(tones_csv, tmp_path)
    obj["classifiers"][0]["kind"] = "svm"
    with pytest.raises(ConfigError, match="unknown classifier kind"):
        parse_config(obj)


def test_parse_config_duplicate_names(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path)
    obj["embeddings"][1]["name"] = "fft"
    with pytest.raises(ConfigError, match="duplicate embedding"):
        parse_config(obj)


def test_parse_config_grid_entries_must_be_nonempty_lists(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path)
    obj["classifiers"][0]["grid"] = {"k": []}
    with pytest.raises(ConfigError, match="nonempty list"):
        parse_config(obj)
    obj = base_config(tones_csv, tmp_path)
    obj["classifiers"][0]["grid"] = {"k": 3}
    with pytest.raises(ConfigError, match="nonempty list"):
        parse_config(obj)


@pytest.mark.parametrize("mutate", [
    lambda o: o.update(datasets=[5]),
    lambda o: o.update(datasets=5),
    lambda o: o.update(output_dir=3),
    lambda o: o["datasets"][0].update(name=["x"]),
    lambda o: o["datasets"][0].update(name=3),
    lambda o: o["datasets"][0].update(path=3),
    lambda o: o["embeddings"][1].update(params=[1, 2]),
    lambda o: o["embeddings"][1].update(params="ab"),
    lambda o: o["embeddings"][1].update(name=3),
    lambda o: o["embeddings"].__setitem__(0, "fft"),
    lambda o: o["classifiers"][0].update(grid="x"),
    lambda o: o["classifiers"][0].update(params=[("k", 1)]),
    lambda o: o["classifiers"][1].update(name=["gnb"]),
], ids=["dataset-entry", "datasets", "output_dir", "list-name", "int-name", "path",
        "list-params", "str-params", "embedding-name", "embedding-entry", "grid",
        "classifier-params", "classifier-name"])
def test_parse_config_rejects_wrongly_typed_json(tones_csv, tmp_path, mutate):
    obj = base_config(tones_csv, tmp_path / "out")
    mutate(obj)
    with pytest.raises(ConfigError, match="must be"):
        parse_config(obj)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ParseError, match="JSON object"):
        load_config(path)


def test_make_embedder_rejects_unknown_params():
    with pytest.raises(ConfigError, match="unknown param"):
        make_embedder(EmbeddingCfg(method="fft", name="fft", params={"zap": 1}))
    with pytest.raises(ConfigError, match="unknown param"):
        make_embedder(EmbeddingCfg(method="pca", name="pca", params={"dim": 2}))


def test_parse_config_rejects_unknown_embedding_params(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["embeddings"] = [{"method": "fft"}, {"method": "pca", "params": {"dd": 3}}]
    with pytest.raises(ConfigError, match="unknown param"):
        parse_config(obj)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, key, value", [
    ("config", "seed", "abc"),
    ("config", "seed", 1.9),
    ("config", "seed", True),
    ("dataset", "tau", "x"),
    ("dataset", "tau", 2.7),
    ("dataset", "tau", False),
    ("dataset", "omega", True),
    ("dataset", "omega", "0"),
    ("dataset", "omega", 1.0),
    ("dataset", "channels", "x"),
    ("dataset", "channels", 2.0),
    ("dataset", "channels", True),
])
def test_parse_config_rejects_non_integer_dataset_fields(tones_csv, tmp_path,
                                                         where, key, value):
    obj = base_config(tones_csv, tmp_path / "out")
    (obj if where == "config" else obj["datasets"][0])[key] = value
    # channels is no longer a field (the header gives the count), so any
    # value for it is refused as an unknown key before its type is looked at
    expected = "unknown key" if key == "channels" else f"{key} must be an integer"
    with pytest.raises(ConfigError, match=expected):
        parse_config(obj)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ratios", [
    "abc",
    [0.5, 0.5],
    0.5,
    [0.5, "a", 0.5],
    [0.5, None, 0.5],
    [0.5, float("nan"), 0.5],
    [float("inf"), 0.0, 0.0],
    [True, False, False],
])
def test_parse_config_rejects_bad_ratios(tones_csv, tmp_path, ratios):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["datasets"][0]["ratios"] = ratios
    with pytest.raises(ConfigError, match="ratios must be"):
        parse_config(obj)


def test_parse_config_keeps_well_typed_dataset_fields(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path, seed=np.int64(9))
    obj["datasets"][0].update(tau=np.int32(8), omega=2, ratios=[1, 0, 0])
    cfg = parse_config(obj)
    ds = cfg.datasets[0]
    assert (cfg.seed, ds.tau, ds.omega, ds.ratios) == (9, 8, 2, (1, 0, 0))
    assert all(type(v) is int for v in (cfg.seed, ds.tau, ds.omega))


@pytest.mark.parametrize("method, params", [
    ("tda", {"grid_size": "abc"}),
    ("wavelet", {"omega0": "x"}),
    ("pca", {"d": "x"}),
    ("lle", {"K": 2.5}),
    ("ae", {"epochs": "x"}),
])
def test_parse_config_rejects_badly_typed_embedding_params(tones_csv, tmp_path,
                                                           method, params):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["embeddings"] = [{"method": "fft"}, {"method": method, "params": params}]
    with pytest.raises(ConfigError, match="must be"):
        parse_config(obj)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, params", [
    ("tda", {"grid_size": True}),
    ("wavelet", {"scales": "abc"}),
    ("wavelet", {"scales": [1.0, float("nan")]}),
    ("pca", {"d": 4.0}),
    ("lle", {"reg": "x"}),
    ("ae", {"batch": None}),
])
def test_make_embedder_rejects_badly_typed_params(method, params):
    with pytest.raises(ConfigError, match="must be"):
        make_embedder(EmbeddingCfg(method=method, name=method, params=params))


@pytest.mark.parametrize("method, params, effective", [
    ("fft", {}, {}),
    ("graph", {}, {}),
    ("tda", {}, {"grid_size": 8}),
    ("tda", {"grid_size": np.int64(5)}, {"grid_size": 5}),
    # default scales are dyadic up to tau/2 = 8
    ("wavelet", {}, {"scales": [2.0, 4.0, 8.0], "omega0": 6.0}),
    ("wavelet", {"scales": [np.int64(3), 1.5], "omega0": np.float32(5.5)},
     {"scales": [3.0, 1.5], "omega0": 5.5}),
    # 6 windows leave at most 5 principal components
    ("pca", {"d": np.int64(99)}, {"d": 5}),
    ("pca", {"d": 2}, {"d": 2}),
    # K is capped at n - 2 = 4, and d at K
    ("lle", {"K": np.int64(20), "d": 16, "reg": np.float32(0.125)},
     {"K": 4, "d": 4, "reg": 0.125}),
    ("lle", {"K": 3, "d": 2, "reg": 1}, {"K": 3, "d": 2, "reg": 1.0}),
    # the bottleneck stays below the flattened width 16
    ("ae", {"d": np.int64(99), "epochs": np.int64(1), "batch": 4},
     {"d": 15, "epochs": 1, "batch": 4}),
])
def test_make_embedder_fit_returns_effective_params(method, params, effective):
    rng = np.random.default_rng(3)
    windows = window_batch(rng.normal(size=(6, 16, 1)), labels=np.arange(6) % 2)
    got = make_embedder(EmbeddingCfg(method=method, name=method, params=params)).fit(
        windows, 1)
    assert got == effective

    # numpy scalars come back as Python int and float, so manifest.json can hold them
    def types(d):
        return {k: [type(x) for x in v] if isinstance(v, list) else type(v)
                for k, v in d.items()}
    assert types(got) == types(effective)


def test_import_bench_leaves_matcher_unloaded():
    # neither the import nor a wide or tall PCA fit or an LLE fit loads
    # scipy's matcher or its linear algebra (about 27 MB of resident memory)
    src = str(Path(tsembed.__file__).resolve().parents[1])
    code = ("import sys, numpy as np, tsembed.bench\n"
            "from tsembed.embed_subspace import lle_fit, pca_fit\n"
            "X = np.random.default_rng(0).normal(size=(30, 40))\n"
            "pca_fit(X, 3); pca_fit(X[:, :10], 3); lle_fit(X, 5, 2)\n"
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------ grid mechanics

def test_expand_grid_order():
    combos = _expand_grid({"b": [1, 2], "a": ["x", "y"]})
    # keys sorted, values in listed order, later keys vary fastest
    assert combos == [{"a": "x", "b": 1}, {"a": "x", "b": 2},
                      {"a": "y", "b": 1}, {"a": "y", "b": 2}]
    assert _expand_grid({}) == [{}]


def test_run_cell_selects_better_combo():
    from tsembed.bench import ClassifierCfg
    # depth-1 stumps cannot express the checkerboard; depth 12 can
    Xtr = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    ytr = np.array([0, 1, 1, 0] * 3, dtype=np.int64)
    cell = _run_cell("d", "e", ClassifierCfg(kind="tree", name="tree",
                                             grid={"max_depth": [1, 12]}),
                     Xtr, ytr, Xtr, ytr, Xtr, ytr, cell_seed=1)
    assert cell.status == "ok"
    assert cell.selected_params["max_depth"] == 12
    assert cell.accuracy == 1.0


def test_run_cell_val_tie_prefers_earlier_combo():
    from tsembed.bench import ClassifierCfg
    Xtr = np.array([[0.0], [0.1], [5.0], [5.1]])
    ytr = np.array([0, 0, 1, 1], dtype=np.int64)
    Xval = np.array([[0.05], [5.05]])
    yval = np.array([0, 1], dtype=np.int64)
    cell = _run_cell("d", "e", ClassifierCfg(kind="knn", name="knn", grid={"k": [1, 3]}),
                     Xtr, ytr, Xval, yval, Xval, yval, cell_seed=1)
    assert cell.status == "ok"
    assert cell.selected_params == {"k": 1}


def test_run_cell_reports_error_status():
    from tsembed.bench import ClassifierCfg
    Xtr = np.array([[0.0], [1.0]])
    ytr = np.array([0, 1], dtype=np.int64)
    cell = _run_cell("d", "e", ClassifierCfg(kind="knn", name="knn", params={"k": 99}),
                     Xtr, ytr, Xtr, ytr, Xtr, ytr, cell_seed=1)
    assert cell.status == "error:ConfigError"
    assert cell.accuracy is None


def test_cv_accuracy_deterministic():
    rng = np.random.default_rng(7)
    X = np.concatenate([rng.normal(0, 0.4, (15, 2)),
                        rng.normal(4, 0.4, (15, 2))])
    y = np.array([0] * 15 + [1] * 15, dtype=np.int64)
    folds = _folds(X, y, None, None, seed=9)
    again = _folds(X, y, np.empty((0, 2)), y[:0], seed=9)
    assert len(folds) == 5
    for (part, X_held, y_held), (part2, X_held2, y_held2) in zip(folds, again):
        assert part.X.tobytes() == part2.X.tobytes() and X_held.tobytes() == X_held2.tobytes()
        assert part.y.tobytes() == part2.y.tobytes() and y_held.tobytes() == y_held2.tobytes()
    # each row is held out once; the mean over folds is the reference CV score
    assert sorted(map(tuple, np.concatenate([f[1] for f in folds]))) == sorted(map(tuple, X))
    accs = [classify.accuracy(classify.predict(classify.fit("knn", part, {"k": 3}), X_held),
                              y_held) for part, X_held, y_held in folds]
    assert float(np.mean(accs)) == cv_accuracy_reference("knn", {"k": 3}, X, y, seed=9)
    assert float(np.mean(accs)) >= 0.9
    with pytest.raises(ConfigError, match="cross-validation impossible"):
        _folds(X[:1], y[:1], None, None, seed=9)


# ------------------------------------------------------------ split loading

def test_load_splits_unions_alphabets(tmp_path):
    from tsembed.data_io import SeriesRecord, TimeSeriesDataset

    def mini(labels, path):
        series = []
        for i, token in enumerate(labels):
            values = np.full((4, 1), float(i))
            series.append(SeriesRecord(series_id=f"s{token}{i}", group=f"g{token}{i}",
                                       values=values,
                                       labels=np.full(4, labels.index(token),
                                                      dtype=np.int64)))
        ds = TimeSeriesDataset(series, 1, list(dict.fromkeys(labels)))
        save_wide_csv(ds, path)

    mini(["b", "a"], tmp_path / "train.csv")
    mini(["a", "a"], tmp_path / "val.csv")
    mini(["a", "c"], tmp_path / "test.csv")
    ds_cfg = DatasetCfg(name="m", tau=4, omega=0, normalization="zscore",
                        format="wide_csv", train_path=str(tmp_path / "train.csv"),
                        val_path=str(tmp_path / "val.csv"),
                        test_path=str(tmp_path / "test.csv"))
    train, val, test = _load_splits(ds_cfg, master_seed=0)
    assert list(train.label_alphabet) == ["b", "a", "c"]
    assert list(test.label_alphabet) == ["b", "a", "c"]
    # test-file labels "a" and "c" remap onto the union indices
    assert [int(r.labels[0]) for r in test.series] == [1, 2]
    assert [int(r.labels[0]) for r in train.series] == [0, 1]


def test_load_splits_wraps_errors_with_dataset_name(tmp_path):
    ds_cfg = DatasetCfg(name="ghost", tau=4, omega=0, normalization="zscore",
                        format="wide_csv", path=str(tmp_path / "missing.csv"))
    with pytest.raises(ParseError, match="^dataset 'ghost': .*missing.csv: cannot read"):
        _prepare(ds_cfg, master_seed=0)


# ------------------------------------------------------------ end to end

def test_run_grid_full_matrix(tones_csv, tmp_path):
    cfg = parse_config(base_config(tones_csv, tmp_path / "out"))
    report = run_grid(cfg)
    assert len(report.cells) == 1 * 2 * 2
    assert all(c.status == "ok" for c in report.cells)
    assert {(c.embedding, c.classifier) for c in report.cells} == {
        ("fft", "knn"), ("fft", "gnb"), ("pca", "knn"), ("pca", "gnb")}
    assert len(report.summary) == 2
    ranks = dict(report.avg_ranks)
    assert set(ranks) == {"fft", "pca"}
    assert sorted(ranks.values()) == [1.0, 2.0]
    assert len(report.timings) == 4
    # effective params record what was actually fit
    assert report.effective["tones"]["pca"]["d"] == 4
    assert report.effective["tones"]["fft"] == {}
    for c in report.cells:
        if c.classifier == "knn":
            assert set(c.selected_params) == {"k"}


def test_run_grid_deterministic_reports(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "o1")
    r1 = run_grid(parse_config(obj))
    paths1 = emit_reports(r1, str(tmp_path / "o1"))
    obj2 = base_config(tones_csv, tmp_path / "o2")
    r2 = run_grid(parse_config(obj2))
    paths2 = emit_reports(r2, str(tmp_path / "o2"))
    for p1, p2 in zip(paths1, paths2):
        name = p1.rsplit("/", 1)[1]
        if name == "timings.csv":
            continue
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read(), name


def test_run_grid_different_seed_changes_split(tones_csv, tmp_path):
    r1 = run_grid(parse_config(base_config(tones_csv, tmp_path / "a")))
    r2 = run_grid(parse_config(base_config(tones_csv, tmp_path / "b", seed=77)))
    acc1 = [c.accuracy for c in r1.cells]
    acc2 = [c.accuracy for c in r2.cells]
    assert acc1 != acc2


def test_run_grid_isolates_embedding_errors(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    # d = 0 passes the type check and fails in fit, inside the cell
    obj["embeddings"] = [{"method": "fft"},
                         {"method": "pca", "params": {"d": 0}}]
    report = run_grid(parse_config(obj))
    pca_cells = [c for c in report.cells if c.embedding == "pca"]
    fft_cells = [c for c in report.cells if c.embedding == "fft"]
    assert len(pca_cells) == 2 and len(fft_cells) == 2
    assert all(c.status == "error:ConfigError" for c in pca_cells)
    assert all(c.status == "ok" for c in fft_cells)
    # a method with no mean never enters the ranking
    assert [name for name, _ in report.avg_ranks] == ["fft"]
    assert all(emb == "fft" for _, emb, _, _ in report.summary)


def test_run_grid_isolates_classifier_errors(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["classifiers"] = [{"kind": "knn", "params": {"k": 999}},
                          {"kind": "gnb"}]
    report = run_grid(parse_config(obj))
    knn_cells = [c for c in report.cells if c.classifier == "knn"]
    gnb_cells = [c for c in report.cells if c.classifier == "gnb"]
    assert all(c.status == "error:ConfigError" for c in knn_cells)
    assert all(c.status == "ok" for c in gnb_cells)
    # the embeddings still rank: gnb supplies a mean on the only dataset
    assert len(report.avg_ranks) == 2


def test_run_grid_unknown_grid_key_is_isolated(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["classifiers"] = [{"kind": "knn", "grid": {"neighbors": [1, 3]}},
                          {"kind": "gnb"}]
    report = run_grid(parse_config(obj))
    knn_cells = [c for c in report.cells if c.classifier == "knn"]
    assert all(c.status == "error:ConfigError" for c in knn_cells)


def test_run_grid_wrongly_typed_grid_value_is_isolated(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["classifiers"] = [{"kind": "knn", "grid": {"k": [2.5]}},
                          {"kind": "tree", "grid": {"max_depth": ["x"]}},
                          {"kind": "forest", "params": {"max_features": True}},
                          {"kind": "gnb"}]
    report = run_grid(parse_config(obj))
    status = {(c.embedding, c.classifier): c.status for c in report.cells}
    for emb in ("fft", "pca"):
        for kind in ("knn", "tree", "forest"):
            assert status[(emb, kind)] == "error:ConfigError"
        assert status[(emb, "gnb")] == "ok"


def test_run_grid_empty_val_uses_cross_validation(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["datasets"][0]["ratios"] = [0.75, 0.0, 0.25]
    report = run_grid(parse_config(obj))
    assert all(c.status == "ok" for c in report.cells)
    for c in report.cells:
        if c.classifier == "knn":
            assert c.selected_params["k"] in (1, 3)


def write_long_csv(ds, path):
    with open(path, "w") as fh:
        fh.write("series_id,group,channel,t,value,label\n")
        for rec in ds.series:
            for t in range(rec.values.shape[0]):
                token = ds.label_alphabet[int(rec.labels[t])]
                for c in range(rec.values.shape[1]):
                    fh.write(f"{rec.series_id},{rec.group},{c},{t},"
                             f"{float(rec.values[t, c])!r},{token}\n")


def test_run_grid_cv_path_equals_reference_loops(tmp_path, monkeypatch):
    # no validation split: knn's k and every score come from 5-fold CV on
    # neighbour orders, and lle embeds every fold's windows
    path = tmp_path / "tones_long.csv"
    write_long_csv(generate(SynthSpec(kind="tones", classes=3, n_per_class=12,
                                      tau=40, channels=2, noise_sigma=0.3,
                                      seed=31)), path)
    obj = {
        "seed": 13,
        "datasets": [{"name": "tones", "path": str(path), "format": "long_csv",
                      "tau": 16, "omega": 8, "normalization": "zscore",
                      "ratios": [0.7, 0.0, 0.3]}],
        "embeddings": [{"method": "fft"},
                       {"method": "lle", "params": {"K": 6, "d": 3}}],
        "classifiers": [{"kind": "knn", "grid": {"k": [1, 3, 5, 7]}},
                        {"kind": "logreg", "params": {"max_iter": 50}}],
    }

    def reports(out_dir):
        report = run_grid(parse_config(dict(obj, output_dir=str(out_dir))))
        assert all(c.status == "ok" for c in report.cells)
        emit_reports(report, str(out_dir))
        files = {name: (out_dir / name).read_bytes()
                 for name in ("cells.csv", "summary.csv", "ranks.csv")}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return files, manifest["selected_params"]

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    fast = reports(tmp_path / "fast")
    monkeypatch.setitem(classify._PREDICTORS, classify.KnnModel,
                        counted(predict_knn_reference))
    monkeypatch.setattr(bench, "lle_fit", counted(lle_fit_reference))
    monkeypatch.setattr(bench, "lle_transform", counted(lle_transform_reference))
    assert reports(tmp_path / "reference") == fast
    assert {"predict_knn_reference", "lle_fit_reference",
            "lle_transform_reference"} <= set(calls)


@pytest.mark.parametrize("ratios", [[0.5, 0.25, 0.25], [0.75, 0.0, 0.25]],
                         ids=["validation", "cross-validation"])
def test_run_grid_selection_equals_reference(tones_csv, tmp_path, monkeypatch, ratios):
    # one selection loop against the per-combo selection it replaced, which
    # refit the winner even where the validation split had scored that fit
    obj = base_config(tones_csv, tmp_path, classifiers=[
        {"kind": "knn", "grid": {"k": [1, 3, 5]}},
        {"kind": "tree", "grid": {"max_depth": [1, 2, 8]}},
        {"kind": "forest", "params": {"n_trees": 3}, "grid": {"max_depth": [2, 4]}},
        {"kind": "mlp", "params": {"hidden": 4, "epochs": 5}},
    ])
    obj["datasets"][0]["ratios"] = ratios

    def reports(out_dir):
        report = run_grid(parse_config(obj))
        assert all(c.status == "ok" for c in report.cells)
        emit_reports(report, str(out_dir))
        return {name: (out_dir / name).read_bytes()
                for name in ("cells.csv", "summary.csv", "ranks.csv", "manifest.json")}

    fits = []
    fit, run_cell = classify.fit, bench._run_cell

    def counting_fit(*args, **kwargs):
        fits.append(args[0])
        return fit(*args, **kwargs)

    def counting_run_cell(dataset, embedding, clf, Xtr, ytr, Xval, yval, *rest):
        before = len(fits)
        cell = run_cell(dataset, embedding, clf, Xtr, ytr, Xval, yval, *rest)
        combos = len(_expand_grid(clf.grid))
        if Xval is not None and len(Xval):
            assert len(fits) - before == combos, clf.name
        else:
            assert len(fits) - before == min(5, len(Xtr)) * combos + 1, clf.name
        counted.append(clf.name)
        return cell

    counted = []
    monkeypatch.setattr(classify, "fit", counting_fit)
    monkeypatch.setattr(bench, "_run_cell", counting_run_cell)
    fast = reports(tmp_path / "fast")
    assert len(counted) == 2 * 4
    monkeypatch.setattr(bench, "_run_cell", run_cell_reference)
    assert reports(tmp_path / "reference") == fast


def test_run_grid_rejects_oversized_windows(tones_csv, tmp_path):
    obj = base_config(tones_csv, tmp_path / "out")
    obj["datasets"][0]["tau"] = 99
    with pytest.raises(ConfigError, match="windows"):
        run_grid(parse_config(obj))


def test_emit_reports_layout(tones_csv, tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(base_config(tones_csv, out))
    report = run_grid(cfg)
    paths = emit_reports(report, str(out))
    names = [p.rsplit("/", 1)[1] for p in paths]
    assert names == ["cells.csv", "summary.csv", "ranks.csv", "timings.csv",
                     "manifest.json"]
    cells_lines = (out / "cells.csv").read_text().strip().split("\n")
    assert cells_lines[0] == "dataset,embedding,classifier,accuracy,status"
    assert len(cells_lines) == 5
    ranks_lines = (out / "ranks.csv").read_text().strip().split("\n")
    assert ranks_lines[0] == "embedding,avg_rank"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["datasets"] == ["tones"]
    assert "tones/fft/knn" in manifest["selected_params"]
    assert manifest["effective_params"]["tones"]["pca"]["d"] == 4


def test_dump_embeddings(tones_csv, tmp_path):
    out = tmp_path / "out"
    cfg = parse_config(base_config(tones_csv, out))
    path = dump_embeddings(cfg, "tones", "fft")
    assert path.endswith("embeddings_fft_tones.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    # 24 series, one window each; fft dim for tau=16, C=1 is 9
    assert lines[0] == "id,label," + ",".join(f"v{i}" for i in range(9))
    assert len(lines) == 25
    first_id = lines[1].split(",")[0]
    assert ":" in first_id
    with pytest.raises(ConfigError):
        dump_embeddings(cfg, "nope", "fft")
    with pytest.raises(ConfigError):
        dump_embeddings(cfg, "tones", "nope")


def test_reports_and_dump_quote_names_that_need_it(tmp_path):
    # a name or series id with a comma, a quote or a newline is one CSV field
    ds = generate(SynthSpec(kind="tones", classes=2, n_per_class=6, tau=16, seed=3))
    for i, rec in enumerate(ds.series):
        rec.series_id = rec.series_id.replace("-i", ",i") + ('"q' if i % 2 else "")
    save_wide_csv(ds, tmp_path / "odd.csv")
    obj = base_config(str(tmp_path / "odd.csv"), tmp_path / "out")
    obj["datasets"][0]["name"] = "to,y"
    obj["embeddings"] = [{"method": "fft", "name": 'f"t'}, {"method": "pca", "name": "p\nca",
                                                          "params": {"d": 2}}]
    obj["classifiers"] = [{"kind": "knn", "name": "k,nn"}, {"kind": "gnb", "name": "g\r\nb"}]
    cfg = parse_config(obj)
    paths = emit_reports(run_grid(cfg), cfg.output_dir)
    paths.append(dump_embeddings(cfg, "to,y", 'f"t'))
    rows = {}
    for path in (p for p in paths if p.endswith(".csv")):
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in body), path
        rows[path.rsplit("/", 1)[1]] = body
    assert [row[:3] for row in rows["cells.csv"]] == [
        ["to,y", e, c] for e in ('f"t', "p\nca") for c in ("k,nn", "g\r\nb")]
    assert [row[:2] for row in rows["summary.csv"]] == [["to,y", 'f"t'], ["to,y", "p\nca"]]
    assert [row[0] for row in rows["ranks.csv"]] == ['f"t', "p\nca"]
    assert [row[:3] for row in rows["timings.csv"]] == [row[:3] for row in rows["cells.csv"]]
    dumped = rows['embeddings_f"t_to,y.csv']
    assert sorted(row[0] for row in dumped) == sorted(f"{r.series_id}:0" for r in ds.series)


def test_cell_result_defaults():
    cell = CellResult("d", "e", "c", 0.5, "ok", {}, 0.0)
    assert cell.dataset == "d" and cell.accuracy == 0.5
