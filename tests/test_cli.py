import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsembed import cli
from tsembed.cli import main
from tsembed.data_io import load_wide_csv, save_wide_csv
from tsembed.synthgen import SynthSpec, generate


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write_config(tmp_path, data_csv):
    cfg = {
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "datasets": [{
            "name": "toy", "path": str(data_csv), "format": "wide_csv",
            "tau": 16, "omega": 0, "normalization": "zscore",
            "ratios": [0.5, 0.25, 0.25],
        }],
        "embeddings": [{"method": "fft"}, {"method": "pca", "params": {"d": 4}}],
        "classifiers": [{"kind": "knn", "grid": {"k": [1, 3]}}, {"kind": "gnb"}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def make_data(tmp_path):
    data_csv = tmp_path / "toy.csv"
    result = invoke("synth", "--kind", "tones", "--out", str(data_csv),
                    "--n-per-class", "12", "--tau", "16", "--seed", "21")
    assert result.exit_code == 0, result.output
    return data_csv


def test_synth_writes_loadable_dataset(tmp_path):
    data_csv = make_data(tmp_path)
    assert "24 series" in invoke(
        "synth", "--kind", "tones", "--out", str(tmp_path / "x.csv"),
        "--n-per-class", "12", "--tau", "16").output
    ds = load_wide_csv(str(data_csv))
    assert len(ds.series) == 24
    assert ds.series[0].values.shape == (16, 1)


def test_synth_rejects_bad_params(tmp_path):
    result = invoke("synth", "--kind", "tones", "--out",
                    str(tmp_path / "x.csv"), "--tau", "4")
    assert result.exit_code != 0
    assert "tau" in result.output


def test_run_end_to_end(tmp_path):
    data_csv = make_data(tmp_path)
    cfg_path = write_config(tmp_path, data_csv)
    result = invoke("run", "--config", str(cfg_path))
    assert result.exit_code == 0, result.output
    assert result.output.startswith("4/4 cells ok\n")
    out = tmp_path / "out"
    for name in ("cells.csv", "summary.csv", "ranks.csv", "timings.csv",
                 "manifest.json"):
        assert (out / name).exists()
        assert str(out / name) in result.output


def test_run_reports_config_errors_cleanly(tmp_path):
    data_csv = make_data(tmp_path)
    cfg_path = write_config(tmp_path, data_csv)
    obj = json.loads(cfg_path.read_text())
    obj["datasets"][0]["normalization"] = "robust"
    cfg_path.write_text(json.dumps(obj))
    result = invoke("run", "--config", str(cfg_path))
    assert result.exit_code != 0
    assert "unknown normalization" in result.output
    assert "Traceback" not in result.output


def test_embed_dumps_vectors(tmp_path):
    data_csv = make_data(tmp_path)
    cfg_path = write_config(tmp_path, data_csv)
    result = invoke("embed", "--config", str(cfg_path), "--method", "fft",
                    "--dataset", "toy", "--out", str(tmp_path / "dump"))
    assert result.exit_code == 0, result.output
    path = result.output.strip()
    assert path.endswith("embeddings_fft_toy.csv")
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0].startswith("id,label,v0")
    assert len(lines) == 25


def one_error_line(result, *words):
    """The command failed with exit code 1 and one Error: line naming each word."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    for word in words:
        assert word in lines[0], (word, lines[0])


def test_run_rejects_config_that_is_not_utf8(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b'{"seed": 1, "output_dir": "caf\xe9"}')
    one_error_line(invoke("run", "--config", str(cfg_path)), str(cfg_path), "not UTF-8")


def test_dataset_csv_that_is_not_utf8_is_one_error_line(tmp_path):
    data_csv = make_data(tmp_path)
    # a latin-1 byte opens the last row's group name
    data = data_csv.read_bytes()
    at = data.index(b",", data.rindex(b"\n", 0, len(data) - 1)) + 1
    data_csv.write_bytes(data[:at] + b"\xe9" + data[at:])
    cfg_path = write_config(tmp_path, data_csv)
    one_error_line(invoke("run", "--config", str(cfg_path)), str(data_csv), "not UTF-8")
    one_error_line(invoke("embed", "--config", str(cfg_path), "--method", "fft",
                          "--dataset", "toy"), str(data_csv), "not UTF-8")


def test_csv_field_over_the_limit_is_one_error_line(tmp_path):
    data_csv = make_data(tmp_path)
    with open(data_csv, "a") as fh:
        fh.write("s,g," + "x" * 131073 + "\n")
    cfg_path = write_config(tmp_path, data_csv)
    one_error_line(invoke("run", "--config", str(cfg_path)), str(data_csv),
                   "field larger than field limit")
    acc = tmp_path / "acc.csv"
    acc.write_text("dataset,a,b\nd1,0.9,0.1\nd2," + "9" * 131073 + ",0.8\n")
    one_error_line(invoke("rank", "--accuracies", str(acc)), f"{acc} line 3",
                   "field larger than field limit")


def test_output_dir_that_is_a_file_fails_before_the_grid(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    (tmp_path / "out").write_text("not a directory")
    calls = []
    monkeypatch.setattr(cli, "run_grid", lambda cfg: calls.append(cfg))
    one_error_line(invoke("run", "--config", str(cfg_path)), "output_dir", str(tmp_path / "out"))
    assert calls == []
    one_error_line(invoke("embed", "--config", str(cfg_path), "--method", "fft",
                          "--dataset", "toy"), "output_dir")


def test_unwritable_report_files_are_one_error_line(tmp_path):
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    (tmp_path / "out" / "cells.csv").mkdir(parents=True)
    one_error_line(invoke("run", "--config", str(cfg_path)), "cells.csv")
    (tmp_path / "out" / "embeddings_fft_toy.csv").mkdir()
    one_error_line(invoke("embed", "--config", str(cfg_path), "--method", "fft",
                          "--dataset", "toy"), "embeddings_fft_toy.csv")


def test_synth_into_missing_directory_is_one_error_line(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    one_error_line(invoke("synth", "--kind", "tones", "--out", str(out)), str(out))
    assert not out.parent.exists()


def test_embed_unknown_names(tmp_path):
    data_csv = make_data(tmp_path)
    cfg_path = write_config(tmp_path, data_csv)
    result = invoke("embed", "--config", str(cfg_path), "--method", "umap",
                    "--dataset", "toy")
    assert result.exit_code != 0
    assert "umap" in result.output


def test_rank_first_policy(tmp_path):
    acc = tmp_path / "acc.csv"
    acc.write_text("dataset,a,b,c\nd1,0.9,0.9,0.5\n")
    result = invoke("rank", "--accuracies", str(acc))
    assert result.exit_code == 0
    assert result.output == "method,avg_rank\na,1\nb,2\nc,3\n"


def test_rank_competition_policy(tmp_path):
    acc = tmp_path / "acc.csv"
    acc.write_text("dataset,a,b,c\nd1,0.9,0.9,0.5\n")
    result = invoke("rank", "--accuracies", str(acc), "--ties", "competition")
    assert result.output == "method,avg_rank\na,1\nb,1\nc,3\n"


def test_rank_averages_rows(tmp_path):
    acc = tmp_path / "acc.csv"
    acc.write_text("dataset,a,b\nd1,0.9,0.1\nd2,0.2,0.8\nd3,0.7,0.3\n")
    result = invoke("rank", "--accuracies", str(acc))
    lines = result.output.strip().split("\n")
    assert lines[1] == "a," + "%.6g" % (4 / 3)
    assert lines[2] == "b," + "%.6g" % (5 / 3)


def test_rank_rejects_malformed_table(tmp_path):
    acc = tmp_path / "acc.csv"
    acc.write_text("wrong,a\nd1,0.9\n")
    result = invoke("rank", "--accuracies", str(acc))
    assert result.exit_code != 0


def test_run_twice_identical_outputs(tmp_path):
    data_csv = make_data(tmp_path)
    cfg_path = write_config(tmp_path, data_csv)
    assert invoke("run", "--config", str(cfg_path)).exit_code == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("cells.csv", "summary.csv", "ranks.csv")}
    assert invoke("run", "--config", str(cfg_path)).exit_code == 0
    for name, blob in first.items():
        assert (tmp_path / "out" / name).read_bytes() == blob, name


def test_module_entry_point():
    import subprocess
    import sys
    from pathlib import Path

    import tsembed
    # run from the package's parent so a checkout needs no PYTHONPATH
    src = Path(tsembed.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "tsembed", "--help"],
                          cwd=src, capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("run", "embed", "rank", "synth"):
        assert word in proc.stdout


def test_bad_row_in_a_split_file_names_that_file_once(tmp_path):
    header = "# channels=1\nseries_id,group,label,c0_t0,c0_t1,c0_t2,c0_t3\n"
    paths = {}
    for split, rows in (("train", "a,g1,x,1,2,3,4\nb,g2,y,4,3,2,1\n"),
                        ("val", "c,g3,x,1,2,3,4\nd,g4,y,4,abc,2,1\n"),
                        ("test", "e,g5,x,1,2,3,4\n")):
        paths[split] = tmp_path / f"{split}.csv"
        paths[split].write_text(header + rows)
    cfg = {"output_dir": str(tmp_path / "out"),
           "datasets": [{"name": "toy", "format": "wide_csv", "tau": 4, "omega": 0,
                         "normalization": "zscore",
                         **{f"{split}_path": str(path) for split, path in paths.items()}}],
           "embeddings": [{"method": "fft"}], "classifiers": [{"kind": "knn"}]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    result = invoke("run", "--config", str(cfg_path))
    one_error_line(result, "dataset 'toy'", f"{paths['val']}: line 4: 'abc' is not a number")
    assert result.output.count(str(tmp_path)) == 1
    # a message that starts with the path already keeps its one mention
    paths["val"].write_bytes(header.encode() + b"c,g\xe9,x,1,2,3,4\n")
    result = invoke("run", "--config", str(cfg_path))
    one_error_line(result, f"{paths['val']}: not UTF-8")
    assert result.output.count(str(tmp_path)) == 1


def test_tau_longer_than_any_series_is_one_error_line(tmp_path):
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    obj = json.loads(cfg_path.read_text())
    obj["datasets"][0]["tau"] = 2 ** 62
    cfg_path.write_text(json.dumps(obj))
    one_error_line(invoke("run", "--config", str(cfg_path)), "tau", str(2 ** 62))
    one_error_line(invoke("embed", "--config", str(cfg_path), "--method", "fft",
                          "--dataset", "toy"), "tau", str(2 ** 62))


def test_wavelet_scale_below_the_floor_is_one_error_line(tmp_path):
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    obj = json.loads(cfg_path.read_text())
    obj["embeddings"] = [{"method": "wavelet", "params": {"scales": [1e-320, 2.0]}}]
    cfg_path.write_text(json.dumps(obj))
    one_error_line(invoke("run", "--config", str(cfg_path)), "embedding 'wavelet'",
                   "scales must be >= 1e-06")


def test_wavelet_omega0_out_of_range_is_one_error_line(tmp_path):
    # a finite 1e308 used to overflow the Morlet phase in every wavelet cell
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    obj = json.loads(cfg_path.read_text())
    for omega0 in (1e308, 0):
        obj["embeddings"] = [{"method": "wavelet", "params": {"omega0": omega0}}]
        cfg_path.write_text(json.dumps(obj))
        one_error_line(invoke("run", "--config", str(cfg_path)), "embedding 'wavelet'",
                       f"omega0 must be > 0 and <= 1e+06, got {omega0}")


def test_tda_grid_size_below_two_is_one_error_line(tmp_path):
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    obj = json.loads(cfg_path.read_text())
    obj["embeddings"] = [{"method": "tda", "params": {"grid_size": 1}}]
    cfg_path.write_text(json.dumps(obj))
    one_error_line(invoke("run", "--config", str(cfg_path)), "embedding 'tda'",
                   "'grid_size' must be between 2 and 4096, got 1")


def test_segmentation_error_names_the_dataset(tmp_path):
    cfg_path = write_config(tmp_path, make_data(tmp_path))
    obj = json.loads(cfg_path.read_text())
    obj["datasets"].append(dict(obj["datasets"][0], name="second", omega=20))
    cfg_path.write_text(json.dumps(obj))
    one_error_line(invoke("run", "--config", str(cfg_path)), "dataset 'second': ",
                   "overlap omega must satisfy 0 <= omega < tau, got 20")
    one_error_line(invoke("embed", "--config", str(cfg_path), "--method", "fft",
                          "--dataset", "second"), "dataset 'second': ", "omega")


# ------------------------------------------------------------ config fuzz

REPORTS = ("cells.csv", "summary.csv", "ranks.csv", "timings.csv", "manifest.json")
# values for the keys that size the data (tau, omega, channels, seed, ratios)
# and for tda's grid_size and wavelet's omega0, the embedding params with a
# documented range
SIZE_POOL = (0, -1, 1, 2, 2 ** 62, 1.5, True, "x", None, [])
TDA_GRID_SIZE = ("embeddings", 5, "params", "grid_size")
WAVELET_OMEGA0 = ("embeddings", 1, "params", "omega0")
SIZED_PATHS = (("seed",),) + tuple(("datasets", 0, key) for key in ("tau", "omega", "channels")) \
    + tuple(("datasets", 0, "ratios", i) for i in range(3)) + (TDA_GRID_SIZE, WAVELET_OMEGA0)
# one value of each JSON type; a retyped key takes one of another type
RETYPES = ("x", None, [], {}, True, 1.5)
DROP = object()  # with_value's marker for deleting the entry


def fuzz_config():
    """Seven methods, four classifiers and one 12-series wide CSV "toy.csv",
    every size small so a run takes a fraction of a second."""
    return {
        "seed": 5,
        "output_dir": "out",
        "datasets": [{"name": "toy", "path": "toy.csv", "format": "wide_csv", "channels": 1,
                      "tau": 8, "omega": 4, "normalization": "zscore",
                      "ratios": [0.5, 0.25, 0.25]}],
        "embeddings": [{"method": "fft"}, {"method": "wavelet", "params": {"scales": [2.0]}},
                       {"method": "pca", "params": {"d": 2}},
                       {"method": "lle", "params": {"d": 2, "K": 4, "reg": 0.001}},
                       {"method": "graph"}, {"method": "tda", "params": {"grid_size": 4}},
                       {"method": "ae", "params": {"d": 2, "epochs": 2, "batch": 8}}],
        "classifiers": [{"kind": "knn", "grid": {"k": [1, 3]}}, {"kind": "gnb"},
                        {"kind": "logreg", "params": {"max_iter": 20}},
                        {"kind": "tree", "name": "stump", "params": {"max_depth": 2}}],
    }


def paths_of(node, path=()):
    """(path, value) of every dict entry and list element below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from paths_of(value, path + (key,))


@st.composite
def mutated_configs(draw):
    """fuzz_config with one key dropped or retyped, one list emptied, or one
    size-setting key set from SIZE_POOL. Embedding and classifier params other
    than tda's grid_size and wavelet's omega0, whose ranges are documented,
    are never given a size: epochs or n_trees at 2**62 would never finish."""
    cfg = fuzz_config()
    entries = list(paths_of(cfg))
    kind = draw(st.sampled_from(["drop", "retype", "empty", "size"]))
    if kind == "drop":
        path = draw(st.sampled_from([p for p, _ in entries if isinstance(p[-1], str)]))
        value = DROP
    elif kind == "retype":
        path, old = draw(st.sampled_from(entries))
        value = draw(st.sampled_from([v for v in RETYPES if type(v) is not type(old)]))
    elif kind == "empty":
        path = draw(st.sampled_from([p for p, v in entries if isinstance(v, list)]))
        value = []
    else:
        path, value = draw(st.sampled_from(SIZED_PATHS)), draw(st.sampled_from(SIZE_POOL))
    return with_value(cfg, path, value)


def with_value(cfg, path, value):
    """cfg with the entry at path set to value, or deleted for DROP."""
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "toy.csv"
    save_wide_csv(generate(SynthSpec("tones", classes=2, n_per_class=6, tau=16, seed=21)),
                  str(path))
    return path.read_bytes()


@settings(max_examples=150, deadline=None, database=None)
@given(cfg=mutated_configs())
@example(cfg=with_value(fuzz_config(), ("datasets", 0, "tau"), 2 ** 62))
@example(cfg=with_value(fuzz_config(), TDA_GRID_SIZE, 2 ** 62))
@example(cfg=with_value(fuzz_config(), WAVELET_OMEGA0, 1e308))
@example(cfg=fuzz_config())
def test_mutated_configs_end_in_reports_or_one_error_line(toy_csv, cfg):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("toy.csv", "wb") as fh:
            fh.write(toy_csv)
        with open("config.json", "w") as fh:
            json.dump(cfg, fh)
        result = runner.invoke(main, ["run", "--config", "config.json"])
        if result.exit_code == 0:
            for name in REPORTS:
                assert os.path.isfile(os.path.join(cfg["output_dir"], name)), (name, cfg)
        else:
            one_error_line(result)
