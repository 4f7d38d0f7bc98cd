import json

import numpy as np
from click.testing import CliRunner

from tsembed import cli
from tsembed.cli import main
from tsembed.data_io import load_wide_csv


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
