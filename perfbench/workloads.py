"""The benchmark's workloads: seeded input files and the grid config for each.

Every input comes from ``tsembed.synthgen.generate`` seeded by the workload
seed, plus this module's own concatenation step for ``many_windows``. Files
are written once, before anything is timed; the program only ever sees the
files and the config that names them.

demo_grid     the grid of ``scripts/demo_benchmark.py`` (copied here, so a
              change to that script cannot move the benchmark): three synthetic
              kinds at tau 64, all seven embeddings, knn/gnb/tree. Users start
              from this run; tda landscape norms and tree split search do most
              of its work, data loading almost none.
long_windows  two wide-CSV datasets at tau 256 and tau 1024, all seven
              embeddings, knn and gnb only. Per-window cost dominates: NVG
              build (O(tau^2)), the Morlet transform, pca/ae on wide inputs.
              tda fails here with CapacityError after computing its landscape
              norms; the failure and its cost are part of the workload.
many_windows  long two-channel series in long CSV, concatenated from
              segments of mixed classes, tau 64 with overlap 32 and no
              validation split, so selection runs 5-fold cross-validation.
              Classifier fits, dense LLE, the long-CSV parser and the
              embedding CSV writer carry the work; no tda/graph/wavelet.
"""

from __future__ import annotations

import os

from tsembed.data_io import save_wide_csv
from tsembed.rng import Xoshiro256StarStar, derive_seed
from tsembed.synthgen import SynthSpec, generate

_ALL_EMBEDDINGS = [
    {"method": "fft"},
    {"method": "wavelet"},
    {"method": "pca", "params": {"d": 8}},
    {"method": "lle", "params": {"K": 12, "d": 8}},
    {"method": "graph"},
    {"method": "tda"},
    {"method": "ae", "params": {"d": 8, "epochs": 40}},
]


def _dump(dataset: str, rows: int) -> dict:
    """The timed dump: fft on one dataset, the ``tsembed embed`` path."""
    return {"dataset": dataset, "embedding": "fft", "rows": rows}


def _wide_dataset(data_dir: str, kind: str, tau: int, n_per_class: int,
                  seed: int) -> dict:
    path = os.path.join(data_dir, f"{kind}_{tau}.csv")
    ds = generate(SynthSpec(kind=kind, classes=3, tau=tau, n_per_class=n_per_class,
                            channels=1, noise_sigma=0.2, seed=seed))
    save_wide_csv(ds, path)
    return {"name": f"{kind}{tau}", "path": path, "format": "wide_csv",
            "tau": tau, "omega": 0, "normalization": "zscore",
            "ratios": [0.6, 0.2, 0.2]}


def _demo_grid(data_dir: str, seed: int) -> tuple[dict, dict]:
    datasets = [_wide_dataset(data_dir, kind, 64, 60, seed)
                for kind in ("tones", "trends", "statebursts")]
    classifiers = [
        {"kind": "knn", "grid": {"k": [1, 3, 5]}},
        {"kind": "gnb"},
        {"kind": "tree", "grid": {"max_depth": [4, 8]}},
    ]
    return ({"datasets": datasets, "embeddings": _ALL_EMBEDDINGS,
             "classifiers": classifiers}, _dump(datasets[0]["name"], 3 * 60))


def _long_windows(data_dir: str, seed: int) -> tuple[dict, dict]:
    datasets = [_wide_dataset(data_dir, "statebursts", 256, 50, seed),
                _wide_dataset(data_dir, "tones", 1024, 40, seed)]
    classifiers = [{"kind": "knn", "grid": {"k": [1, 3, 5]}}, {"kind": "gnb"}]
    return ({"datasets": datasets, "embeddings": _ALL_EMBEDDINGS,
             "classifiers": classifiers}, _dump(datasets[1]["name"], 3 * 40))


# many_windows: MW_SERIES long series of MW_SEGMENTS segments of MW_SEG_LEN
# steps each; windows of 64 with step 32 give 2 * MW_SEGMENTS - 1 per series.
MW_SERIES = 20
MW_SEGMENTS = 47
MW_SEG_LEN = 64
MW_CLASSES = 3


def _write_long_csv(path: str, series: list[tuple[str, list]]) -> None:
    """Long layout: one ``series_id,group,channel,t,value,label`` row per cell.

    ``series`` holds (series_id, segments) with segments as (values (T, C),
    label token) pairs laid end to end.
    """
    with open(path, "w", newline="") as fh:
        fh.write("series_id,group,channel,t,value,label\n")
        for sid, segments in series:
            t0 = 0
            for values, token in segments:
                for t in range(values.shape[0]):
                    for c in range(values.shape[1]):
                        fh.write(f"{sid},{sid},{c},{t0 + t},"
                                 f"{float(values[t, c])!r},{token}\n")
                t0 += values.shape[0]


def _many_windows(data_dir: str, seed: int) -> tuple[dict, dict]:
    n_segments = MW_SERIES * MW_SEGMENTS
    pool = generate(SynthSpec(kind="tones", classes=MW_CLASSES, tau=MW_SEG_LEN,
                              n_per_class=-(-n_segments // MW_CLASSES),
                              channels=2, noise_sigma=0.3, seed=seed))
    records = pool.series
    order = list(range(len(records)))
    Xoshiro256StarStar(derive_seed(seed, "perfbench", "concat")).shuffle(order)
    series = []
    for s in range(MW_SERIES):
        picked = order[s * MW_SEGMENTS:(s + 1) * MW_SEGMENTS]
        segments = [(records[i].values,
                     pool.label_alphabet[int(records[i].labels[0])]) for i in picked]
        series.append((f"long{s:03d}", segments))
    path = os.path.join(data_dir, "mixed_tones.csv")
    _write_long_csv(path, series)
    datasets = [{"name": "mixed_tones", "path": path, "format": "long_csv",
                 "tau": 64, "omega": 32, "normalization": "zscore",
                 "ratios": [0.7, 0.0, 0.3]}]
    embeddings = [
        {"method": "fft"},
        {"method": "pca", "params": {"d": 8}},
        {"method": "lle", "params": {"K": 12, "d": 8}},
    ]
    classifiers = [
        {"kind": "knn", "grid": {"k": [1, 3, 5]}},
        {"kind": "logreg", "params": {"max_iter": 50}},
        {"kind": "forest", "params": {"n_trees": 3, "max_depth": 3}},
        {"kind": "mlp", "params": {"epochs": 3, "hidden": 16}},
    ]
    return ({"datasets": datasets, "embeddings": embeddings,
             "classifiers": classifiers},
            _dump("mixed_tones", MW_SERIES * (2 * MW_SEGMENTS - 1)))


_BUILDERS = {
    "demo_grid": _demo_grid,
    "long_windows": _long_windows,
    "many_windows": _many_windows,
}
WORKLOADS = tuple(_BUILDERS)


def build_inputs(workload: str, work_dir: str, seed: int) -> dict:
    """Write the workload's input files under work_dir; return its run spec.

    The spec holds the grid config (as ``tsembed run`` reads it) and the
    dataset and embedding of the timed ``dump_embeddings`` call, with the
    number of windows (rows) its file must hold.
    """
    data_dir = os.path.join(work_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    grid, dump = _BUILDERS[workload](data_dir, seed)
    config = {"seed": seed, "output_dir": os.path.join(work_dir, "out"), **grid}
    return {"workload": workload, "config": config, "dump": dump}
