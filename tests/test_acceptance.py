"""Acceptance gate: six release criteria, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Every criterion is a single test with its tolerance and runtime budget stated
inline; a failing assertion prints the FAIL line and then surfaces the usual
pytest detail.
"""

import functools
import itertools
import json
import time

import numpy as np
from click.testing import CliRunner

from batches import segment, window_batch
from test_embed_graph import edges
from test_embed_subspace import dense_weights
from tsembed import classify
from tsembed.bench import EmbeddingCfg, average_rank, make_embedder
from tsembed.cli import main
from tsembed.data_io import save_wide_csv, split_by_group
from tsembed.embed_graph import hvg_build, nvg_build
from tsembed.embed_neural import NetworkSpec, init_network, net_backward, net_forward
from tsembed.embed_spectral import CwtConfig, default_scales, fft_embed, wavelet_embed
from tsembed.embed_subspace import lle_fit, pca_fit
from tsembed.embed_tda import bottleneck, sublevel_persistence, wasserstein
from tsembed.preprocess import apply_normalizer_all, fit_normalizer, segment_dataset
from tsembed.rng import Xoshiro256StarStar, derive_seed
from tsembed.synthgen import SynthSpec, generate


def _gate(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({name}): PASS")
        return run
    return wrap


# ------------------------------------------------- 1. ranking protocol

# Reference benchmark: ten public datasets by ten embedding methods, with the
# known average ranks of the methods. The ranking protocol must reproduce the
# known rank row from the accuracy table alone.
_REFERENCE_METHODS = ("pca", "wavelet", "fft", "lle", "umap",
                      "graph", "tda", "ae", "ccnn", "crnn")
_REFERENCE_ROWS = [
    ("Sleep", "0.685,0.715,0.698,0.645,0.665,0.673,0.638,0.625,0.667,0.623"),
    ("ElectricDevices", "0.572,0.563,0.568,0.542,0.555,0.548,0.535,0.525,0.542,0.515"),
    ("MelbournePedestrian", "0.662,0.655,0.685,0.625,0.648,0.652,0.592,0.585,0.602,0.562"),
    ("Racketsport", "0.708,0.728,0.715,0.675,0.685,0.690,0.622,0.638,0.672,0.602"),
    ("SharePriceIncrease", "0.695,0.679,0.689,0.621,0.636,0.679,0.683,0.643,0.661,0.655"),
    ("SelfRegulationSCP1", "0.745,0.782,0.762,0.705,0.728,0.698,0.685,0.675,0.715,0.658"),
    ("UniMib", "0.754,0.777,0.709,0.761,0.650,0.650,0.633,0.551,0.664,0.411"),
    ("EMGGestures", "0.615,0.668,0.642,0.592,0.605,0.622,0.585,0.562,0.635,0.535"),
    ("Mill", "0.899,0.826,0.909,0.809,0.851,0.812,0.766,0.776,0.834,0.715"),
    ("ECG5000", "0.923,0.925,0.927,0.911,0.901,0.920,0.681,0.741,0.902,0.892"),
]
_REFERENCE_AVG_RANKS = (2.6, 2.2, 1.9, 6.2, 5.5, 5.0, 7.9, 8.7, 5.5, 9.5)


@_gate(1, "ranking protocol reproduction")
def test_ranking_protocol_reproduction(tmp_path):
    path = tmp_path / "reference_accuracies.csv"
    lines = ["dataset," + ",".join(_REFERENCE_METHODS)]
    lines += [f"{name},{row}" for name, row in _REFERENCE_ROWS]
    path.write_text("\n".join(lines) + "\n")

    t0 = time.perf_counter()
    result = CliRunner().invoke(main, ["rank", "--accuracies", str(path)])
    elapsed = time.perf_counter() - t0

    assert result.exit_code == 0, result.output
    out = result.output.strip().splitlines()
    assert out[0] == "method,avg_rank"
    got = {line.split(",")[0]: float(line.split(",")[1]) for line in out[1:]}
    for method, expected in zip(_REFERENCE_METHODS, _REFERENCE_AVG_RANKS):
        assert abs(got[method] - expected) <= 0.05, (method, got[method], expected)
    assert elapsed < 1.0, elapsed


# ------------------------------------------------- 2. oracle equivalence

def _brute_nvg(x):
    """O(n^3) chord criterion, the defining inequality checked literally."""
    n = len(x)
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if all(x[k] < x[i] + (x[j] - x[i]) * (k - i) / (j - i)
                   for k in range(i + 1, j))}


def _brute_hvg(x):
    n = len(x)
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if all(x[k] < x[i] and x[k] < x[j] for k in range(i + 1, j))}


def _sweep_persistence(x):
    """Independent 0-dim sublevel diagram by explicit component bookkeeping.

    Activates samples one distinct threshold at a time (left to right within
    a threshold) and applies the elder rule on (min value, min index) keys.
    Returns (sorted finite pairs, essential pair).
    """
    x = [float(v) for v in x]
    n = len(x)
    comp = [None] * n
    birth = {}
    finite = []
    fresh = 0
    for v in sorted(set(x)):
        for t in [i for i in range(n) if x[i] == v]:
            left = comp[t - 1] if t > 0 else None
            right = comp[t + 1] if t + 1 < n else None
            if left is None and right is None:
                comp[t] = fresh
                birth[fresh] = (v, t)
                fresh += 1
            elif left is None or right is None:
                comp[t] = left if left is not None else right
            else:
                keep, die = ((left, right) if birth[left] <= birth[right]
                             else (right, left))
                if birth[die][0] < v:  # zero-persistence merges are dropped
                    finite.append((birth[die][0], v))
                comp = [keep if c == die else c for c in comp]
                comp[t] = keep
                del birth[die]
    return sorted(finite), (min(x), max(x))


def _oracle_distances(d1, d2):
    """Minimal W1/W2/bottleneck by enumerating every partial injection of one
    diagram's points into the other's; unmatched points pair to the diagonal."""
    a = list(zip(d1.births, d1.deaths))
    b = list(zip(d2.births, d2.deaths))

    def dist(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def diag(p):
        return (p[1] - p[0]) / 2.0

    best = [np.inf, np.inf, np.inf]  # W1, W2, bottleneck
    for k in range(min(len(a), len(b)) + 1):
        for sub_a in itertools.combinations(range(len(a)), k):
            rest_a = [i for i in range(len(a)) if i not in sub_a]
            for sub_b in itertools.permutations(range(len(b)), k):
                costs = [dist(a[i], b[j]) for i, j in zip(sub_a, sub_b)]
                costs += [diag(a[i]) for i in rest_a]
                costs += [diag(b[j]) for j in range(len(b)) if j not in sub_b]
                best[0] = min(best[0], sum(costs))
                best[1] = min(best[1], sum(c * c for c in costs) ** 0.5)
                best[2] = min(best[2], max(costs, default=0.0))
    return best


def _random_signal(rng, max_len, min_len=2):
    n = min_len + rng.randbelow(max_len - min_len + 1)
    x = np.array(rng.gauss_vector(n))
    if rng.randbelow(3) == 0:
        x = np.round(x * 2.0)  # plateaus and exact ties
    return x


@_gate(2, "oracle equivalence")
def test_oracle_equivalence():
    t0 = time.perf_counter()
    rng = Xoshiro256StarStar(202)

    # visibility graphs vs the O(n^3) definition, exact edge sets
    for _ in range(200):
        x = _random_signal(rng, 64)
        assert {(i, j) for i, j, _ in edges(nvg_build(x))} == _brute_nvg(x)
        assert {(i, j) for i, j, _ in edges(hvg_build(x))} == _brute_hvg(x)

    # sublevel persistence vs threshold-sweep components, exact diagrams
    for _ in range(200):
        x = _random_signal(rng, 32, min_len=1)
        dgm = sublevel_persistence(x)
        finite, essential = _sweep_persistence(x)
        assert bool(dgm.essential[-1]) and int(dgm.essential.sum()) == 1
        assert (dgm.births[-1], dgm.deaths[-1]) == essential
        got = sorted(zip(dgm.births[:-1], dgm.deaths[:-1]))
        assert got == finite, x

    # diagram distances vs factorial matching enumeration, <= 5 pairs each
    for _ in range(8):
        d1 = sublevel_persistence(_random_signal(rng, 9, min_len=5))
        d2 = sublevel_persistence(_random_signal(rng, 9, min_len=5))
        assert d1.n_pairs <= 5 and d2.n_pairs <= 5
        w1, w2, binf = _oracle_distances(d1, d2)
        assert abs(wasserstein(d1, d2, p=1) - w1) <= 1e-9
        assert abs(wasserstein(d1, d2, p=2) - w2) <= 1e-9
        assert abs(bottleneck(d1, d2) - binf) <= 1e-9

    # fft_embed vs the O(N^2) DFT definition's half-spectrum magnitudes
    for N in range(2, 65):
        x = np.array(rng.gauss_vector(N))
        k = np.arange(N // 2 + 1)
        naive = np.abs(np.exp(-2j * np.pi * np.outer(k, np.arange(N)) / N) @ x)
        np.testing.assert_allclose(fft_embed(x[:, None]), naive, atol=1e-9)

    assert time.perf_counter() - t0 < 60.0


# ------------------------------------------------- 3. numerical invariants

def _fd_param_gradients(loss_of_params, params, analytic, h=1e-5):
    """Central differences over every parameter entry; mixed bound 1e-4."""
    for layer, (W, b) in enumerate(params):
        for arr, grad in ((W, analytic[layer][0]), (b, analytic[layer][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_of_params()
                arr[idx] = orig - h
                down = loss_of_params()
                arr[idx] = orig
                num = (up - down) / (2 * h)
                a = grad[idx]
                assert abs(a - num) <= 1e-4 * max(1.0, abs(a), abs(num)), \
                    (layer, idx, a, num)


@_gate(3, "numerical invariants")
def test_numerical_invariants():
    rng = Xoshiro256StarStar(303)

    # PCA: orthonormal components; full spectrum sums to the covariance trace
    X = np.array(rng.gauss_vector(60 * 8)).reshape(60, 8) * np.arange(1.0, 9.0)
    model = pca_fit(X, 8)
    np.testing.assert_allclose(model.components @ model.components.T,
                               np.eye(8), atol=1e-8)
    cov = np.cov(X, rowvar=False, ddof=1)
    assert abs(model.explained_variances.sum() - np.trace(cov)) <= 1e-7

    # LLE: reconstruction rows sum to one; embedding columns solve M v = l v
    t = np.linspace(0.0, 3.0 * np.pi, 40)
    pts = np.stack([np.cos(t), np.sin(t), 0.3 * t], axis=1)
    lle = lle_fit(pts, K=6, d=2)
    W = dense_weights(lle)
    np.testing.assert_allclose(W.sum(axis=1), np.ones(40), atol=1e-9)
    M = (np.eye(40) - W).T @ (np.eye(40) - W)
    for j in range(2):
        v = lle.embedding[:, j] / np.sqrt(40.0)
        assert np.max(np.abs(M @ v - lle.eigenvalues[j] * v)) <= 1e-6

    # Parseval on the half spectrum fft_embed keeps: bins other than 0 and
    # (for even N) N/2 stand for themselves and their mirror image, so count twice
    for N in (127, 128):
        x = np.array(rng.gauss_vector(N))
        mags = fft_embed(x[:, None])
        weights = np.full(mags.shape[0], 2.0)
        weights[0] = 1.0
        if N % 2 == 0:
            weights[-1] = 1.0
        assert abs(np.sum(x * x) - np.sum(weights * mags ** 2) / N) <= 1e-9

    # gradients of both training losses on 3-layer networks, every parameter
    ae_spec = NetworkSpec((4, 6, 3, 4), hidden="relu", output="linear")
    ae_params = init_network(ae_spec, Xoshiro256StarStar(31))
    Xa = np.array(Xoshiro256StarStar(32).gauss_vector(5 * 4)).reshape(5, 4)

    def ae_loss():
        out, _ = net_forward(ae_spec, ae_params, Xa)
        return float(np.mean(np.sum((out - Xa) ** 2, axis=1)))

    out, cache = net_forward(ae_spec, ae_params, Xa)
    # finite differences near a relu kink are meaningless; require a margin
    assert min(np.min(np.abs(z)) for z in cache[0][:-1]) > 1e-3
    grads, _ = net_backward(ae_spec, ae_params, cache,
                            2.0 * (out - Xa) / Xa.shape[0])
    _fd_param_gradients(ae_loss, ae_params, grads)

    mlp_spec = NetworkSpec((4, 6, 5, 3), hidden="relu", output="softmax")
    mlp_params = init_network(mlp_spec, Xoshiro256StarStar(38))
    Xm = np.array(Xoshiro256StarStar(39).gauss_vector(5 * 4)).reshape(5, 4)
    ym = np.array([0, 1, 2, 1, 0])

    def mlp_loss():
        probs, _ = net_forward(mlp_spec, mlp_params, Xm)
        return float(-np.mean(np.log(probs[np.arange(5), ym])))

    probs, cache = net_forward(mlp_spec, mlp_params, Xm)
    assert min(np.min(np.abs(z)) for z in cache[0][:-1]) > 1e-3
    onehot = np.zeros_like(probs)
    onehot[np.arange(5), ym] = 1.0
    grads, _ = net_backward(mlp_spec, mlp_params, cache, (probs - onehot) / 5.0)
    _fd_param_gradients(mlp_loss, mlp_params, grads)


# ------------------------------------------------- 4. directional checks

def _normalized_split(ds, seed, tau):
    train, _, test = split_by_group(ds, (0.6, 0.0, 0.4), derive_seed(seed, "split"))
    train_w = segment_dataset(train, tau, 0)
    test_w = segment_dataset(test, tau, 0)
    norm = fit_normalizer(train_w, "zscore")
    return apply_normalizer_all(norm, train_w), apply_normalizer_all(norm, test_w)


def _embed_knn_accuracy(ds, embed_fn, seed, tau=64):
    train_w, test_w = _normalized_split(ds, seed, tau)
    Xtr = np.stack([embed_fn(values) for values in train_w.values])
    Xte = np.stack([embed_fn(values) for values in test_w.values])
    model = classify.fit("knn", classify.LabeledMatrix(Xtr, train_w.labels), None)
    return classify.accuracy(classify.predict(model, Xte), test_w.labels)


def _embed_train_seconds(method, params, train_w):
    embedder = make_embedder(EmbeddingCfg(method=method, name=method, params=params))
    t0 = time.perf_counter()
    embedder.fit(train_w, 1)
    embedder.transform(train_w)
    return time.perf_counter() - t0


@_gate(4, "directional end-to-end checks")
def test_directional_checks():
    t0 = time.perf_counter()

    # class-coded tones are nearly separable from the spectrum alone
    tones = generate(SynthSpec(kind="tones", classes=3, tau=64, n_per_class=200,
                               channels=1, noise_sigma=0.2, seed=11))
    acc = _embed_knn_accuracy(tones, fft_embed, 11)
    assert acc >= 0.95, acc

    # localized bursts favor the multi-resolution features in average rank
    wavelet = functools.partial(wavelet_embed, cfg=CwtConfig(default_scales(64)))
    rows = []
    for seed in (0, 1, 2):
        bursts = generate(SynthSpec(kind="statebursts", classes=3, tau=64,
                                    n_per_class=100, channels=1,
                                    noise_sigma=0.2, seed=seed))
        rows.append([_embed_knn_accuracy(bursts, wavelet, seed),
                     _embed_knn_accuracy(bursts, fft_embed, seed)])
    ranks = average_rank(np.array(rows))
    assert ranks[0] < ranks[1], rows

    # training the projection is strictly cheaper than per-window graphs
    train_w, _ = _normalized_split(tones, 11, 64)
    pca_seconds = _embed_train_seconds("pca", {"d": 8}, train_w)
    graph_seconds = _embed_train_seconds("graph", {}, train_w)
    assert pca_seconds < graph_seconds, (pca_seconds, graph_seconds)

    assert time.perf_counter() - t0 < 300.0


# ------------------------------------------------- 5. determinism

@_gate(5, "run determinism")
def test_run_determinism(tmp_path):
    data_csv = tmp_path / "tones.csv"
    save_wide_csv(generate(SynthSpec(kind="tones", classes=2, tau=32,
                                     n_per_class=40, channels=1,
                                     noise_sigma=0.3, seed=9)), str(data_csv))
    out_dirs = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        cfg = {
            "seed": 17,
            "output_dir": str(out_dir),
            "datasets": [{
                "name": "tones", "path": str(data_csv), "format": "wide_csv",
                "tau": 32, "omega": 0, "normalization": "zscore",
                "ratios": [0.5, 0.25, 0.25],
            }],
            "embeddings": [{"method": "fft"},
                           {"method": "pca", "params": {"d": 8}}],
            "classifiers": [{"kind": "knn", "grid": {"k": [1, 3]}},
                            {"kind": "gnb"}],
        }
        cfg_path = tmp_path / f"config_{tag}.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        out_dirs.append(out_dir)

    for name in ("cells.csv", "summary.csv", "ranks.csv"):
        first = (out_dirs[0] / name).read_bytes()
        second = (out_dirs[1] / name).read_bytes()
        assert first == second, name


# ------------------------------------------------- 6. pipeline conformance

@_gate(6, "pipeline conformance")
def test_pipeline_conformance():
    rng = Xoshiro256StarStar(606)

    labels = np.zeros(200, dtype=np.int64)
    for tau in (4, 7, 16, 32):
        for omega in sorted({0, 1, tau // 2, tau - 1}):
            for T in range(1, 3 * tau + 5):
                values = np.zeros((T, 1))
                got = len(segment(values, labels[:T], "s", tau, omega))
                if T < tau:
                    assert got == 0, (T, tau, omega)
                else:
                    assert got == (T - tau) // (tau - omega) + 1, (T, tau, omega)

    windows = window_batch([2.0 * np.array(rng.gauss_vector(16 * 3)).reshape(16, 3) + 1.0
                            for _ in range(40)])
    norm = fit_normalizer(windows, "zscore")
    stacked = apply_normalizer_all(norm, windows).values.reshape(-1, 3)
    assert np.max(np.abs(stacked.mean(axis=0))) < 1e-9
    assert np.max(np.abs(stacked.std(axis=0) - 1.0)) <= 1e-9
