import tracemalloc
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from pointsets import STYLES, point_sets, styled_rows
from solve_reference import linear_solve
from tsembed import embed_subspace, numcore
from tsembed.embed_subspace import (LleModel, PcaModel, lle_fit, lle_transform,
                                    pca_fit, pca_transform)
from tsembed.errors import ConfigError, DataError, NumericError, ShapeError
from tsembed.numcore import symmetric_eig
from tsembed.rng import Xoshiro256StarStar


def gauss_matrix(seed, n, d, scale=1.0):
    rng = Xoshiro256StarStar(seed)
    return np.array(rng.gauss_vector(n * d)).reshape(n, d) * scale


# ------------------------------------------------------------ pca

def test_pca_line_first_component():
    t = np.linspace(-2, 2, 9)
    X = np.stack([t, t], axis=1)  # points on y = x
    model = pca_fit(X, 1)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(model.components[0], [s, s], atol=1e-12)


def test_pca_diagonal_covariance():
    rng = Xoshiro256StarStar(3)
    n = 4000
    X = np.stack([np.array(rng.gauss_vector(n)) * 3.0,
                  np.array(rng.gauss_vector(n)) * 1.0], axis=1)
    model = pca_fit(X, 2)
    # components align with the axes; variances near 9 and 1
    assert abs(model.components[0][0]) > 0.99
    assert model.explained_variances[0] == pytest.approx(9.0, rel=0.1)
    assert model.explained_variances[1] == pytest.approx(1.0, rel=0.1)


def test_pca_variances_match_projected_variance():
    X = gauss_matrix(5, 40, 6)
    model = pca_fit(X, 3)
    Z = pca_transform(model, X)
    for j in range(3):
        assert Z[:, j].var(ddof=1) == pytest.approx(
            model.explained_variances[j], rel=1e-8)
    assert np.all(np.diff(model.explained_variances) <= 1e-12)
    assert np.all(model.explained_variances >= 0)


def test_pca_full_rank_reconstruction():
    X = gauss_matrix(7, 30, 5)
    model = pca_fit(X, 5)
    Z = pca_transform(model, X)
    back = Z @ model.components + model.mean
    np.testing.assert_allclose(back, X, atol=1e-9)


def test_pca_total_variance_preserved():
    X = gauss_matrix(9, 50, 8)
    model = pca_fit(X, 7)  # d capped at n_features would be 8; use full spectrum
    total = np.sum((X - X.mean(axis=0)) ** 2) / (X.shape[0] - 1)
    full = pca_fit(X, 8 - 1)  # d <= min(n_s - 1, n_f)
    assert np.sum(pca_fit(X, 7).explained_variances) <= total + 1e-9
    del model, full


def test_pca_transform_centers():
    X = gauss_matrix(11, 20, 4) + 10.0
    model = pca_fit(X, 2)
    z = pca_transform(model, model.mean[None])
    np.testing.assert_allclose(z, np.zeros((1, 2)), atol=1e-9)


def test_pca_transform_single_and_batch_agree():
    X = gauss_matrix(13, 15, 3)
    model = pca_fit(X, 2)
    batch = pca_transform(model, X)
    for i in range(X.shape[0]):
        np.testing.assert_allclose(pca_transform(model, X[i:i + 1])[0], batch[i])


def test_pca_deterministic():
    X = gauss_matrix(15, 25, 6)
    m1 = pca_fit(X, 4)
    m2 = pca_fit(X.copy(), 4)
    np.testing.assert_array_equal(m1.components, m2.components)


def test_pca_dimension_caps():
    X = gauss_matrix(17, 10, 4)
    with pytest.raises(ConfigError):
        pca_fit(X, 0)
    with pytest.raises(ConfigError):
        pca_fit(X, 5)   # > n_features
    with pytest.raises(ConfigError):
        pca_fit(gauss_matrix(17, 3, 8), 3)  # > n_s - 1
    with pytest.raises(ConfigError):
        pca_fit(X[:1], 1)


def test_pca_transform_shape_mismatch():
    model = pca_fit(gauss_matrix(19, 10, 4), 2)
    with pytest.raises(ShapeError):
        pca_transform(model, np.ones((1, 5)))
    with pytest.raises(ShapeError):
        pca_transform(model, np.ones(4))   # one vector, not a stack of rows


def covariance_eig(X):
    """The covariance route: mean and full eigendecomposition of the n_f x n_f
    sample covariance, which pca_fit takes only for n_s >= n_f."""
    mean = X.mean(axis=0)
    Xc = X - mean
    return mean, symmetric_eig((Xc.T @ Xc) / (X.shape[0] - 1))


@st.composite
def pca_inputs(draw):
    """(X, d): styled rows, wide (n_s < n_f) or tall (n_s >= n_f)."""
    if draw(st.booleans()):
        n_s = draw(st.integers(2, 40))
        n_f = draw(st.integers(n_s + 1, 130))
    else:
        n_f = draw(st.integers(1, 20))
        n_s = draw(st.integers(max(2, n_f), 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = styled_rows(draw(st.sampled_from(STYLES)), n_s, n_f, rng)
    return X, draw(st.integers(1, min(n_s - 1, n_f)))


# eigen-gap, relative to the top variance, past which a component is pinned
_CLEAR_GAP = 1e-6


@settings(max_examples=200, deadline=None)
@given(pca_inputs())
def test_pca_matches_covariance_reference(case):
    X, d = case
    model = pca_fit(X, d)
    n_s, n_f = X.shape
    mean, eig = covariance_eig(X)
    values, vectors = eig.eigenvalues, eig.eigenvectors
    if n_s >= n_f:
        ref = PcaModel(mean, vectors[:, :d].T, np.maximum(values[:d], 0.0))
        assert [a.tobytes() for a in astuple(model)] == [a.tobytes() for a in astuple(ref)]
        return
    top = max(values[0], 0.0)
    assert model.mean.tobytes() == mean.tobytes()
    np.testing.assert_allclose(model.explained_variances, np.maximum(values[:d], 0.0),
                               rtol=0, atol=1e-10 * top)
    C = model.components
    assert C.shape == (d, n_f)
    np.testing.assert_allclose(C @ C.T, np.eye(d), rtol=0, atol=1e-12)
    pivots = np.argmax(np.abs(C), axis=1)  # first index on ties
    assert np.all(C[np.arange(d), pivots] > 0)
    # each component lies in the span of the reference eigenvectors whose
    # eigenvalues are not clearly apart from its own
    coeffs = vectors.T @ C.T
    for j in range(d):
        apart = np.abs(values - values[j]) > _CLEAR_GAP * top
        assert np.all(np.abs(coeffs[apart, j]) <= 1e-8), j
        if apart.sum() == n_f - 1:
            # isolated eigenvalue: the same vector, entry for entry, unless
            # the sign rule's pivot is a near tie that rounding may flip
            ref = vectors[:, j]
            err = np.abs(C[j] - ref).max()
            mags = np.sort(np.abs(ref))
            if mags[-1] - mags[-2] <= 1e-8:
                err = min(err, np.abs(C[j] + ref).max())
            assert err <= 1e-8, (j, err)


def test_pca_wide_fit_memory_stays_linear():
    # 72 windows of 1024 steps, the long_windows shape: the covariance route
    # would hold a 1024 x 1024 matrix (8 MB) against 0.6 MB of data
    X = np.cumsum(np.random.default_rng(21).normal(size=(72, 1024)), axis=1)
    tracemalloc.start()
    try:
        pca_fit(X, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * X.nbytes, peak


@pytest.mark.parametrize("shape", [(10, 4), (4, 10)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pca_rejects_non_finite_input(shape, bad):
    X = gauss_matrix(23, *shape)
    X[1, 2] = bad
    with pytest.raises(DataError):
        pca_fit(X, 2)


@pytest.mark.parametrize("shape", [(10, 4), (4, 10)])
def test_pca_overflow_raises_numeric_error(shape):
    rows, cols = np.indices(shape)
    # a +-1e308 checkerboard: every column mean is 0, every product overflows
    with pytest.raises(NumericError):
        pca_fit(np.where((rows + cols) % 2, -1e308, 1e308), 2)
    # the column sums, and so the means, overflow
    with pytest.raises(NumericError):
        pca_fit(np.full(shape, 1e308), 2)


def test_pca_svd_failure_is_numeric_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError, match="SVD did not converge"):
        pca_fit(gauss_matrix(25, 4, 10), 2)


# ------------------------------------------------------------ lle

def dense_weights(model):
    """The n_s x n_s weight matrix W of a model's neighbours and their weights."""
    n_s = model.train_points.shape[0]
    W = np.zeros((n_s, n_s))
    W[np.arange(n_s)[:, None], model.neighbors] = model.weights
    return W


def test_lle_midpoint_weights():
    # query at the midpoint of two neighbors reconstructs with weights 1/2
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0],
                  [0.0, 5.0], [2.0, 5.0], [1.0, 5.0]])
    model = lle_fit(X, K=2, d=1, reg=1e-6)
    w = dense_weights(model)[2]
    assert w[0] == pytest.approx(0.5, abs=1e-3)
    assert w[1] == pytest.approx(0.5, abs=1e-3)


def test_lle_weight_rows_sum_to_one():
    X = gauss_matrix(21, 30, 4)
    model = lle_fit(X, K=6, d=2)
    assert model.neighbors.shape == model.weights.shape == (30, 6)
    W = dense_weights(model)
    np.testing.assert_allclose(W.sum(axis=1), np.ones(30), atol=1e-9)
    # exactly K nonzero weights per row
    assert all(np.count_nonzero(W[i]) <= 6 for i in range(30))


def test_lle_embedding_shape_and_centering():
    X = gauss_matrix(23, 40, 5)
    model = lle_fit(X, K=8, d=3)
    assert model.embedding.shape == (40, 3)
    np.testing.assert_allclose(model.embedding.mean(axis=0),
                               np.zeros(3), atol=1e-8)


def test_lle_embedding_satisfies_eigen_equation():
    X = gauss_matrix(25, 25, 4)
    model = lle_fit(X, K=5, d=2)
    I = np.eye(25)
    M = (I - dense_weights(model)).T @ (I - dense_weights(model))
    for j in range(2):
        v = model.embedding[:, j] / np.sqrt(25)
        np.testing.assert_allclose(M @ v, model.eigenvalues[j] * v, atol=1e-8)


def test_lle_curve_ordering_preserved():
    # points along a gentle 1-D curve embed in travel order
    t = np.linspace(0, 3 * np.pi, 60)
    X = np.stack([np.cos(t), np.sin(t), 0.2 * t], axis=1)
    model = lle_fit(X, K=8, d=1)
    rho = abs(spearmanr(model.embedding[:, 0], t).statistic)
    assert rho >= 0.99


def test_lle_train_point_maps_to_its_embedding():
    X = gauss_matrix(27, 20, 3)
    model = lle_fit(X, K=4, d=2)
    for i in (0, 7, 19):
        out = lle_transform(model, X[i:i + 1])[0]
        np.testing.assert_allclose(out, model.embedding[i], atol=1e-6)


def test_lle_out_of_sample_interpolates():
    # a midpoint query lands between its neighbors' embeddings
    t = np.linspace(0, 1, 30)
    X = np.stack([t, 2 * t], axis=1)
    model = lle_fit(X, K=4, d=1)
    q = (X[10] + X[11]) / 2
    out = lle_transform(model, q[None])[0, 0]
    lo = min(model.embedding[10, 0], model.embedding[11, 0])
    hi = max(model.embedding[10, 0], model.embedding[11, 0])
    span = hi - lo
    assert lo - 0.5 * span <= out <= hi + 0.5 * span


def test_lle_translation_invariant_weights():
    X = gauss_matrix(29, 25, 4)
    m1 = lle_fit(X, K=5, d=2)
    m2 = lle_fit(X + 100.0, K=5, d=2)
    np.testing.assert_allclose(dense_weights(m1), dense_weights(m2), atol=1e-6)


def test_lle_transform_batch():
    X = gauss_matrix(31, 20, 3)
    model = lle_fit(X, K=4, d=2)
    Q = gauss_matrix(33, 5, 3)
    batch = lle_transform(model, Q)
    assert batch.shape == (5, 2)
    for i in range(5):
        np.testing.assert_allclose(lle_transform(model, Q[i:i + 1])[0], batch[i])


def test_lle_parameter_validation():
    X = gauss_matrix(35, 10, 3)
    with pytest.raises(ConfigError):
        lle_fit(X, K=0, d=1)
    with pytest.raises(ConfigError):
        lle_fit(X, K=9, d=2)    # n_s < K + 2
    with pytest.raises(ConfigError):
        lle_fit(X, K=4, d=5)    # d > K
    model = lle_fit(X, K=4, d=2)
    with pytest.raises(ShapeError):
        lle_transform(model, np.ones((1, 7)))
    with pytest.raises(ShapeError):
        lle_transform(model, np.ones(3))   # one vector, not a stack of rows


def test_lle_neighbor_ties_lower_index():
    # three equal-distance candidates: K=2 keeps the earliest indices
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                  [5.0, 5.0], [9.0, 9.0]])
    model = lle_fit(X, K=2, d=1)
    nz = np.nonzero(dense_weights(model)[0])[0]
    np.testing.assert_array_equal(nz, [1, 2])


def test_lle_duplicate_points_raise_numeric_error():
    # duplicated neighbors leave a zero Gram trace; regularization cannot help
    X = np.array([[0.0], [1.0], [1.0], [1.0], [5.0], [9.0]])
    message = "singular system: pivot 0.000e+00 at column 0 below threshold"
    with pytest.raises(NumericError) as reference:
        lle_fit_reference(X, K=2, d=1)
    assert str(reference.value) == message
    with pytest.raises(NumericError) as got:
        lle_fit(X, K=2, d=1)
    assert str(got.value) == message


# ------------------------------------------------------------ lle oracles

def _neighbor_indices(point, candidates, K, exclude=None):
    """Indices of the K nearest candidates; ties broken by lower index."""
    dists = np.linalg.norm(candidates - point, axis=1)
    order = np.argsort(dists, kind="stable")
    if exclude is not None:
        order = order[order != exclude]
    return order[:K]


def _reconstruction_weights(point, neighbors, reg):
    """Solve the constrained least-squares weights over given neighbors."""
    diffs = neighbors - point
    G = diffs @ diffs.T
    trace = np.trace(G)
    G = G + reg * trace * np.eye(G.shape[0])
    w = linear_solve(G, np.ones(G.shape[0]))
    return w / w.sum()


def lle_fit_reference(X, K, d, reg=1e-3):
    """The per-point loop: one neighbour sort and one weight solve per row."""
    X = np.asarray(X, dtype=float)
    n_s = X.shape[0]
    neighbors = np.empty((n_s, K), dtype=np.int64)
    weights = np.empty((n_s, K))
    W = np.zeros((n_s, n_s))
    for i in range(n_s):
        neighbors[i] = _neighbor_indices(X[i], X, K, exclude=i)
        weights[i] = _reconstruction_weights(X[i], X[neighbors[i]], reg)
        W[i, neighbors[i]] = weights[i]
    I = np.eye(n_s)
    M = (I - W).T @ (I - W)
    eig = symmetric_eig(M)
    ascending_vals = eig.eigenvalues[::-1]
    ascending_vecs = eig.eigenvectors[:, ::-1]
    embedding = ascending_vecs[:, 1:d + 1] * np.sqrt(n_s)
    return LleModel(X.copy(), K, reg, neighbors, weights, embedding,
                    ascending_vals[1:d + 1].copy())


def lle_transform_reference(model, x):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x.reshape(1, -1) if single else x
    out = np.empty((rows.shape[0], model.embedding.shape[1]))
    for r in range(rows.shape[0]):
        point = rows[r]
        nbrs = _neighbor_indices(point, model.train_points, model.K)
        dists = np.linalg.norm(model.train_points[nbrs] - point, axis=1)
        if dists[0] == 0.0:
            out[r] = model.embedding[nbrs[0]]
            continue
        w = _reconstruction_weights(point, model.train_points[nbrs], model.reg)
        out[r] = w @ model.embedding[nbrs]
    return out[0] if single else out


@contextmanager
def block_elements(neighbors, weights):
    saved = numcore._BLOCK_ELEMENTS, embed_subspace._BLOCK_ELEMENTS
    numcore._BLOCK_ELEMENTS, embed_subspace._BLOCK_ELEMENTS = neighbors, weights
    try:
        yield
    finally:
        numcore._BLOCK_ELEMENTS, embed_subspace._BLOCK_ELEMENTS = saved


def assert_lle_equals_reference(X, queries, K, d):
    try:
        ref = lle_fit_reference(X, K, d)
    except NumericError as e:
        with pytest.raises(NumericError) as got:
            lle_fit(X, K, d)
        assert str(got.value) == str(e)
        return
    model = lle_fit(X, K, d)
    for name in ("neighbors", "weights", "embedding", "eigenvalues"):
        assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), name
    assert dense_weights(model).tobytes() == dense_weights(ref).tobytes()
    try:
        expected = lle_transform_reference(ref, queries)
    except NumericError as e:
        with pytest.raises(NumericError) as got:
            lle_transform(model, queries)
        assert str(got.value) == str(e)
        return
    assert lle_transform(model, queries).tobytes() == expected.tobytes()


def lle_cases(points, data):
    X, queries = points
    K = data.draw(st.integers(1, X.shape[0] - 2))
    return X, queries, K, data.draw(st.integers(1, K))


@settings(max_examples=150, deadline=None)
@given(point_sets(min_rows=3, max_rows=40), st.data())
def test_lle_equals_reference(points, data):
    assert_lle_equals_reference(*lle_cases(points, data))


@settings(max_examples=75, deadline=None)
@given(point_sets(min_rows=3, max_rows=25), st.data())
def test_lle_equals_reference_across_blocks(points, data):
    case = lle_cases(points, data)
    with block_elements(data.draw(st.integers(1, 120)),
                        data.draw(st.integers(1, 400))):
        assert_lle_equals_reference(*case)


def test_lle_self_exclusion_with_duplicates_before_and_after():
    # rows 0, 2, 5 and 7 coincide: for K <= 3 a neighbourhood of copies fails
    # as the loop fails; larger K mixes copies before and after the point,
    # in index order and without the point itself, with other rows
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(10, 3)), 1)
    X[[2, 5, 7]] = X[0]
    X[9] = X[0] + 0.1
    for K in (2, 3, 4, 6):
        assert_lle_equals_reference(X, X[[0, 5, 9]] + 0.05, K, 1)
