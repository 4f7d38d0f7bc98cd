"""Linear and locally linear subspace embeddings over flattened windows.

Fits and transforms take 2-D stacks of flattened windows, one per row.
PCA centers the (n_s, n_f) training matrix and projects onto the top-d
principal axes, with variances on the divisor n_s - 1. How it finds them
depends on the shape alone. With at least as many rows as columns it
eigendecomposes the n_f x n_f sample covariance: O(n_f^2) memory and
O(n_s n_f^2 + n_f^3) time. A wide matrix (n_s < n_f, long windows with few
training windows) has a covariance of rank at most n_s - 1, so PCA takes a
thin SVD of the centred data instead: the components are the first d right
singular vectors and the variances s^2 / (n_s - 1), in O(n_s n_f) memory and
O(n_s^2 n_f) time. Both routes orient each component so that its
largest-magnitude entry (first such index on ties) is positive
(numcore.orient_columns), so repeated fits are bit-identical. The two routes
agree to rounding (about 1e-13 relative), not bit for bit. NaN or Inf input
raises DataError; a centred matrix, covariance or variance that overflows
raises NumericError.

LLE follows the classic three steps: K nearest neighbors per point (self
excluded, distance ties to the lower index), reconstruction weights from the
local Gram system G w = 1 regularized as G + reg * trace(G) * I and rescaled
to sum 1, then the bottom eigenvectors (skipping the constant one) of
M = (I - W)^T (I - W), scaled by sqrt(n_s). Out-of-sample points reuse the
weight construction against the stored training points; a query that equals a
training point exactly gets weight 1 on that point, which is the exact
minimizer of the constrained reconstruction.

Neighbours come from numcore.nearest_neighbors, which returns exactly the
per-point loop's order (a BLAS distance estimate, an error margin, then exact
re-ranking of the candidates), so the tie contract is unchanged. The weight
systems of all points are solved as one batch by numcore.linear_solve_batched,
which raises the NumericError of the first point whose system fails.
The model keeps K neighbours and weights per point; only lle_fit's spectral
step is dense: the n_s x n_s matrices W and M and a full eigendecomposition
of M, O(n_s^2) memory and O(n_s^3) time, LLE's documented size cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .numcore import (linear_solve_batched, nearest_neighbors, orient_columns,
                      symmetric_eig)

# Cap on neighbour-difference entries (points x K x features) per weight block.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (d, n_features) rows are components
    explained_variances: np.ndarray


def pca_fit(X: np.ndarray, d: int) -> PcaModel:
    """Fit d principal components to a (n_s, n_f) stack of rows.

    n_s >= n_f: full eigendecomposition of the covariance. n_s < n_f: thin
    SVD of the centred data, whose memory stays O(n_s n_f); each row of the
    SVD's vt is turned so its largest-magnitude entry (first index on ties)
    is positive, the eigensolver's sign rule.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {X.shape}")
    n_s, n_f = X.shape
    if n_s < 2:
        raise ConfigError(f"PCA needs at least 2 samples, got {n_s}")
    if not 1 <= d <= min(n_s - 1, n_f):
        raise ConfigError(
            f"PCA dimension must satisfy 1 <= d <= min(n_samples-1, n_features) "
            f"= {min(n_s - 1, n_f)}, got {d}")
    # overflow shows up as non-finite values, checked below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        # a finite mean rules out NaN and Inf in X, so X is scanned only then
        if not np.isfinite(mean).all() and not np.isfinite(X).all():
            raise DataError("PCA input holds NaN or Inf values")
        Xc = X - mean
        if n_s < n_f:
            _finite(Xc, "centred data")
            try:
                _, s, vt = np.linalg.svd(Xc, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"PCA: {exc}") from exc
            components = orient_columns(vt[:d].T).T.copy()
            variances = s[:d] ** 2 / (n_s - 1)
        else:
            cov = (Xc.T @ Xc) / (n_s - 1)
            eig = symmetric_eig(_finite(cov, "covariance"))
            components = eig.eigenvectors[:, :d].T
            variances = eig.eigenvalues[:d]
    variances = np.maximum(_finite(variances, "variance"), 0.0)
    return PcaModel(mean, components, variances)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError(f"PCA: {what} overflow")
    return a


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Project a (n, n_features) stack of rows."""
    X = _check_rows(X, model.mean.shape[0])
    return (X - model.mean) @ model.components.T


def _check_rows(X: np.ndarray, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ShapeError(f"input shape {X.shape} does not match the model's "
                         f"{n_features} features")
    return X


@dataclass(frozen=True)
class LleModel:
    train_points: np.ndarray
    K: int
    reg: float
    neighbors: np.ndarray    # (n_s, K) training neighbours of each training point
    weights: np.ndarray      # (n_s, K) their reconstruction weights
    embedding: np.ndarray    # (n_s, d)
    eigenvalues: np.ndarray  # the d eigenvalues matching the embedding columns


def _reconstruction_weights(points: np.ndarray, train: np.ndarray,
                            nbrs: np.ndarray, reg: float) -> np.ndarray:
    """Weight rows of each point over its neighbour rows nbrs of train.

    Solves the constrained least-squares system of every point as one batch,
    in blocks of at most _BLOCK_ELEMENTS neighbour-difference entries.
    """
    n_pts, K = nbrs.shape
    weights = np.empty((n_pts, K))
    step = max(1, _BLOCK_ELEMENTS // (K * max(train.shape[1], 1)))
    for lo in range(0, n_pts, step):
        diffs = train[nbrs[lo:lo + step]] - points[lo:lo + step, None, :]
        G = diffs @ diffs.transpose(0, 2, 1)
        trace = np.trace(G, axis1=1, axis2=2)
        G = G + (reg * trace)[:, None, None] * np.eye(K)
        w = linear_solve_batched(G, np.ones(G.shape[:2]))
        weights[lo:lo + step] = w / w.sum(axis=1, keepdims=True)
    return weights


def lle_fit(X: np.ndarray, K: int, d: int, reg: float = 1e-3) -> LleModel:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {X.shape}")
    n_s = X.shape[0]
    if K < 1:
        raise ConfigError(f"LLE needs K >= 1, got {K}")
    if n_s < K + 2:
        raise ConfigError(f"LLE needs at least K + 2 = {K + 2} samples, got {n_s}")
    if not 1 <= d <= K:
        raise ConfigError(f"LLE dimension must satisfy 1 <= d <= K = {K}, got {d}")

    nbrs, _ = nearest_neighbors(X, X, K + 1)
    keep = nbrs != np.arange(n_s)[:, None]
    # a point behind K + 1 copies of itself is not in its list: drop the last
    keep[keep.all(axis=1), K] = False
    nbrs = nbrs[keep].reshape(n_s, K)
    weights = _reconstruction_weights(X, X, nbrs, reg)
    W = np.zeros((n_s, n_s))
    W[np.arange(n_s)[:, None], nbrs] = weights

    I = np.eye(n_s)
    # two separate I - W operands: a shared one makes numpy call syrk, whose
    # M differs from this product in the last bits
    M = (I - W).T @ (I - W)
    eig = symmetric_eig(M)
    # symmetric_eig sorts descending; the bottom of the spectrum is at the end.
    ascending_vals = eig.eigenvalues[::-1]
    ascending_vecs = eig.eigenvectors[:, ::-1]
    embedding = ascending_vecs[:, 1:d + 1] * np.sqrt(n_s)
    return LleModel(X.copy(), K, reg, nbrs, weights, embedding, ascending_vals[1:d + 1].copy())


def lle_transform(model: LleModel, X: np.ndarray) -> np.ndarray:
    """Embed a (n, n_features) stack of rows via reconstruction weights."""
    rows = _check_rows(X, model.train_points.shape[1])
    nbrs, dists = nearest_neighbors(rows, model.train_points, model.K)
    out = np.empty((rows.shape[0], model.embedding.shape[1]))
    # exact hit: the constrained problem's minimizer is weight 1 there
    hit = dists[:, 0] == 0.0
    out[hit] = model.embedding[nbrs[hit, 0]]
    miss = ~hit
    w = _reconstruction_weights(rows[miss], model.train_points, nbrs[miss], model.reg)
    out[miss] = (w[:, None, :] @ model.embedding[nbrs[miss]])[:, 0]
    return out
