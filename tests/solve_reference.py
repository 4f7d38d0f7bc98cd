"""The one-system LU solver that tsembed.numcore.linear_solve_batched replaced,
and the per-column sign loop that tsembed.numcore.symmetric_eig replaced.

They are the references numcore must match: the same answer bytes, or the
same NumericError message, system by system; the same eigenvector bytes.
"""

import numpy as np

from tsembed.errors import NumericError, ShapeError
from tsembed.numcore import EigenResult


def symmetric_eig(A: np.ndarray) -> EigenResult:
    """Eigenvalues descending; each vector turned so its largest-magnitude
    entry (first such index on ties) is positive, one column at a time."""
    A = np.asarray(A, dtype=float)
    values, vectors = np.linalg.eigh((A + A.T) / 2.0)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenResult(values, vectors)


def linear_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Raises NumericError naming the pivot column when the matrix is singular
    or the diagonal-ratio condition estimate max|u_kk|/min|u_kk| exceeds 1e12.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if b.shape[0] != n:
        raise ShapeError(f"right-hand side length {b.shape[0]} != {n}")

    squeeze = b.ndim == 1
    U = A.copy()
    rhs = b.reshape(n, -1).astype(float).copy()
    scale = max(1.0, float(np.max(np.abs(A)))) if A.size else 1.0
    tiny = np.finfo(float).eps * n * scale

    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        pivot = U[p, k]
        if abs(pivot) <= tiny:
            raise NumericError(
                f"singular system: pivot {pivot:.3e} at column {k} below threshold")
        if p != k:
            U[[k, p]] = U[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
        factors = U[k + 1:, k] / pivot
        U[k + 1:, k:] -= np.outer(factors, U[k, k:])
        rhs[k + 1:] -= np.outer(factors, rhs[k])

    diag = np.abs(np.diag(U))
    worst = int(np.argmin(diag))
    if diag.max() / diag[worst] > 1e12:
        raise NumericError(
            f"ill-conditioned system: pivot {U[worst, worst]:.3e} at column {worst} "
            f"gives condition estimate above 1e12")

    x = np.zeros_like(rhs)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - U[k, k + 1:] @ x[k + 1:]) / U[k, k]
    return x[:, 0] if squeeze else x
