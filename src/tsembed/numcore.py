"""Shared numerical kernels: eigendecomposition, linear solves, neighbours.

The eigendecomposition delegates to numpy's LAPACK binding and adds the
contractual ordering and sign conventions on top; orient_columns is that
sign rule alone, which PCA also applies to the rows of a thin SVD.
linear_solve_batched solves a stack of systems by plain LU factorization
with partial pivoting, so a failure can report the exact pivot that
collapsed, which library solvers do not surface; the one-system loop it
replaced is the oracle in tests/solve_reference.py.

nearest_neighbors is the exact k-nearest-neighbour search behind kNN and LLE.
Its contract is a per-query loop: sort np.linalg.norm(train - q, axis=1)
ascending, distance ties to the lower training index. It gets there without
the loop: one BLAS matmul per block of queries estimates all squared
distances, a rigorous floating-point error margin around the k-th smallest
estimate selects candidate rows, and only the candidates get the loop's exact
norm and a stable sort. The result is the loop's, bit for bit, ties included.

next_greater gives, for every sample of every row of a 2-D array, the first
later sample of its row that is >= it and the first that is > it: the
pointers from which embed_graph builds visibility graphs. Its stack-loop
form is the oracle in tests/test_numcore.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError

# Entrywise symmetry slack for accepting a matrix as symmetric.
_SYMMETRY_TOL = 1e-10
# Diagonal-ratio condition estimate above which a solve is refused.
_CONDITION_LIMIT = 1e12
# Cap on query rows x training rows per block of the neighbour search.
_BLOCK_ELEMENTS = 1 << 20
# Above this |q|^2 + max |t|^2 the distance estimates could overflow.
_SCALE_LIMIT = 2.0 ** 1000
# Pointer-jumping rounds of next_greater before binary lifting takes over.
_JUMP_ROUNDS = 32


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues descending; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eig(A: np.ndarray) -> EigenResult:
    """Full eigendecomposition of a symmetric matrix.

    Output order is deterministic: eigenvalues descending, and each vector is
    oriented so its largest-magnitude entry (first such index on ties) is
    positive. A matrix holding NaN or Inf raises DataError.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    if A.size:
        with np.errstate(over="ignore", invalid="ignore"):
            asymmetry = np.max(np.abs(A - A.T))
        # NaN or Inf anywhere in A fails this test too, so A is scanned only then
        if not asymmetry <= _SYMMETRY_TOL:
            if not np.isfinite(A).all():
                raise DataError("matrix holds NaN or Inf values")
            raise ContractError("matrix is not symmetric within 1e-10")
    sym = (A + A.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], orient_columns(vectors[:, order]))


def orient_columns(vectors: np.ndarray) -> np.ndarray:
    """Turn each column of a 2-D array, in place, so that its largest-magnitude
    entry (first such index on ties) is positive; returns the array."""
    if vectors.size:
        k = np.argmax(np.abs(vectors), axis=0)
        vectors *= np.where(vectors[k, np.arange(k.shape[0])] < 0, -1.0, 1.0)
    return vectors


def linear_solve_batched(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stack of systems A[s] x[s] = b[s]; A is (m, n, n), b is (m, n).

    Each system is LU-factored with partial pivoting: at column k the pivot
    row is the first row at or below k with the largest |entry| in that
    column. A pivot with |pivot| <= tiny = eps * n * max(1, max |A[s]|) makes
    the system singular, raising NumericError("singular system: pivot <p> at
    column <k> below threshold"). After elimination, a system whose
    diagonal-ratio condition estimate max |u_kk| / min |u_kk| exceeds 1e12
    raises NumericError("ill-conditioned system: pivot <u_ww> at column <w>
    gives condition estimate above 1e12"), w the first column of the smallest
    |u_kk|. Pivots print as %.3e. When several systems fail, the error raised
    is the one of the lowest failing index. Every system goes through the
    same float operations in the same order as a solve of that system alone,
    so a stack's answers do not depend on what else is in it.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ShapeError(f"expected a stack of square matrices, got shape {A.shape}")
    m, n = A.shape[:2]
    if b.shape != (m, n):
        raise ShapeError(f"right-hand sides of shape {b.shape} do not match {(m, n)}")

    U = A.copy()
    rhs = b.copy()
    amax = np.max(np.abs(A), axis=(1, 2))
    scale = np.where(amax > 1.0, amax, 1.0)  # max(1.0, amax)
    tiny = np.finfo(float).eps * n * scale
    systems = np.arange(m)
    failed = np.zeros(m, dtype=bool)
    errors: dict[int, str] = {}  # system -> message of its first failure

    for k in range(n):
        p = k + np.argmax(np.abs(U[:, k:, k]), axis=1)
        pivot = U[systems, p, k]
        for s in np.flatnonzero((np.abs(pivot) <= tiny) & ~failed):
            errors[s] = (f"singular system: pivot {pivot[s]:.3e} at column {k} "
                         f"below threshold")
            # a failed system goes on as the identity, which warns about nothing
            failed[s] = True
            U[s] = np.eye(n)
            rhs[s] = 0.0
            p[s] = k
            pivot[s] = 1.0
        # row swap; fancy indexing copies both rows before either is written
        U[systems, k], U[systems, p] = U[systems, p], U[systems, k]
        rhs[systems, k], rhs[systems, p] = rhs[systems, p], rhs[systems, k]
        factors = U[:, k + 1:, k] / pivot[:, None]
        U[:, k + 1:, k:] -= factors[:, :, None] * U[:, k, None, k:]
        rhs[:, k + 1:] -= factors * rhs[:, k, None]

    diag = np.abs(np.diagonal(U, axis1=1, axis2=2))
    worst = np.argmin(diag, axis=1)
    ratio = diag.max(axis=1) / diag[systems, worst]
    for s in np.flatnonzero((ratio > _CONDITION_LIMIT) & ~failed):
        w = worst[s]
        errors[s] = (f"ill-conditioned system: pivot {U[s, w, w]:.3e} at column {w} "
                     f"gives condition estimate above 1e12")
    if errors:
        raise NumericError(errors[min(errors)])

    x = np.zeros_like(rhs)
    for k in range(n - 1, -1, -1):
        dot = (U[:, k, None, k + 1:] @ x[:, k + 1:, None])[:, 0, 0]
        x[:, k] = (rhs[:, k] - dot) / U[:, k, k]
    return x


def nearest_neighbors(queries: np.ndarray, train: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest training rows of every query row, nearest first.

    Returns (index, distance), both (n_queries, k). Row r is exactly the
    first k of the loop that sorts np.linalg.norm(train - queries[r], axis=1)
    with a stable sort, so distance ties go to the lower training index.
    Needs 1 <= k <= n_train.
    """
    Q = np.asarray(queries, dtype=float)
    T = np.asarray(train, dtype=float)
    m, d = Q.shape
    n = T.shape[0]
    index = np.empty((m, k), dtype=np.int64)
    dist = np.empty((m, k))
    # Candidate margin. Let u = eps/2, D_j = |q - t_j|^2 in exact arithmetic,
    # a_j the estimate (|q|^2 + |t_j|^2) - 2 q.t_j as computed below, s_j the
    # float sum of squares inside np.linalg.norm and e_j = fl(sqrt(s_j)) the
    # distance the loop sorts by. The bound |fl(x.y) - x.y| <= g_d |x|.|y|,
    # g_d = d u / (1 - d u), holds for any summation order, with or without
    # FMA, and gives
    #   (1) |a_j - D_j| <= E := rel (|q|^2 + max_t |t|^2) + tiny
    #   (2) |s_j - D_j| <= g D_j + d 2**-1074,  g = g_(d+2)
    # where rel = 4 (d + 4) u is twice what (1) needs to first order, tiny
    # (the smallest normal) exceeds every gradual-underflow term, and below
    # _SCALE_LIMIT nothing overflows. Let alpha be the k-th smallest a. The k
    # rows with a <= alpha have D <= alpha + E by (1); by (2) and the
    # monotone, correctly rounded sqrt, the loop's k-th distance is then
    # c <= sqrt((1 + g)(alpha + E) + tiny) (1 + u). A row j among the loop's
    # first k has e_j <= c, so s_j <= c^2 / (1 - u)^2; (2) bounds D_j and (1)
    #   a_j <= (alpha + E)(1 + (2 d + 8) u) + E + 3 tiny
    # to first order in u. `bound` exceeds that: the factor-2 slack in rel and
    # its 2 E cover the higher-order terms (d u is far below 2**-12) and its
    # own rounding. So every row tied with the k-th distance is a candidate,
    # ties that sqrt creates included, and the exact re-rank orders the
    # candidates as the loop orders all rows.
    eps = np.finfo(float).eps
    rel = 2 * (d + 4) * eps
    tiny = np.finfo(float).tiny
    sq_t = np.einsum("ij,ij->i", T, T)
    sq_t_max = sq_t.max()
    step = max(1, _BLOCK_ELEMENTS // n)
    chunk = max(1, _BLOCK_ELEMENTS // max(d, 1))
    for lo in range(0, m, step):
        q = Q[lo:lo + step]
        sq_q = np.einsum("ij,ij->i", q, q)
        with np.errstate(invalid="ignore", over="ignore"):
            # a non-finite estimate only sends its row to the full comparison
            approx = sq_q[:, None] + sq_t - 2.0 * (q @ T.T)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        scale = sq_q + sq_t_max
        err = rel * scale + tiny
        bound = (kth + err) * (1.0 + rel) + 2.0 * err
        cand = approx <= bound[:, None]
        # rows without a finite bound (NaN or inf anywhere) compare every row
        cand[~(np.isfinite(bound) & (scale < _SCALE_LIMIT))] = True
        rows, cols = np.nonzero(cand)
        exact = np.empty(rows.shape[0])
        for c in range(0, rows.shape[0], chunk):
            sel = slice(c, c + chunk)
            exact[sel] = np.linalg.norm(T[cols[sel]] - q[rows[sel]], axis=1)
        # stable: equal distances keep nonzero's ascending training index
        order = np.lexsort((exact, rows))
        counts = cand.sum(axis=1)
        starts = np.cumsum(counts) - counts
        pick = order[starts[:, None] + np.arange(k)]
        index[lo:lo + step] = cols[pick]
        dist[lo:lo + step] = exact[pick]
    return index, dist


def next_greater(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each sample x[r, i] of a 2-D array of n columns, the index of the
    first later sample of row r that is >= it, and of the first that is > it
    (n when there is none), as two (R, n) int64 arrays. Values must not be
    NaN.

    Pointer jumping finds the >= pointers: every row gets a +inf sentinel
    column, and each sample points at a later one with everything strictly
    between them below it. While the sample pointed at is below x[r, i], the
    pointer moves to that sample's own pointer, which keeps the property.
    Each round gathers only the unresolved samples. A falling run resolves
    in O(log n) rounds, but a sample whose answer lies beyond a long rising
    run moves one sample of it per round, so after _JUMP_ROUNDS rounds the
    samples left search on from their pointers by binary lifting over
    range-maximum tables of their rows: bit_length(n) tables of (rows left)
    x (n + 1) values.

    A sample whose next >= sample is above it has that as its next > sample
    too; one whose next >= sample ties with it has that sample's next >
    sample, found by pointer doubling along runs of ties.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D array of rows, got shape {x.shape}")
    if np.isnan(x).any():
        raise ContractError("next_greater needs values without NaN")
    R, n = x.shape
    m = n + 1
    values = np.full((R, m), np.inf)
    values[:, :n] = x
    values = values.ravel()
    ptr = np.arange(1, R * m + 1)
    ptr[n::m] -= 1  # a sentinel points at itself and is above every sample
    samples = np.arange(R * m).reshape(R, m)[:, :n].ravel()
    active = samples
    level = values[active]
    for _ in range(_JUMP_ROUNDS):
        if not active.shape[0]:
            break
        p = ptr[active]
        below = values[p] < level
        active = active[below]
        level = level[below]
        ptr[active] = ptr[p[below]]
    if active.shape[0]:
        row, col = np.divmod(ptr[active], m)
        rows, row = np.unique(row, return_inverse=True)
        # tables[t][k, c] = max of row rows[k] over columns c .. c + 2**t - 1,
        # clipped at the sentinel
        tables = [values.reshape(R, m)[rows]]
        while 1 << len(tables) < m:
            h = 1 << (len(tables) - 1)
            wider = tables[-1].copy()
            np.maximum(wider[:, :-h], tables[-1][:, h:], out=wider[:, :-h])
            tables.append(wider)
        for t in range(len(tables) - 1, -1, -1):
            # a window all below the level holds neither the answer nor the
            # sentinel, so the skip stays inside the row
            col += (tables[t][row, col] < level).astype(np.int64) << t
        ptr[active] = active - active % m + col
    # hop[i]: the last of the samples i, ge_i, ge_(ge_i), ... that tie with
    # x_i, whose >= pointer is then i's > pointer
    hop = np.arange(R * m)
    tied = samples[values[ptr[samples]] == values[samples]]
    hop[tied] = ptr[tied]
    while True:
        further = hop[hop]
        if np.array_equal(further, hop):
            break
        hop = further
    origin = np.arange(0, R * m, m)[:, None]
    return ptr.reshape(R, m)[:, :n] - origin, ptr[hop].reshape(R, m)[:, :n] - origin
