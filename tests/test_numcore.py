from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointsets import point_sets
import solve_reference
from solve_reference import linear_solve
from tsembed import numcore
from tsembed.embed_spectral import fft_embed
from tsembed.errors import ContractError, DataError, NumericError, ShapeError
from tsembed.numcore import (linear_solve_batched, nearest_neighbors, next_greater,
                             symmetric_eig)
from tsembed.rng import Xoshiro256StarStar


def naive_dft(x):
    """Direct O(N^2) definition sum; the independent reference."""
    x = np.asarray(x, dtype=complex)
    N = x.shape[0]
    out = np.empty(N, dtype=complex)
    for k in range(N):
        acc = 0.0 + 0.0j
        for n in range(N):
            acc += x[n] * np.exp(-2j * np.pi * k * n / N)
        out[k] = acc
    return out


def half_spectrum(x):
    """The program's DFT: fft_embed's magnitudes of bins 0..N//2 of one channel."""
    return fft_embed(np.asarray(x, dtype=float)[:, None])


def random_matrix(rng, n):
    return np.array(rng.gauss_vector(n * n)).reshape(n, n)


# ------------------------------------------------------------ symmetric_eig

def test_eig_diagonal():
    res = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(np.abs(res.eigenvectors),
                               np.eye(3)[:, [0, 2, 1]], atol=1e-12)


def test_eig_2x2_exact():
    # [[2, 1], [1, 2]] has eigenvalues 3 and 1
    res = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(res.eigenvectors[:, 0], [s, s], atol=1e-12)
    # second vector: largest-magnitude entry ties; first entry made positive
    np.testing.assert_allclose(res.eigenvectors[:, 1], [s, -s], atol=1e-12)


def test_eig_residual_and_orthonormality():
    rng = Xoshiro256StarStar(3)
    for n in (2, 5, 9):
        M = random_matrix(rng, n)
        A = (M + M.T) / 2
        res = symmetric_eig(A)
        for j in range(n):
            v = res.eigenvectors[:, j]
            np.testing.assert_allclose(A @ v, res.eigenvalues[j] * v, atol=1e-9)
        np.testing.assert_allclose(res.eigenvectors.T @ res.eigenvectors,
                                   np.eye(n), atol=1e-10)
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)


def test_eig_trace_and_det_identities():
    rng = Xoshiro256StarStar(17)
    M = random_matrix(rng, 6)
    A = (M + M.T) / 2
    res = symmetric_eig(A)
    assert np.trace(A) == pytest.approx(res.eigenvalues.sum(), rel=1e-10)
    B = np.array([[1.0, 2.0], [2.0, -3.0]])  # det = -7 < 0
    vals = symmetric_eig(B).eigenvalues
    assert np.sign(vals[0] * vals[1]) == np.sign(np.linalg.det(B))
    assert vals[0] * vals[1] == pytest.approx(np.linalg.det(B), rel=1e-10)


def test_eig_sign_convention():
    rng = Xoshiro256StarStar(5)
    M = random_matrix(rng, 7)
    A = (M + M.T) / 2
    res = symmetric_eig(A)
    for j in range(7):
        v = res.eigenvectors[:, j]
        assert v[int(np.argmax(np.abs(v)))] > 0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 129])
def test_eig_equals_column_loop(n):
    rng = Xoshiro256StarStar(n)
    M = random_matrix(rng, n)
    A = (M + M.T) / 2
    got, ref = symmetric_eig(A), solve_reference.symmetric_eig(A)
    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert got.eigenvectors.tobytes() == ref.eigenvectors.tobytes()


@pytest.mark.parametrize("A", [[[2.0, 1.0], [1.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]],
                               [[-2.0, -1.0], [-1.0, -2.0]], np.ones((3, 3))])
def test_eig_sign_ties_go_to_the_first_index(A):
    # each vector has entries of tied largest magnitude, one of them negative
    # in some column; the first of them is the one made positive
    got, ref = symmetric_eig(A), solve_reference.symmetric_eig(A)
    assert got.eigenvectors.tobytes() == ref.eigenvectors.tobytes()
    v = got.eigenvectors
    tied = np.abs(np.abs(v) - np.abs(v).max(axis=0)) == 0
    assert (v[tied.argmax(axis=0), np.arange(v.shape[1])] > 0).all()


def test_eig_deterministic():
    rng = Xoshiro256StarStar(8)
    M = random_matrix(rng, 5)
    A = (M + M.T) / 2
    r1 = symmetric_eig(A)
    r2 = symmetric_eig(A.copy())
    np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
    np.testing.assert_array_equal(r1.eigenvectors, r2.eigenvectors)


def test_eig_rejects_non_symmetric():
    with pytest.raises(ContractError):
        symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ContractError):  # finite, but A - A.T overflows
        symmetric_eig(np.array([[1.0, 1e308], [-1e308, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_rejects_non_finite(bad):
    A = np.eye(3)
    A[0, 1] = A[1, 0] = bad
    with pytest.raises(DataError):
        symmetric_eig(A)


def test_eig_rejects_non_square():
    with pytest.raises(ShapeError):
        symmetric_eig(np.zeros((2, 3)))


# ------------------------------------------------------------ linear_solve_batched

def solve_one(A, b):
    """linear_solve_batched on the one-system stack of A x = b."""
    return linear_solve_batched(np.asarray(A)[None], np.asarray(b)[None])[0]


def test_solve_exact_2x2():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = solve_one(A, np.array([2.0, 8.0]))
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_solve_requires_pivoting():
    # zero in the leading position forces a row swap
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = solve_one(A, np.array([3.0, 4.0]))
    np.testing.assert_allclose(x, [4.0, 3.0])


def test_solve_residual_and_recovery():
    rng = Xoshiro256StarStar(23)
    for n in (2, 4, 8, 16):
        A = random_matrix(rng, n) + n * np.eye(n)
        x_true = np.array(rng.gauss_vector(n))
        b = A @ x_true
        x = solve_one(A, b)
        np.testing.assert_allclose(x, x_true, atol=1e-8)
        assert np.max(np.abs(A @ x - b)) < 1e-8 * max(1, np.max(np.abs(b)))


def test_solve_multiple_rhs():
    # one system per right-hand side: the columns of B against the same A
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    B = np.array([[1.0, 0.0], [0.0, 1.0]])
    X = linear_solve_batched(np.stack([A, A]), B.T).T
    np.testing.assert_allclose(A @ X, B, atol=1e-12)


def test_solve_singular_names_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(NumericError, match="column 1"):
        solve_one(A, np.array([1.0, 2.0]))


def test_solve_ill_conditioned_rejected():
    A = np.diag([1.0, 1e-14])
    with pytest.raises(NumericError, match="condition estimate above 1e12"):
        solve_one(A, np.array([1.0, 1.0]))


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        linear_solve_batched(np.eye(2)[None], np.ones((1, 3)))


def solve_each(A, b):
    """The oracle: linear_solve on every system of the stack, in order."""
    return np.array([linear_solve(A[s], b[s]) for s in range(A.shape[0])]
                    ).reshape(b.shape)


@st.composite
def system_stacks(draw):
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n, n))
    if draw(st.booleans()):
        A = np.round(A)   # exact zeros and ties among the pivot candidates
    if draw(st.booleans()):
        A = A @ A.transpose(0, 2, 1) + np.eye(n)   # Gram-like, as LLE builds
    return A, rng.normal(size=(m, n))


@settings(max_examples=200, deadline=None)
@given(system_stacks())
def test_solve_batched_equals_looped_solve(stack):
    A, b = stack
    try:
        expected = solve_each(A, b)
    except NumericError as e:
        with pytest.raises(NumericError) as got:
            linear_solve_batched(A, b)
        assert str(got.value) == str(e)
        return
    assert linear_solve_batched(A, b).tobytes() == expected.tobytes()


@pytest.mark.parametrize("first, second", [
    (np.diag([1.0, 1e-14]), np.array([[1.0, 2.0], [2.0, 4.0]])),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-14])),
])
def test_solve_batched_raises_the_lowest_failing_system(first, second):
    # a singular pivot shows during the elimination, ill-conditioning only
    # after it; either way the loop raises for the first failing system, and
    # so must the batch
    A = np.stack([np.eye(2), first, second, np.eye(2)])
    b = np.ones((4, 2))
    with pytest.raises(NumericError) as looped:
        solve_each(A, b)
    with pytest.raises(NumericError) as batched:
        linear_solve_batched(A, b)
    assert str(batched.value) == str(looped.value)
    assert str(batched.value) == str(pytest.raises(
        NumericError, linear_solve, first, np.ones(2)).value)


def test_solve_batched_shape_mismatch():
    with pytest.raises(ShapeError):
        linear_solve_batched(np.eye(2), np.ones(2))
    with pytest.raises(ShapeError):
        linear_solve_batched(np.ones((3, 2, 2)), np.ones((3, 3)))


# ------------------------------------------------------------ nearest_neighbors

def nearest_neighbors_reference(queries, train, k):
    """The loop: every distance, a stable sort, the first k."""
    index = np.empty((queries.shape[0], k), dtype=np.int64)
    dist = np.empty((queries.shape[0], k))
    for r in range(queries.shape[0]):
        d = np.linalg.norm(train - queries[r], axis=1)
        order = np.argsort(d, kind="stable")[:k]
        index[r], dist[r] = order, d[order]
    return index, dist


@contextmanager
def block_elements(value):
    saved = numcore._BLOCK_ELEMENTS
    numcore._BLOCK_ELEMENTS = value
    try:
        yield
    finally:
        numcore._BLOCK_ELEMENTS = saved


def assert_neighbors_equal(queries, train, k):
    got = nearest_neighbors(queries, train, k)
    ref = nearest_neighbors_reference(queries, train, k)
    assert got[0].dtype == ref[0].dtype
    np.testing.assert_array_equal(got[0], ref[0])
    assert got[1].tobytes() == ref[1].tobytes()


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.data())
def test_nearest_neighbors_equal_reference(points, data):
    train, queries = points
    k = data.draw(st.integers(1, train.shape[0]))
    assert_neighbors_equal(queries, train, k)


@settings(max_examples=150, deadline=None)
@given(point_sets(max_rows=30), st.data())
def test_nearest_neighbors_equal_reference_across_blocks(points, data):
    # a cap of a few elements puts one query per block and splits the re-rank
    train, queries = points
    k = data.draw(st.integers(1, train.shape[0]))
    with block_elements(data.draw(st.integers(1, 200))):
        assert_neighbors_equal(queries, train, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_neighbors_non_finite_queries_match_reference(bad):
    rng = np.random.default_rng(5)
    train = np.round(rng.normal(size=(25, 7)))
    queries = np.round(rng.normal(size=(4, 7)))
    queries[1, 3] = bad
    queries[2] = bad
    queries[3, :2] = [np.inf, -np.inf]
    for k in (1, 6, 25):
        assert_neighbors_equal(queries, train, k)


def test_nearest_neighbors_ties_go_to_lower_index():
    train = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                      [0.0, 0.0], [0.0, 0.0]])
    index, dist = nearest_neighbors(np.zeros((1, 2)), train, 4)
    np.testing.assert_array_equal(index, [[4, 5, 0, 1]])
    np.testing.assert_array_equal(dist, [[0.0, 0.0, 1.0, 1.0]])


# ------------------------------------------------------------ dft

# ------------------------------------------------------------ next_greater

def next_greater_reference(row, strict):
    """One stack pass: the stack holds the samples still waiting for their
    answer; a sample pops every top it is >= (>, when strict)."""
    values = list(row)
    out = [len(values)] * len(values)
    stack = []
    for j, v in enumerate(values):
        while stack and (values[stack[-1]] < v if strict else values[stack[-1]] <= v):
            out[stack.pop()] = j
        stack.append(j)
    return out


@contextmanager
def jump_rounds(value):
    saved = numcore._JUMP_ROUNDS
    numcore._JUMP_ROUNDS = value
    try:
        yield
    finally:
        numcore._JUMP_ROUNDS = saved


def pointer_rows(rng, style, rows, n):
    t = np.arange(n, dtype=float)
    if style == "ties":
        return rng.integers(0, 3, size=(rows, n)).astype(float)
    if style == "plateaus":
        return np.repeat(rng.integers(0, 4, size=(rows, n // 4 + 1)), 4, axis=1)[:, :n] * 1.0
    if style == "convex":
        return np.tile((t - n / 3.0) ** 2, (rows, 1))
    if style == "falling":
        return np.tile(-t, (rows, 1))
    if style == "peak then ramp":
        return np.tile(np.where(t == 0, 2.0 * n, t), (rows, 1))
    return rng.normal(size=(rows, n))


POINTER_STYLES = ("normal", "ties", "plateaus", "convex", "falling", "peak then ramp")


def assert_pointers_equal_reference(x):
    ge, gt = next_greater(x)
    assert ge.dtype == gt.dtype == np.int64
    assert ge.shape == gt.shape == x.shape
    for row, a, b in zip(x.tolist(), ge.tolist(), gt.tolist()):
        assert a == next_greater_reference(row, strict=False)
        assert b == next_greater_reference(row, strict=True)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(POINTER_STYLES), st.integers(0, 5), st.integers(1, 300),
       st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 3, None]))
def test_next_greater_equals_stack_loop(style, rows, n, seed, rounds):
    # few jump rounds hand most samples to the range-maximum lifting
    x = pointer_rows(np.random.default_rng(seed), style, rows, n)
    if rounds is None:
        assert_pointers_equal_reference(x)
    else:
        with jump_rounds(rounds):
            assert_pointers_equal_reference(x)


def test_next_greater_mixed_block_at_window_length():
    rng = np.random.default_rng(5)
    x = np.concatenate([pointer_rows(rng, style, 2, 1024) for style in POINTER_STYLES])
    assert_pointers_equal_reference(x)


def test_next_greater_rejects_bad_input():
    with pytest.raises(ShapeError):
        next_greater(np.zeros(4))
    with pytest.raises(ContractError):
        next_greater(np.array([[1.0, np.nan, 2.0]]))


def test_dft_matches_naive_all_sizes():
    rng = Xoshiro256StarStar(31)
    for N in range(2, 65):
        x = np.array(rng.gauss_vector(N))
        got = half_spectrum(x)
        want = np.abs(naive_dft(x)[:N // 2 + 1])
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(want))


def test_dft_constant_signal():
    got = half_spectrum(np.full(8, 3.0))
    want = np.zeros(5)
    want[0] = 24.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_dft_pure_cosine():
    # cos(2 pi n / 4) over 4 samples: energy splits into bins 1 and 3 (3 mirrors 1)
    x = np.array([1.0, 0.0, -1.0, 0.0])
    np.testing.assert_allclose(half_spectrum(x), [0.0, 2.0, 0.0], atol=1e-12)


def test_dft_parseval():
    # bins other than 0 and (for even N) N/2 stand for themselves and their
    # mirror image, so they count twice
    rng = Xoshiro256StarStar(41)
    for N in (25, 26):
        x = np.array(rng.gauss_vector(N))
        mags = half_spectrum(x)
        weights = np.full(mags.shape[0], 2.0)
        weights[0] = 1.0
        if N % 2 == 0:
            weights[-1] = 1.0
        assert np.sum(weights * mags ** 2) == pytest.approx(N * np.sum(x * x), rel=1e-10)
