"""Natural and horizontal visibility graphs and their summary features.

A sample i of a 1-D signal x becomes node i. The natural visibility graph
(NVG) joins i < j when every interior sample lies strictly below the straight
chord between (i, x_i) and (j, x_j):

    x_k < x_j + (x_i - x_j) * (j - k) / (j - i)   for all i < k < j

with edge weight |x_j - x_i| / (j - i), the absolute chord slope. The
horizontal visibility graph (HVG) joins i < j when every interior sample is
strictly below min(x_i, x_j); all HVG edges have weight 1. Adjacent samples
are always mutually visible, so both graphs contain the path 0-1-...-(n-1)
and are connected.

A graph is three edge arrays (i, j, w) with i < j, sorted by (i, j).

The NVG is built on blocks of rows i, each row laid out by gap k = j - i so
that it holds only the columns j > i. In row i, j = i + 1 is always visible
and a later j is visible exactly when its slope (x_j - x_i) / (j - i) is
strictly above the running maximum of the slopes before it in the row. That
is O(n^2) array work; a block holds at most ``_BLOCK_ELEMENTS`` slopes, so it
needs about 17 bytes per element (slopes, running maximum, visibility mask),
~1.1 MB, whatever n is. The HVG comes from one O(n) pass over a stack of the
samples still visible from the right, whose values fall strictly from bottom
to top; one lexsort then puts its edges in (i, j) order.

The features need no per-node sets: degrees are bincounts of the edge
arrays, and closed triads are counted on an n x n boolean adjacency, taking
blocks of edges whose neighbour rows hold at most ``_BLOCK_ELEMENTS`` entries.
Builders and features repeat the float operations of the loop versions kept
as oracles in ``tests/test_embed_graph.py``, in the same edge order, so
their edges and features are bit-identical to them.

graph_features_rows is the one loop over signals: the features of the graph
a builder (nvg_build for graph_embed, hvg_build for embed_tda) makes of each
row of a 2-D array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .preprocess import per_channel

# largest number of array elements a block of NVG rows or of triad counts uses
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class VisibilityGraph:
    """Undirected weighted graph as edge arrays: i < j, sorted by (i, j)."""

    n_nodes: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    def degree_array(self) -> np.ndarray:
        return (np.bincount(self.i, minlength=self.n_nodes)
                + np.bincount(self.j, minlength=self.n_nodes))


def _check_signal(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ShapeError(f"visibility graph needs a 1-D signal of length >= 2, "
                         f"got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("visibility graph needs finite values")
    return x


def nvg_build(x: np.ndarray) -> VisibilityGraph:
    """Natural visibility graph with |slope| edge weights."""
    x = _check_signal(x)
    n = x.shape[0]
    # row i holds x[i + 1 : i + n]; past the end of x it holds -inf, whose
    # slopes are -inf and never visible
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([x[1:], np.full(n - 2, -np.inf)]), n - 1)
    gaps = np.arange(1, n, dtype=float)
    parts_i, parts_j, parts_w = [], [], []
    start = 0
    while start < n - 1:
        width = n - 1 - start
        stop = min(n - 1, start + max(1, _BLOCK_ELEMENTS // width))
        slopes = ahead[start:stop, :width] - x[start:stop, None]
        slopes /= gaps[:width]
        visible = np.empty(slopes.shape, dtype=bool)
        visible[:, 0] = True
        np.greater(slopes[:, 1:], np.maximum.accumulate(slopes[:, :-1], axis=1),
                   out=visible[:, 1:])
        # flat indices come out in (row, gap) order, i.e. sorted by (i, j)
        flat = np.flatnonzero(visible)
        r, k = np.divmod(flat, width)
        parts_i.append(start + r)
        parts_j.append(start + r + k + 1)
        parts_w.append(np.abs(slopes.ravel()[flat]))
        start = stop
    return VisibilityGraph(n, np.concatenate(parts_i), np.concatenate(parts_j),
                           np.concatenate(parts_w))


def hvg_build(x: np.ndarray) -> VisibilityGraph:
    """Horizontal visibility graph; every edge has weight 1."""
    x = _check_signal(x)
    values = x.tolist()
    ends_i: list[int] = []
    ends_j: list[int] = []
    stack: list[int] = []
    for j, v in enumerate(values):
        # tops lower than x_j see j and are hidden from everything after it
        while stack and values[stack[-1]] < v:
            ends_i.append(stack.pop())
            ends_j.append(j)
        if stack:
            top = stack[-1]
            ends_i.append(top)
            ends_j.append(j)
            if values[top] == v:
                stack.pop()
        stack.append(j)
    i = np.array(ends_i, dtype=np.int64)
    j = np.array(ends_j, dtype=np.int64)
    order = np.lexsort((j, i))
    return VisibilityGraph(x.shape[0], i[order], j[order], np.ones(i.shape[0]))


def _closed_triads(g: VisibilityGraph) -> int:
    """Sum over edges (i, j) of the common neighbours of i and j, which
    counts every triangle once per edge."""
    n = g.n_nodes
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[g.i, g.j] = True
    adjacent[g.j, g.i] = True
    step = max(1, _BLOCK_ELEMENTS // n)
    closed = 0
    for start in range(0, g.i.shape[0], step):
        common = adjacent[g.i[start:start + step]]
        common &= adjacent[g.j[start:start + step]]
        closed += int(np.count_nonzero(common))
    return closed


def graph_features(g: VisibilityGraph) -> np.ndarray:
    """Seven summary statistics of a visibility graph.

    [edge density, mean degree, degree std (population), max degree,
     transitivity, degree assortativity, mean edge weight]

    Transitivity is 3 * triangles / open-or-closed triads and assortativity
    is the Pearson correlation of endpoint degrees over directed edge pairs;
    both fall back to 0 when their denominator vanishes.
    """
    n = g.n_nodes
    m = int(g.i.shape[0])
    deg = g.degree_array()

    density = 2.0 * m / (n * (n - 1)) if n > 1 else 0.0
    mean_deg = deg.mean() if n else 0.0
    std_deg = deg.std() if n else 0.0
    max_deg = float(deg.max()) if n else 0.0

    triads = float(np.sum(deg * (deg - 1) / 2))
    transitivity = _closed_triads(g) / triads if triads > 0 else 0.0

    if m == 0:
        assortativity = 0.0
        mean_weight = 0.0
    else:
        deg_i = deg[g.i].astype(float)
        deg_j = deg[g.j].astype(float)
        ends_a = np.concatenate([deg_i, deg_j])
        ends_b = np.concatenate([deg_j, deg_i])
        var_a = np.var(ends_a)
        var_b = np.var(ends_b)
        if var_a == 0.0 or var_b == 0.0:
            assortativity = 0.0
        else:
            cov = np.mean((ends_a - ends_a.mean()) * (ends_b - ends_b.mean()))
            assortativity = cov / np.sqrt(var_a * var_b)
        mean_weight = float(np.mean(g.w))

    return np.array([density, mean_deg, std_deg, max_deg,
                     transitivity, assortativity, mean_weight])


def graph_features_rows(rows: np.ndarray, build) -> np.ndarray:
    """graph_features(build(x)) of every row x of a 2-D array, as (R, 7)."""
    return np.reshape([graph_features(build(x)) for x in rows], (rows.shape[0], 7))


def graph_embed(values: np.ndarray) -> np.ndarray:
    """NVG features per channel of a window or a stack, 7 per channel, laid
    out by preprocess.per_channel."""
    return per_channel(values, lambda rows: graph_features_rows(rows, nvg_build))
