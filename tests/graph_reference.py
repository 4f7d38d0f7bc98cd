"""The per-signal visibility graph code that the block builders of
``embed_graph`` replaced, kept as their oracles.

``nvg_build_blocked`` computes every slope of a signal, in blocks of rows i
laid out by gap k = j - i; in row i, j = i + 1 is always visible and a later
j is visible exactly when its slope is strictly above the running maximum of
the slopes before it. ``hvg_build_stack`` is one pass over a stack of the
samples still visible from the right, whose values fall strictly from bottom
to top, then one lexsort into (i, j) order. ``closed_triads_boolean`` counts
closed triads on an n x n boolean adjacency.
"""

import numpy as np

from tsembed.embed_graph import VisibilityGraph

# largest number of slopes or adjacency entries one block holds
BLOCK_ELEMENTS = 1 << 16


def nvg_build_blocked(x: np.ndarray) -> VisibilityGraph:
    x = np.asarray(x, dtype=float)
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
        stop = min(n - 1, start + max(1, BLOCK_ELEMENTS // width))
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


def hvg_build_stack(x: np.ndarray) -> VisibilityGraph:
    values = np.asarray(x, dtype=float).tolist()
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
    return VisibilityGraph(len(values), i[order], j[order], np.ones(i.shape[0]))


def closed_triads_boolean(g: VisibilityGraph) -> int:
    """Sum over edges (i, j) of the common neighbours of i and j."""
    n = g.n_nodes
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[g.i, g.j] = True
    adjacent[g.j, g.i] = True
    step = max(1, BLOCK_ELEMENTS // n)
    closed = 0
    for start in range(0, g.i.shape[0], step):
        common = adjacent[g.i[start:start + step]]
        common &= adjacent[g.j[start:start + step]]
        closed += int(np.count_nonzero(common))
    return closed
