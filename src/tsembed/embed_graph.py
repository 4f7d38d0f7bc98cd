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

Both builders take one signal or an (R, n) block of rows; the R graphs of a
block are views of one flat edge batch, except NVG rows built from all
slopes (below). Their pointers come from
numcore.next_greater: for every sample, the first later sample >= it (ge_i)
and the first later sample > it.

NVG. From i, j = i + 1 is always visible, and a later j is visible exactly
when its slope (x_j - x_i) / (j - i) is strictly above every slope before it
from i. Up to ge_i the slopes are taken densely, in runs bucketed by length.
Past ge_i, call a sample a record when it is above every sample from ge_i up
to it; those are ge_i's chain of next strictly greater samples. Any other
sample lies at or below an earlier record, which is at least x_i and nearer
to i, so its slope from i is no larger than that record's: float
subtraction and division are monotone, so this holds bit for bit. Only the
records can then be visible, and all rows step along their chains together.
A chain still running after ``_CHAIN_STEPS`` steps (a convex stretch makes it
O(n) long) finishes with dense slopes up to its last record, the first
maximum of the rest of the row. A row whose prefixes and chains would cover
more than ``_WHOLE_SHARE`` of its n(n-1)/2 slopes (convex, concave or
monotone rows) is built from all slopes instead, the way the builder it
replaced worked, and gets arrays of its own rather than views of the edge
batch: those slopes need no gather, no mask and no scatter, so such a row
at n = 1024 builds in one half to two thirds of the time of the runs and
chains.

HVG. The right neighbours of i are i + 1, then the chain of next strictly
greater samples from i + 1 up to and including ge_i; a chain longer than
``_CHAIN_STEPS`` finishes densely with the records of the rest.

Dense slopes go in chunks of at most ``_BLOCK_ELEMENTS`` elements (or one
run or row), whatever R is. The other temporaries hold a few values per
sample of the block, except next_greater's range-maximum tables for rows
with long rising runs (bit_length(n) values per sample) and the edge batch,
which holds the block's edges: a few per sample on noisy signals, n(n-1)/2
per row of a convex one. graph_features_rows hands the builders blocks of
at most ``_BLOCK_ELEMENTS`` samples (at least one row), so only one block's
temporaries and edge batch are live at a time.

The features need no per-node sets: degrees are bincounts of the edge
arrays, and closed triads are counted on a bit-packed adjacency, n x n bits
in uint64 words, taking blocks of edges whose rows hold at most
``_BLOCK_ELEMENTS`` words. Builders and features repeat the float
operations of the per-row loop versions kept as oracles in
``tests/test_embed_graph.py`` (and of the blocked and stack builders in
``tests/graph_reference.py``), in the same edge order, so their edges and
features are bit-identical to them.

graph_features_rows is the one loop over signals: the features of the graphs
a builder (nvg_build for graph_embed, hvg_build for embed_tda) makes of the
rows of a 2-D array, handed over one block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .numcore import next_greater
from .preprocess import per_channel

# largest number of samples in a block of rows, and of array elements in a
# chunk of dense slopes or of triad counts; at 2**16 the freed temporaries
# left the process heap about 10 MB larger in a long_windows grid
_BLOCK_ELEMENTS = 1 << 14
# chain steps before the chains still running finish with dense runs
_CHAIN_STEPS = 64
# share of all slopes above which an NVG row is built from all slopes
_WHOLE_SHARE = 0.5


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


def _check_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise ShapeError(f"visibility graph needs a 1-D signal or a 2-D block of rows "
                         f"of length >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("visibility graph needs finite values")
    return x


def _runs(edges: "_Edges", flat: np.ndarray, pair: np.ndarray, i: np.ndarray,
          first: np.ndarray, length: np.ndarray, level: np.ndarray,
          slopes: bool) -> np.ndarray:
    """Add the visible columns of runs of a flat row block to edges, and
    return the running maximum at the end of every run.

    Run k looks from sample i[k] of its row (flat index pair[k]) at the
    columns first[k] .. first[k] + length[k] - 1 (first > i, length >= 1).
    Column j holds the slope (x_j - x_i) / (j - i) when slopes is set, else
    x_j; it is visible when that value is strictly above level[k] and every
    value before it in the run, that is, exactly when it raises the running
    maximum, which then holds the value itself. Visible columns get the
    absolute slope or 1 as weight.

    Runs go through in buckets of similar length, each chunk padded to its
    longest run and holding at most _BLOCK_ELEMENTS columns (or one run),
    with the level in front: column 0 of a chunk row is the level, and the
    running maximum overwrites the values in place.
    """
    last = np.empty(length.shape[0])
    if not length.shape[0]:
        return last
    longest = int(length.max())
    padded = np.concatenate([flat, np.zeros(longest)])
    steps = np.arange(float(longest))
    at = pair + first - i  # flat index of each run's first column
    bucket = np.frexp(length.astype(float))[1]
    for b in np.unique(bucket):
        members = np.flatnonzero(bucket == b)
        step = max(1, _BLOCK_ELEMENTS // (1 << int(b)))
        for lo in range(0, members.shape[0], step):
            runs = members[lo:lo + step]
            width = int(length[runs].max())
            # the window one sample early, whose column 0 then takes the level
            chunk = np.lib.stride_tricks.sliding_window_view(padded, width + 1)[at[runs] - 1]
            value = chunk[:, 1:]
            if slopes:
                value -= flat[pair[runs], None]
                value /= (first[runs] - i[runs]).astype(float)[:, None] + steps[:width]
            chunk[:, 0] = level[runs]
            np.maximum.accumulate(chunk, axis=1, out=chunk)
            visible = value > chunk[:, :-1]
            visible &= steps[:width] < length[runs, None]
            k = np.arange(runs.shape[0])
            last[runs] = chunk[k, length[runs]]
            hits = np.flatnonzero(visible)
            row = hits // width
            col = hits - row * width
            w = np.abs(chunk.ravel()[hits + row + 1]) if slopes else 1.0
            edges.add_runs(pair[runs], np.count_nonzero(visible, axis=1), row,
                           first[runs][row] + col, w)
    return last


class _Edges:
    """The edges of a row block, added phase by phase, each edge as its pair
    (the flat index r * n + i of its left end), j and weight (or one weight
    for the whole phase). A pair's edges are listed phase by phase, and in
    the order given within a phase; that is (i, j) order."""

    def __init__(self, rows: int, n: int):
        self.n = n
        self.count = np.zeros(rows * n, dtype=np.int64)
        self.phases = []

    def add(self, pair, j, w):
        """One edge for each of the distinct pairs."""
        self.phases.append((pair, self.count[pair], None, j, w))
        self.count[pair] += 1

    def add_runs(self, pair, counts, row, j, w):
        """counts[k] edges for each of the distinct pairs, listed pair by
        pair; row gives each edge's index into pair."""
        base = self.count[pair] - (np.cumsum(counts) - counts)
        self.count[pair] += counts
        self.phases.append((pair, base, row, j, w))

    def graphs(self) -> list[VisibilityGraph]:
        """One graph per row, its arrays views of one flat edge batch."""
        n = self.n
        offsets = np.concatenate([[0], np.cumsum(self.count)])
        i_all = np.repeat(np.arange(self.count.shape[0]) % n, self.count)
        j_all = np.empty(offsets[-1], dtype=np.int64)
        w_all = np.empty(offsets[-1])
        for pair, base, row, j, w in self.phases:
            at = offsets[pair] + base
            if row is not None:
                at = at[row] + np.arange(row.shape[0])
            j_all[at] = j
            w_all[at] = w
        ends = offsets[::n]
        return [VisibilityGraph(n, i_all[a:b], j_all[a:b], w_all[a:b])
                for a, b in zip(ends[:-1], ends[1:])]


def _pointers(x: np.ndarray):
    """Flat samples, next >= and next > columns, and the (pair, i, row start)
    of every sample with a later one."""
    rows, n = x.shape
    pair = np.arange(rows * n).reshape(rows, n)[:, :n - 1].ravel()
    i = pair % n
    ge, gt = next_greater(x)
    return x.ravel(), ge.ravel(), gt.ravel(), pair, i, pair - i


def _chain_lengths(gt: np.ndarray, n: int) -> np.ndarray:
    """The number of samples on the chain of next strictly greater samples
    from every sample of a flat block of rows of n, itself included, from
    the flat gt columns; by pointer doubling, O(log n) rounds."""
    end = gt.shape[0]
    hop = np.append(np.where(gt < n, np.arange(end) - np.arange(end) % n + gt, end), end)
    length = np.ones(end + 1, dtype=np.int64)
    length[end] = 0
    while (hop[:end] != end).any():
        length += length[hop]
        hop = hop[hop]
    return length[:end]


def _nvg_all_slopes(x: np.ndarray) -> VisibilityGraph:
    """The NVG of one signal from all n(n-1)/2 slopes, in blocks of rows i
    laid out by gap j - i, of at most _BLOCK_ELEMENTS slopes each. Column j
    is visible from i exactly when its slope raises the running maximum of
    the row (j = i + 1 always), which then holds that slope."""
    n = x.shape[0]
    # row i holds x[i + 1 : i + n]; past the end of x it holds -inf, whose
    # slopes are -inf and never raise the running maximum
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([x[1:], np.full(n - 2, -np.inf)]), n - 1)
    gaps = np.arange(1, n, dtype=float)
    parts_i, parts_j, parts_w = [], [], []
    start = 0
    while start < n - 1:
        width = n - 1 - start
        stop = min(n - 1, start + max(1, _BLOCK_ELEMENTS // width))
        running = ahead[start:stop, :width] - x[start:stop, None]
        running /= gaps[:width]
        np.maximum.accumulate(running, axis=1, out=running)
        visible = np.empty(running.shape, dtype=bool)
        visible[:, 0] = True
        np.greater(running[:, 1:], running[:, :-1], out=visible[:, 1:])
        hits = np.flatnonzero(visible)
        r = hits // width
        k = hits - r * width
        r += start
        parts_i.append(r)
        parts_j.append(r + k + 1)
        parts_w.append(np.abs(running.ravel()[hits]))
        start = stop
    return VisibilityGraph(n, np.concatenate(parts_i), np.concatenate(parts_j),
                           np.concatenate(parts_w))


def _nvg_block(x: np.ndarray) -> list[VisibilityGraph]:
    rows, n = x.shape
    flat, ge, gt, pair, i, start = _pointers(x)
    # rows whose prefixes and chains below would cover more than
    # _WHOLE_SHARE of all slopes are cheaper to build from all slopes
    end = np.minimum(ge[pair], n - 1)
    chain = _chain_lengths(gt, n)[start + end] - 1
    work = np.maximum(end - i - 1, 0) + np.where(ge[pair] < n, chain, 0)
    whole = (np.bincount(pair // n, weights=work, minlength=rows)
             > _WHOLE_SHARE * n * (n - 1) / 2)
    if whole.any():
        sparse = ~whole[pair // n]
        pair, i, start = pair[sparse], i[sparse], start[sparse]
    edges = _Edges(rows, n)
    # j = i + 1 is always visible
    running = (flat[pair + 1] - flat[pair]) / 1.0
    edges.add(pair, i + 1, np.abs(running))
    # dense slopes up to the first later sample >= x_i
    end = np.minimum(ge[pair], n - 1)
    dense = np.flatnonzero(end > i + 1)
    running[dense] = _runs(edges, flat, pair[dense], i[dense], i[dense] + 2,
                           end[dense] - i[dense] - 1, running[dense], slopes=True)
    # past it only the chain of next strictly greater samples can be visible
    col = gt[start + end]
    on = (ge[pair] < n) & (col < n)
    pair, i, start, running, col = (a[on] for a in (pair, i, start, running, col))
    origin = flat[pair]
    for _ in range(_CHAIN_STEPS):
        if not pair.shape[0]:
            break
        slope = (flat[start + col] - origin) / (col - i)
        seen = slope > running
        edges.add(pair[seen], col[seen], np.abs(slope[seen]))
        np.maximum(running, slope, out=running)
        col = gt[start + col]
        on = col < n
        pair, i, start, running, col, origin = (
            a[on] for a in (pair, i, start, running, col, origin))
    if pair.shape[0]:
        # chains still running at the cap finish with dense slopes, up to the
        # chain's last record: the first maximum of the rest of the row
        top = _suffix_tops(x).ravel()
        _runs(edges, flat, pair, i, col, top[start + col] - col + 1, running, slopes=True)
    graphs = edges.graphs()
    for r in np.flatnonzero(whole):
        graphs[r] = _nvg_all_slopes(x[r])
    return graphs


def _suffix_tops(x: np.ndarray) -> np.ndarray:
    """For every column c of every row, the first column j >= c holding the
    maximum of the row from c on."""
    rows, n = x.shape
    later = np.full((rows, n), -np.inf)
    later[:, :-1] = np.maximum.accumulate(x[:, :0:-1], axis=1)[:, ::-1]
    column = np.where(x >= later, np.arange(n), n)
    return np.minimum.accumulate(column[:, ::-1], axis=1)[:, ::-1]


def _hvg_block(x: np.ndarray) -> list[VisibilityGraph]:
    rows, n = x.shape
    flat, ge, gt, pair, i, start = _pointers(x)
    edges = _Edges(rows, n)
    edges.add(pair, i + 1, 1.0)
    # then the chain of next strictly greater samples from i + 1, up to and
    # including the first later sample >= x_i
    end = ge[pair]
    prev = i + 1
    col = gt[pair + 1]
    on = (end > prev) & (col < n)
    pair, i, start, end, prev, col = (a[on] for a in (pair, i, start, end, prev, col))
    for _ in range(_CHAIN_STEPS):
        if not pair.shape[0]:
            break
        edges.add(pair, col, 1.0)
        prev = col
        col = gt[start + col]
        on = (end > prev) & (col < n)
        pair, i, start, end, prev, col = (a[on] for a in (pair, i, start, end, prev, col))
    if pair.shape[0]:
        # chains still running at the cap finish with the records of the rest
        _runs(edges, flat, pair, i, col, np.minimum(end, n - 1) - col + 1,
              flat[start + prev], slopes=False)
    return edges.graphs()


def _build(x: np.ndarray, block) -> VisibilityGraph | list[VisibilityGraph]:
    x = _check_rows(x)
    return block(x[None])[0] if x.ndim == 1 else block(x)


def nvg_build(x: np.ndarray) -> VisibilityGraph | list[VisibilityGraph]:
    """Natural visibility graph with |slope| edge weights of a 1-D signal, or
    the list of those of the rows of a 2-D block."""
    return _build(x, _nvg_block)


def hvg_build(x: np.ndarray) -> VisibilityGraph | list[VisibilityGraph]:
    """Horizontal visibility graph of a 1-D signal, or the list of those of
    the rows of a 2-D block; every edge has weight 1."""
    return _build(x, _hvg_block)


# SWAR popcount constants, as np.uint64 so that no shift or multiply
# promotes to float under either numpy's legacy or NEP 50 casting rules
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)
_S1, _S2, _S4, _S56 = (np.uint64(k) for k in (1, 2, 4, 56))


def _popcount(words: np.ndarray) -> int:
    """Set bits of an array of uint64 words, which it overwrites: pairwise
    sums of bit counts within each word until every byte holds its own
    count, then one multiply that adds the eight byte counts into the top
    byte."""
    part = words >> _S1
    part &= _M1
    words -= part
    np.right_shift(words, _S2, out=part)
    part &= _M2
    words &= _M2
    words += part
    np.right_shift(words, _S4, out=part)
    words += part
    words &= _M4
    words *= _H01
    words >>= _S56
    return int(words.sum())


def _closed_triads(g: VisibilityGraph) -> int:
    """Sum over edges (i, j) of the common neighbours of i and j, which
    counts every triangle once per edge: the set bits of the AND of the two
    endpoints' adjacency rows, packed 64 to a uint64 word."""
    n = g.n_nodes
    adjacent = np.zeros((n, -(-n // 64) * 64), dtype=bool)
    adjacent[g.i, g.j] = True
    adjacent[g.j, g.i] = True
    words = np.packbits(adjacent, axis=1, bitorder="little").view(np.uint64)
    step = max(1, _BLOCK_ELEMENTS // words.shape[1])
    closed = 0
    for start in range(0, g.i.shape[0], step):
        common = words[g.i[start:start + step]]
        common &= words[g.j[start:start + step]]
        closed += _popcount(common)
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
    """graph_features of every graph build makes of the rows of a 2-D array,
    as (R, 7); build gets one block of rows at a time."""
    step = max(1, _BLOCK_ELEMENTS // max(rows.shape[1], 1))
    return np.reshape([graph_features(g) for lo in range(0, rows.shape[0], step)
                       for g in build(rows[lo:lo + step])], (rows.shape[0], 7))


def graph_embed(values: np.ndarray) -> np.ndarray:
    """NVG features per channel of a window or a stack, 7 per channel, laid
    out by preprocess.per_channel."""
    return per_channel(values, lambda rows: graph_features_rows(rows, nvg_build))
