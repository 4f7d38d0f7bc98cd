"""Zero-dimensional sublevel-set persistence and diagram-based features.

Sweeping the threshold upward over a 1-D signal, connected components of the
sublevel set appear at local minima and merge at local maxima. Samples enter
in ascending (value, index) order, their rank. At a merge the elder rule keeps
the component whose minimum ranks lower; the younger one dies, giving the pair
(its birth value, the merging sample's value). Zero-persistence pairs are
dropped. The component that never dies is closed off as the essential pair
(global min, global max), so every diagram from a signal has at least one
pair and all coordinates are finite. Pairs come in the rank order of their
death samples, the essential pair last.

sublevel_persistence_rows gives these pairs for every row of a 2-D array at
once, in O(log T) array passes over rows of T samples; sublevel_persistence is
its single row. A component is born at a sample m that ranks below both
neighbours, and dies at the lower-ranked of two saddles: on each side, the
highest-ranked sample between m and the nearest lower-ranked sample (the
"prominence" of m). The global minimum has no lower sample on either side
and closes the essential pair. Births and deaths are copies of input values,
so no rounding enters. The nearest lower sample on each side comes from
binary lifting over range-minimum tables of the ranks, the saddles from
range-maximum tables: 2 * T * bit_length(T) int32 entries per row (about
88 KB at T = 1024). Rows go through in blocks whose tables stay within
2 * _CHUNK_ELEMENTS entries, and a block always holds at least one row. The
union-find sweep in tests/tda_reference.py is the oracle: same pairs, same
order, bit for bit.

On top of one diagram: exact p-norms of persistence landscapes via piecewise
integration (Bubenik & Dlotko, J. Symb. Comput. 2017), evaluated on all
breakpoints at once, and Wasserstein / bottleneck distances through an
augmented assignment problem that lets unmatched points pay their distance
to the diagonal. The general distances are capped at 64 total points
(CapacityError beyond); they load scipy's matcher on first use.

tda_embed takes one (tau, C) window or an (n, tau, C) stack and
concatenates, per channel: 4 diagram scalars (persistence entropy, total and
largest persistence, pair count), a Betti curve (pairs alive on the
half-open [b, d)) on grid_size points (2 to MAX_GRID_SIZE) spanning the
channel's range, 5 more scalars (the L1 and L2 norms of the first landscape,
W1/W2/bottleneck against the empty diagram) and the 7 horizontal visibility
graph features (embed_graph.graph_features_rows), giving C * (16 + grid_size)
dimensions. Everything else comes from the flat diagrams of one
sublevel_persistence_rows call over the channel rows of preprocess.per_channel:

- The first landscape of a diagram from a signal is one tent. The essential
  pair (min x, max x) contains every other pair, since every birth is at
  least min x and every death at most max x, so its tent lies over all the
  others. With half-width h = (max x - min x) / 2 the norms are L1 = h^2 and
  L2 = sqrt(2 h^3 / 3). landscape_norms' exact Simpson sums over every tent
  crossing agree up to rounding: on 612 z-scored tones, trends and
  statebursts channels at tau 16 to 1024 they differed by at most 2.6e-14
  relative (L1) and 1.3e-14 (L2), far below the 6 significant digits of the
  reports.
- The distances to the empty diagram are closed forms too (the sum, 2-norm
  and max of the half-persistences), equal to the matcher's results bit for
  bit and with no size cap, so tda_embed works at any window length.
- Sums (total persistence, entropy, the half-persistence sums) are taken for
  all rows with one pair count at once, each a C-contiguous row of one block,
  which numpy sums in the order np.sum uses on that row alone; maxima are
  exact in any order. Betti curves compare (row, grid value, pair) triples in
  blocks of at most _CHUNK_ELEMENTS, so their memory stays flat in n and
  grid_size.

So a stack gives the bytes of its windows one at a time, and every feature
but the two landscape norms is bit-identical to the per-window union-find
version kept in tests/tda_reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed_graph import graph_features_rows, hvg_build
from .errors import CapacityError, ConfigError, DataError, ShapeError
from .preprocess import per_channel

WASSERSTEIN_MAX_POINTS = 64
DEFAULT_GRID_SIZE = 8
# Betti curve points per channel: far more than the curve has steps at the
# window lengths in use, and few enough that C * (16 + grid_size) features fit
MAX_GRID_SIZE = 4096
# elements per block of tent values, rank tables or Betti comparisons, so long
# windows, long batches and fine grids keep memory flat
_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class PersistenceDiagram:
    """Birth/death pairs; ``essential`` flags the pair closed at the global max."""

    births: np.ndarray
    deaths: np.ndarray
    essential: np.ndarray

    def __post_init__(self):
        if not (self.births.shape == self.deaths.shape == self.essential.shape):
            raise ShapeError("diagram arrays must share one shape")
        if np.any(self.deaths < self.births):
            raise DataError("diagram has a pair dying before its birth")

    @property
    def n_pairs(self) -> int:
        return self.births.shape[0]

    def persistences(self) -> np.ndarray:
        return self.deaths - self.births

    @staticmethod
    def empty() -> "PersistenceDiagram":
        z = np.zeros(0)
        return PersistenceDiagram(z, z.copy(), np.zeros(0, dtype=bool))


def sublevel_persistence(x: np.ndarray) -> PersistenceDiagram:
    """0-dimensional sublevel-set persistence of a 1-D signal: the one row of
    sublevel_persistence_rows, with its essential pair flagged last."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"persistence needs a nonempty 1-D signal, got shape {x.shape}")
    births, deaths, _ = sublevel_persistence_rows(x[None])
    essential = np.zeros(births.shape[0], dtype=bool)
    essential[-1] = True
    return PersistenceDiagram(births, deaths, essential)


def _rows_pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs of a block of rows: flat births and deaths sorted by (row,
    death rank), essential pairs last in their row, and pairs per row."""
    R, T = x.shape
    levels = T.bit_length()  # 2**k <= T for k < levels
    order = np.argsort(x, axis=1, kind="stable")  # (value, index) order
    rank = np.empty((R, T), dtype=np.int32)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(T, dtype=np.int32), (R, T)),
                      axis=1)
    # level k holds the min / max rank over [i, i + 2**k), for i <= T - 2**k
    lows = np.empty((levels, R, T), dtype=np.int32)
    highs = np.empty((levels, R, T), dtype=np.int32)
    lows[0] = highs[0] = rank
    for k in range(1, levels):
        w = 1 << (k - 1)
        n = T - 2 * w + 1
        np.minimum(lows[k - 1, :, :n], lows[k - 1, :, w:w + n], out=lows[k, :, :n])
        np.maximum(highs[k - 1, :, :n], highs[k - 1, :, w:w + n], out=highs[k, :, :n])
    lows = lows.reshape(levels, -1)
    highs = highs.ravel()

    edge = np.full((R, 1), T, dtype=np.int32)
    padded = np.concatenate([edge, rank, edge], axis=1)
    r, m = np.nonzero((rank < padded[:, :-2]) & (rank < padded[:, 2:]))
    base = r * T
    rm = rank[r, m]
    # binary lifting: grow each side of m while its next block of 2**k samples
    # ranks above m; the side then ends next to the nearest lower-ranked sample
    left, right = m.copy(), m + 1
    for k in range(levels - 1, -1, -1):
        w = 1 << k
        ok = (left >= w) & (lows[k][base + np.maximum(left - w, 0)] > rm)
        left = np.where(ok, left - w, left)
        ok = (right + w <= T) & (lows[k][base + np.minimum(right, T - w)] > rm)
        right = np.where(ok, right + w, right)

    def highest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Max rank over [a, b] from two overlapping table entries."""
        k = np.frexp(b - a + 1)[1] - 1  # floor(log2(length))
        at = (k * R + r) * T
        return np.maximum(highs[at + a], highs[at + b - (1 << k) + 1])

    # each side's saddle is its highest sample; a side that reached the end
    # of the row met no lower sample and has no saddle
    has_left, has_right = left > 0, right < T
    saddle_left = np.where(has_left, highest(np.where(has_left, left, m),
                                             np.where(has_left, m - 1, m)), T)
    saddle_right = np.where(has_right, highest(np.where(has_right, m + 1, m),
                                               np.where(has_right, right - 1, m)), T)
    death = np.minimum(saddle_left, saddle_right)
    dies = death < T  # all but the global minimum
    r, m, death = r[dies], m[dies], death[dies]
    births, deaths = x[r, m], x[r, order[r, death]]
    kept = deaths > births  # zero-persistence merges are dropped
    r = r[kept]
    rows = np.arange(R)
    keys = np.concatenate([r * (T + 1) + death[kept], rows * (T + 1) + T])
    sort = np.argsort(keys)
    births = np.concatenate([births[kept], x.min(axis=1)])[sort]
    deaths = np.concatenate([deaths[kept], x.max(axis=1)])[sort]
    return births, deaths, np.bincount(r, minlength=R) + 1


def sublevel_persistence_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-dimensional sublevel-set persistence of every row of a 2-D array.

    Returns the births and deaths of all rows as two flat arrays, row after
    row, and the number of pairs of each row. A row's pairs follow the elder
    rule (a merge kills the component whose minimum comes later in the
    (value, index) order), leave out zero persistence, come in the (value,
    index) order of their death samples, and end with the essential pair
    (row min, row max).
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"persistence needs rows of at least one sample, got shape {x.shape}")
    R, T = x.shape
    step = max(1, _CHUNK_ELEMENTS // (T * T.bit_length()))
    parts = [_rows_pairs(x[i:i + step]) for i in range(0, R, step)]
    if not parts:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _undominated(pairs: np.ndarray) -> np.ndarray:
    """Tents not contained in another: b and d both strictly increasing.

    A tent (b_j, d_j) with b_i <= b_j and d_j <= d_i lies under tent i at
    every x, also after rounding, since x - b and d - x round monotonically;
    dropping it leaves the pointwise maximum unchanged.
    """
    order = np.lexsort((-pairs[:, 1], pairs[:, 0]))
    d = pairs[order, 1]
    prev_max = np.maximum.accumulate(np.concatenate([[-np.inf], d[:-1]]))
    return pairs[order[d > prev_max]]


def _kth_landscape(pairs: np.ndarray, k: int, xs: np.ndarray) -> np.ndarray:
    """lambda_k at every x in xs: the k-th largest max(0, min(x - b, d - x))."""
    if k == 1:
        pairs = _undominated(pairs)
    out = np.empty(xs.shape[0])
    step = max(1, _CHUNK_ELEMENTS // pairs.shape[0])
    for start in range(0, xs.shape[0], step):
        x = xs[start:start + step, None]
        vals = np.maximum(0.0, np.minimum(x - pairs[None, :, 0], pairs[None, :, 1] - x))
        if k == 1:
            out[start:start + step] = vals.max(axis=1)
        else:
            out[start:start + step] = np.partition(vals, -k, axis=1)[:, -k]
    return out


def landscape_norms(dgm: PersistenceDiagram, k: int) -> tuple[float, float]:
    """Exact (L^1, L^2) norms of the k-th persistence landscape (k >= 1).

    The landscape is piecewise linear with kinks only at tent endpoints,
    tent apexes, and crossings of one tent's rising edge with another's
    falling edge; integrating with Simpson's rule between consecutive
    candidate points is exact for p = 1 (linear) and p = 2 (quadratic).
    The Simpson terms are summed left to right.
    """
    if k < 1:
        raise ConfigError(f"landscape level k must be >= 1, got {k}")
    mask = dgm.persistences() > 0
    if int(mask.sum()) < k:
        # fewer than k tents means the k-th landscape is identically zero
        return 0.0, 0.0
    b, d = dgm.births[mask], dgm.deaths[mask]
    candidates = np.unique(np.concatenate([b, d, ((b[:, None] + d[None, :]) / 2.0).ravel()]))
    xs = candidates[(b.min() <= candidates) & (candidates <= d.max())]
    mids = (xs[:-1] + xs[1:]) / 2.0
    lam = _kth_landscape(np.stack([b, d], axis=1), k, np.concatenate([xs, mids]))
    lam_xs, fm = lam[:xs.shape[0]], lam[xs.shape[0]:]
    f0, f1 = lam_xs[:-1], lam_xs[1:]
    h = xs[1:] - xs[:-1]  # > 0: distinct floats never subtract to zero
    # cumsum adds strictly left to right; the leading 0.0 is the running
    # total's start value, so the sums equal those of a scalar loop bit for bit
    terms1 = np.concatenate([[0.0], h * (f0 + 4.0 * fm + f1) / 6.0])
    terms2 = np.concatenate([[0.0], h * (f0 * f0 + 4.0 * fm * fm + f1 * f1) / 6.0])
    return float(np.cumsum(terms1)[-1]), float(np.sqrt(np.cumsum(terms2)[-1]))


def landscape_norm(dgm: PersistenceDiagram, k: int, p: int) -> float:
    """Exact L^p norm of the k-th persistence landscape (k >= 1, p in {1, 2})."""
    if p not in (1, 2):
        raise ConfigError(f"landscape norm supports p in {{1, 2}}, got {p}")
    return landscape_norms(dgm, k)[p - 1]


def _as_points(dgm: PersistenceDiagram) -> np.ndarray:
    return np.stack([dgm.births, dgm.deaths], axis=1) if dgm.n_pairs else np.zeros((0, 2))


def _check_capacity(d1: PersistenceDiagram, d2: PersistenceDiagram) -> None:
    total = d1.n_pairs + d2.n_pairs
    if total > WASSERSTEIN_MAX_POINTS:
        raise CapacityError(
            f"{total} diagram points exceed the matching cap of {WASSERSTEIN_MAX_POINTS}")


def _augmented_costs(a: np.ndarray, b: np.ndarray, power: int | None) -> np.ndarray:
    """(n+m, n+m) assignment costs with diagonal-projection slots.

    Row i < n is point a_i; rows n.. are copies of the diagonal that can only
    absorb the matching b_j. Columns mirror this for b. power=None keeps raw
    L-infinity values (bottleneck); otherwise entries are cost**power.
    """
    n, m = a.shape[0], b.shape[0]
    if n + m == 0:
        return np.zeros((0, 0))
    cross = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2) if n and m \
        else np.zeros((n, m))
    da = (a[:, 1] - a[:, 0]) / 2.0
    db = (b[:, 1] - b[:, 0]) / 2.0
    if power is not None:
        cross = cross ** power
        da = da ** power
        db = db ** power
    big = float(cross.sum() + da.sum() + db.sum()) + 1.0
    top_right = np.full((n, n), big)
    np.fill_diagonal(top_right, da)
    bottom_left = np.full((m, m), big)
    np.fill_diagonal(bottom_left, db)
    upper = np.concatenate([cross, top_right], axis=1)
    lower = np.concatenate([bottom_left, np.zeros((m, n))], axis=1)
    return np.concatenate([upper, lower], axis=0)


def wasserstein(d1: PersistenceDiagram, d2: PersistenceDiagram, p: int = 1) -> float:
    """p-Wasserstein distance with L-infinity ground metric."""
    if p < 1:
        raise ConfigError(f"Wasserstein order must be >= 1, got {p}")
    from scipy.optimize import linear_sum_assignment

    _check_capacity(d1, d2)
    a, b = _as_points(d1), _as_points(d2)
    if a.shape[0] + b.shape[0] == 0:
        return 0.0
    costs = _augmented_costs(a, b, power=p)
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() ** (1.0 / p))


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Bottleneck distance via binary search over candidate matching costs."""
    from scipy.optimize import linear_sum_assignment

    _check_capacity(d1, d2)
    a, b = _as_points(d1), _as_points(d2)
    if a.shape[0] + b.shape[0] == 0:
        return 0.0
    costs = _augmented_costs(a, b, power=None)
    n, m = a.shape[0], b.shape[0]
    candidates = {0.0}
    if n and m:
        candidates.update(np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2).ravel())
    candidates.update(((a[:, 1] - a[:, 0]) / 2.0).ravel())
    candidates.update(((b[:, 1] - b[:, 0]) / 2.0).ravel())
    levels = sorted(candidates)

    def feasible(t: float) -> bool:
        blocked = (costs > t).astype(float)
        rows, cols = linear_sum_assignment(blocked)
        return blocked[rows, cols].sum() == 0.0

    lo, hi = 0, len(levels) - 1
    if feasible(levels[lo]):
        return float(levels[lo])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid
    return float(levels[hi])


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of counts[i] entries along the last axis,
    each as np.sum of that run alone would give it.

    numpy sums a short run in sequence and a longer one in eight lanes, so
    runs of one length are gathered into a C-contiguous block and summed
    along its rows, which uses the 1-D summation order.
    """
    starts = np.cumsum(counts) - counts
    out = np.zeros(values.shape[:-1] + counts.shape)
    for n in np.unique(counts):
        rows = np.flatnonzero(counts == n)
        runs = np.ascontiguousarray(values[..., starts[rows, None] + np.arange(n)])
        out[..., rows] = runs.sum(axis=-1)
    return out


def _grids(lo: np.ndarray, hi: np.ndarray, grid_size: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], grid_size) for every i, bit for bit.

    With array endpoints linspace takes its zero-step formula for all rows
    once any row has a zero step, so those rows get a call of their own.
    """
    grids = np.empty(lo.shape + (grid_size,))
    flat = (hi - lo) / (grid_size - 1) == 0.0
    for rows in (flat, ~flat):
        if rows.any():
            grids[rows] = np.linspace(lo[rows], hi[rows], grid_size, axis=-1)
    return grids


def _betti_curves(births: np.ndarray, deaths: np.ndarray, counts: np.ndarray,
                  grids: np.ndarray) -> np.ndarray:
    """Pairs alive (b <= x < d) at each grid value, row by row, compared in
    blocks of at most _CHUNK_ELEMENTS (row, grid value, pair) triples."""
    R, G = grids.shape
    width = int(counts.max(initial=1))
    # padding pairs are born at +inf, so they are never alive
    b = np.full((R, width), np.inf)
    d = np.full((R, width), np.inf)
    row = np.repeat(np.arange(R), counts)
    col = np.arange(row.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    b[row, col], d[row, col] = births, deaths
    out = np.empty((R, G))
    cols = max(1, min(G, _CHUNK_ELEMENTS // width))
    rows = max(1, _CHUNK_ELEMENTS // (width * cols))
    for i in range(0, R, rows):
        for j in range(0, G, cols):
            g = grids[i:i + rows, j:j + cols, None]
            alive = (b[i:i + rows, None, :] <= g) & (g < d[i:i + rows, None, :])
            out[i:i + rows, j:j + cols] = np.count_nonzero(alive, axis=-1)
    return out


def _diagram_features(x: np.ndarray, grid_size: int) -> np.ndarray:
    """The 9 + grid_size diagram features of every row of an (R, T) array."""
    births, deaths, counts = sublevel_persistence_rows(x)
    starts = np.cumsum(counts) - counts
    row = np.repeat(np.arange(counts.shape[0]), counts)
    pers = deaths - births
    # against the empty diagram every point is matched to the diagonal
    half = pers / 2.0
    total, half_sum, half_sq = _row_sums(np.stack([pers, half, half ** 2]), counts)
    # entropy of pers / total; a row with total 0 has entropy 0 and no division
    live = (total != 0.0)[row]
    p = pers[live] / total[row[live]]
    positive = p > 0
    p = p[positive]
    terms = _row_sums(p * np.log(p), np.bincount(row[live][positive], minlength=len(counts)))
    entropy = np.where(total == 0.0, 0.0, -terms)
    lo, hi = x.min(axis=1), x.max(axis=1)
    betti = _betti_curves(births, deaths, counts, _grids(lo, hi, grid_size))
    # the first landscape is the tent of the essential pair (module docstring)
    h = (hi - lo) / 2.0
    return np.column_stack([
        entropy, total, np.maximum.reduceat(pers, starts), counts.astype(float), betti,
        h * h, np.sqrt(2.0 * h * h * h / 3.0),
        half_sum,
        [s ** 0.5 for s in half_sq.tolist()],  # pow, as the 1-D path, not sqrt
        np.maximum.reduceat(half, starts),
    ])


def check_grid_size(grid_size: int) -> None:
    """ConfigError unless 2 <= grid_size <= MAX_GRID_SIZE."""
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise ConfigError(f"parameter 'grid_size' must be between 2 and {MAX_GRID_SIZE}, "
                          f"got {grid_size}")


def tda_embed(values: np.ndarray, grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Per-channel persistence + HVG features of a window or a stack, C * (16
    + grid_size) of them, laid out by preprocess.per_channel."""
    check_grid_size(grid_size)
    values = np.asarray(values, dtype=float)
    if values.ndim not in (2, 3) or values.shape[-2] < 2:
        raise ShapeError(f"tda needs (tau, C) windows with tau >= 2, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise DataError("tda needs finite values")
    return per_channel(values, lambda rows: np.concatenate(
        [_diagram_features(rows, grid_size), graph_features_rows(rows, hvg_build)], axis=1))
