"""Zero-dimensional sublevel-set persistence and diagram-based features.

Sweeping the threshold upward over a 1-D signal, connected components of the
sublevel set appear at local minima and merge at local maxima. The union-find
pass processes samples in ascending (value, index) order; when two components
merge, the younger one (larger (min value, min index)) dies, emitting the
pair (its birth value, current value). Pairs with zero persistence are
dropped. The component that never dies is closed off as the essential pair
(global min, global max), so every diagram from a signal has at least one
pair and all coordinates are finite.

On top of diagrams: persistence entropy, Betti curves (half-open [b, d)
convention), exact p-norms of persistence landscapes via piecewise
integration (Bubenik & Dlotko, J. Symb. Comput. 2017), evaluated on all
breakpoints at once, and Wasserstein / bottleneck distances through an
augmented assignment problem that lets unmatched points pay their distance
to the diagonal. The general distances are capped at 64 total points
(CapacityError beyond); they load scipy's matcher on first use.

tda_embed concatenates, per channel: 4 diagram scalars, a Betti curve on
grid_size points (2 to MAX_GRID_SIZE) spanning the channel's range, 5 more
scalars (two landscape norms, W1/W2/bottleneck against the empty diagram),
and the 7 horizontal visibility graph features, giving C * (9 + grid_size +
7) dimensions. The
distances to the empty diagram use their closed forms (the sum, 2-norm and
max of the half-persistences), which equal the matcher's results bit for
bit and have no size cap, so tda_embed works at any window length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed_graph import graph_features, hvg_build
from .errors import CapacityError, ConfigError, DataError, ShapeError

WASSERSTEIN_MAX_POINTS = 64
DEFAULT_GRID_SIZE = 8
# Betti curve points per channel: far more than the curve has steps at the
# window lengths in use, and few enough that C * (16 + grid_size) features fit
MAX_GRID_SIZE = 4096


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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root


def sublevel_persistence(x: np.ndarray) -> PersistenceDiagram:
    """0-dimensional sublevel-set persistence of a 1-D signal."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError(f"persistence needs a nonempty 1-D signal, got shape {x.shape}")
    n = x.shape[0]
    order = np.lexsort((np.arange(n), x))
    uf = _UnionFind(n)
    active = np.zeros(n, dtype=bool)
    # per-root birth key (value, index) of the component's minimum
    birth: dict[int, tuple[float, int]] = {}
    births, deaths = [], []

    for idx in order:
        idx = int(idx)
        active[idx] = True
        birth[idx] = (x[idx], idx)
        for nb in (idx - 1, idx + 1):
            if 0 <= nb < n and active[nb]:
                ra = uf.find(idx)
                rb = uf.find(nb)
                if ra == rb:
                    continue
                elder, younger = (ra, rb) if birth[ra] <= birth[rb] else (rb, ra)
                y_birth = birth[younger][0]
                if x[idx] > y_birth:  # zero-persistence merges are dropped
                    births.append(y_birth)
                    deaths.append(x[idx])
                uf.parent[younger] = elder
                del birth[younger]

    births.append(float(x.min()))
    deaths.append(float(x.max()))
    essential = np.zeros(len(births), dtype=bool)
    essential[-1] = True
    return PersistenceDiagram(np.array(births), np.array(deaths), essential)


def persistence_entropy(dgm: PersistenceDiagram) -> float:
    """Shannon entropy of the persistence distribution; 0 when total is 0."""
    pers = dgm.persistences()
    total = pers.sum()
    if dgm.n_pairs == 0 or total == 0.0:
        return 0.0
    p = pers / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def betti_curve(dgm: PersistenceDiagram, grid: np.ndarray) -> np.ndarray:
    """Number of pairs alive at each grid value, alive meaning b <= x < d."""
    grid = np.asarray(grid, dtype=float)
    alive = (dgm.births[None, :] <= grid[:, None]) & (grid[:, None] < dgm.deaths[None, :])
    return alive.sum(axis=1).astype(float)


# elements per block of tent values, so evaluating long windows keeps memory flat
_CHUNK_ELEMENTS = 1 << 20


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


def tda_embed(values: np.ndarray, grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Per-channel persistence + HVG feature vector of length 9 + grid_size + 7
    for a (tau, C) window."""
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise ConfigError(f"grid_size must be between 2 and {MAX_GRID_SIZE}, got {grid_size}")
    parts = []
    for c in range(values.shape[1]):
        x = values[:, c]
        dgm = sublevel_persistence(x)
        pers = dgm.persistences()
        scalars_front = np.array([
            persistence_entropy(dgm),
            float(pers.sum()),
            float(pers.max()) if dgm.n_pairs else 0.0,
            float(dgm.n_pairs),
        ])
        grid = np.linspace(float(x.min()), float(x.max()), grid_size)
        betti = betti_curve(dgm, grid)
        l1, l2 = landscape_norms(dgm, 1)
        # against the empty diagram every point is matched to the diagonal
        half = pers / 2.0
        scalars_back = np.array([
            l1,
            l2,
            float(half.sum()),
            float(np.sum(half ** 2) ** 0.5),
            float(half.max()),
        ])
        hvg = graph_features(hvg_build(x))
        parts.append(np.concatenate([scalars_front, betti, scalars_back, hvg]))
    return np.concatenate(parts)
