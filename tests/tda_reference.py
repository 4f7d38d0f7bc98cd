"""Per-window tda features, one channel at a time: the oracle of the batch
``tda_embed``.

Each channel goes through ``union_find_persistence``, the sweep that defines
the diagram (see the ``embed_tda`` docstring), then
entropy, total and largest persistence, pair count, a Betti curve on
``np.linspace`` of the channel's range, the exact Simpson norms of the first
landscape (``landscape_norms``), the closed-form distances to the empty
diagram and the HVG features, all with one 1-D numpy call per quantity.
"""

import numpy as np

from tsembed.embed_graph import graph_features, hvg_build
from tsembed.embed_tda import (DEFAULT_GRID_SIZE, PersistenceDiagram, check_grid_size,
                               landscape_norms)


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


def union_find_persistence(x: np.ndarray) -> PersistenceDiagram:
    """0-dimensional sublevel-set persistence of a 1-D signal by a union-find
    sweep over the samples in ascending (value, index) order."""
    x = np.asarray(x, dtype=float)
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


def tda_embed_reference(values: np.ndarray, grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Feature vector of length C * (16 + grid_size) for one (tau, C) window."""
    check_grid_size(grid_size)
    parts = []
    for c in range(values.shape[1]):
        x = values[:, c]
        dgm = union_find_persistence(x)
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
