"""Per-window tda features, one channel at a time: the oracle of the batch
``tda_embed``.

Each channel goes through the union-find ``sublevel_persistence``, then
entropy, total and largest persistence, pair count, a Betti curve on
``np.linspace`` of the channel's range, the exact Simpson norms of the first
landscape (``landscape_norms``), the closed-form distances to the empty
diagram and the HVG features, all with one 1-D numpy call per quantity.
"""

import numpy as np

from tsembed.embed_graph import graph_features, hvg_build
from tsembed.embed_tda import (DEFAULT_GRID_SIZE, MAX_GRID_SIZE, PersistenceDiagram,
                               landscape_norms, sublevel_persistence)
from tsembed.errors import ConfigError


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
