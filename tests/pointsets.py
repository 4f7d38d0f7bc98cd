"""Point sets for the neighbour-search tests: exact ties, duplicates, extremes.

The nearest-neighbour kernel must reproduce a per-query loop bit for bit, so
the data here is chosen to stress what an approximate prefilter gets wrong:
many exactly tied distances, duplicate rows, large offsets that cancel in
|q|^2 + |t|^2 - 2 q.t, tiny scales, widths on both sides of numpy's pairwise
summation blocks, and values whose squares overflow.
"""

import numpy as np
from hypothesis import strategies as st

STYLES = ("gauss", "rounded", "grid", "duplicates", "translated", "scaled",
          "huge")


def styled_rows(style, n, width, rng):
    if style == "grid":
        return rng.integers(-2, 3, size=(n, width)).astype(float)
    if style == "duplicates":
        pool = np.round(rng.normal(size=(max(1, n // 3), width)), 1)
        return pool[rng.integers(0, pool.shape[0], size=n)]
    X = rng.normal(size=(n, width))
    if style == "rounded":
        return np.round(X, 1)
    if style == "translated":
        return X + 1e6
    if style == "scaled":
        return X * 1e-6
    if style == "huge":
        return X * 1e152   # past the estimate's overflow guard, still finite
    return X


@st.composite
def point_sets(draw, min_rows=1, max_rows=60, max_queries=20, max_width=130):
    """(train, queries): queries share the style and include copies of train rows."""
    n = draw(st.integers(min_rows, max_rows))
    width = draw(st.one_of(st.integers(1, 10), st.integers(1, max_width)))
    style = draw(st.sampled_from(STYLES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = styled_rows(style, n + max_queries, width, rng)
    train = rows[:n]
    queries = rows[n:n + draw(st.integers(0, max_queries))].copy()
    for r in range(0, queries.shape[0], 3):
        queries[r] = train[rng.integers(0, n)]   # exact hits, distance 0
    return train, queries
