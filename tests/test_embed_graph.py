from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference
from tsembed import embed_graph
from tsembed.embed_graph import (VisibilityGraph, graph_embed, graph_features,
                                 graph_features_rows, hvg_build, nvg_build)
from tsembed.errors import DataError, ShapeError
from tsembed.rng import Xoshiro256StarStar


# ------------------------------------------------------------ loop oracles
# The per-left-endpoint loops and per-node sets that the array code in
# embed_graph must reproduce bit for bit.

def edges(g):
    """The edges of g as (i, j, weight) tuples, in array order."""
    return tuple(zip(g.i.tolist(), g.j.tolist(), g.w.tolist()))


def graph_from_edges(n, edge_list):
    i = np.array([e[0] for e in edge_list], dtype=np.int64)
    j = np.array([e[1] for e in edge_list], dtype=np.int64)
    w = np.array([e[2] for e in edge_list], dtype=float)
    return VisibilityGraph(n, i, j, w)


def adjacency_sets(g):
    adj = [set() for _ in range(g.n_nodes)]
    for i, j, _ in edges(g):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def degree_array_reference(g):
    deg = np.zeros(g.n_nodes, dtype=np.int64)
    for i, j, _ in edges(g):
        deg[i] += 1
        deg[j] += 1
    return deg


def nvg_build_reference(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    edge_list = []
    for i in range(n - 1):
        # slope from i to every later sample; j is visible iff its slope
        # strictly exceeds every interior slope, i.e. the running max so far
        gaps = np.arange(1, n - i, dtype=float)
        slopes = (x[i + 1:] - x[i]) / gaps
        edge_list.append((i, i + 1, abs(slopes[0])))
        if slopes.shape[0] > 1:
            running = np.maximum.accumulate(slopes[:-1])
            visible = np.nonzero(slopes[1:] > running)[0]
            for m in visible:
                j = i + 2 + int(m)
                edge_list.append((i, j, abs(slopes[m + 1])))
    return graph_from_edges(n, edge_list)


def hvg_build_reference(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    edge_list = []
    for i in range(n - 1):
        edge_list.append((i, i + 1, 1.0))
        if i + 2 < n:
            # interior running max; j > i+1 is visible iff both endpoints
            # strictly exceed every sample strictly between them
            interior_max = np.maximum.accumulate(x[i + 1:n - 1])
            heights = x[i + 2:]
            visible = np.nonzero((interior_max < x[i]) & (interior_max < heights))[0]
            for m in visible:
                edge_list.append((i, i + 2 + int(m), 1.0))
    return graph_from_edges(n, edge_list)


def graph_features_reference(g):
    n = g.n_nodes
    m = len(edges(g))
    deg = degree_array_reference(g)

    density = 2.0 * m / (n * (n - 1)) if n > 1 else 0.0
    mean_deg = deg.mean() if n else 0.0
    std_deg = deg.std() if n else 0.0
    max_deg = float(deg.max()) if n else 0.0

    adj = adjacency_sets(g)
    closed = 0
    for i, j, _ in edges(g):
        closed += len(adj[i] & adj[j])  # each triangle counted once per edge
    triads = float(np.sum(deg * (deg - 1) / 2))
    transitivity = closed / triads if triads > 0 else 0.0

    if m == 0:
        assortativity = 0.0
        mean_weight = 0.0
    else:
        ends_a = np.array([deg[i] for i, _, _ in edges(g)] +
                          [deg[j] for _, j, _ in edges(g)], dtype=float)
        ends_b = np.array([deg[j] for _, j, _ in edges(g)] +
                          [deg[i] for i, _, _ in edges(g)], dtype=float)
        var_a = np.var(ends_a)
        var_b = np.var(ends_b)
        if var_a == 0.0 or var_b == 0.0:
            assortativity = 0.0
        else:
            cov = np.mean((ends_a - ends_a.mean()) * (ends_b - ends_b.mean()))
            assortativity = cov / np.sqrt(var_a * var_b)
        mean_weight = float(np.mean([w for _, _, w in edges(g)]))

    return np.array([density, mean_deg, std_deg, max_deg,
                     transitivity, assortativity, mean_weight])


def brute_nvg_edges(x):
    """O(tau^3) reference: chord criterion checked point by point."""
    n = len(x)
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            ok = True
            for k in range(i + 1, j):
                line = x[i] + (x[j] - x[i]) * (k - i) / (j - i)
                if x[k] >= line:
                    ok = False
                    break
            if ok:
                pairs.add((i, j))
    return pairs


def brute_hvg_edges(x):
    n = len(x)
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if all(x[k] < min(x[i], x[j]) for k in range(i + 1, j)):
                pairs.add((i, j))
    return pairs


def edge_set(g):
    return {(i, j) for i, j, _ in edges(g)}


def random_signals(count, seed=100):
    rng = Xoshiro256StarStar(seed)
    out = []
    for _ in range(count):
        n = 4 + rng.randbelow(36)
        out.append(np.array(rng.gauss_vector(n)))
    return out


# ------------------------------------------------------------ construction

def test_nvg_three_point_valley_is_triangle():
    g = nvg_build(np.array([3.0, 1.0, 2.0]))
    assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}


def test_hvg_three_point_valley_is_triangle():
    g = hvg_build(np.array([3.0, 1.0, 2.0]))
    assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}


def test_linear_signal_gives_path_graph():
    x = np.arange(8.0)
    for build in (nvg_build, hvg_build):
        g = build(x)
        assert edge_set(g) == {(i, i + 1) for i in range(7)}


def test_constant_signal_gives_path_graph():
    x = np.full(6, 2.5)
    for build in (nvg_build, hvg_build):
        g = build(x)
        assert edge_set(g) == {(i, i + 1) for i in range(5)}


def test_convex_signal_nvg_is_complete():
    # strictly convex: every chord lies above the curve
    x = np.array([t * t for t in range(7)], dtype=float)
    g = nvg_build(x)
    assert len(edges(g)) == 7 * 6 // 2


def test_nvg_matches_bruteforce():
    for x in random_signals(40, seed=101):
        assert edge_set(nvg_build(x)) == brute_nvg_edges(x)


def test_hvg_matches_bruteforce():
    for x in random_signals(40, seed=102):
        assert edge_set(hvg_build(x)) == brute_hvg_edges(x)


def test_hvg_is_subgraph_of_nvg():
    for x in random_signals(25, seed=103):
        assert edge_set(hvg_build(x)) <= edge_set(nvg_build(x))


def test_adjacent_samples_always_linked():
    for x in random_signals(10, seed=104):
        for g in (nvg_build(x), hvg_build(x)):
            got = edge_set(g)
            assert all((i, i + 1) in got for i in range(len(x) - 1))


def test_nvg_edge_weights_are_absolute_slopes():
    x = np.array([0.0, 3.0, 1.0])
    g = nvg_build(x)
    w = {(i, j): wt for i, j, wt in edges(g)}
    assert w[(0, 1)] == pytest.approx(3.0)
    assert w[(1, 2)] == pytest.approx(2.0)


def test_hvg_edge_weights_are_one():
    for x in random_signals(5, seed=105):
        assert all(wt == 1.0 for _, _, wt in edges(hvg_build(x)))


def test_degree_array_consistent_with_edges():
    for x in random_signals(10, seed=106):
        g = nvg_build(x)
        deg = np.zeros(g.n_nodes, dtype=int)
        for i, j, _ in edges(g):
            deg[i] += 1
            deg[j] += 1
        np.testing.assert_array_equal(deg, g.degree_array())
        adj = adjacency_sets(g)
        for i, j, _ in edges(g):
            assert j in adj[i] and i in adj[j]


def test_build_rejects_too_short():
    with pytest.raises(ShapeError):
        nvg_build(np.array([1.0]))
    with pytest.raises(ShapeError):
        hvg_build(np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite(bad):
    # visibility is undefined there, and a NaN has no place in the order
    # the pointers are built on
    x = np.array([1.0, bad, 2.0, 0.5, 3.0])
    for build in (nvg_build, hvg_build):
        with pytest.raises(DataError, match="finite"):
            build(x)


# ------------------------------------------------------------ array code against the loops

SIGNAL_STYLES = ("gauss", "rounded", "integer", "plateau", "constant", "increasing",
                 "decreasing", "concave", "convex", "sine")


def styled_signal(style, n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    if style == "gauss":
        return rng.normal(size=n)
    if style == "rounded":
        return np.round(rng.normal(size=n), 1)
    if style == "integer":
        return rng.integers(0, 4, size=n).astype(float)
    if style == "plateau":
        return np.repeat(rng.normal(size=n // 5 + 1), 5)[:n]
    if style == "constant":
        return np.full(n, 1.5)
    if style == "increasing":
        return 0.3 * t - 2.0
    if style == "decreasing":
        return -0.7 * t
    if style == "concave":
        return -(t - n / 2.0) ** 2
    if style == "convex":
        return (t - n / 3.0) ** 2
    return np.sin(t / 5.0) + 0.1 * rng.normal(size=n)


@st.composite
def signals(draw, max_n=1024):
    n = draw(st.one_of(st.integers(2, 40), st.integers(2, max_n)))
    style = draw(st.sampled_from(SIGNAL_STYLES))
    if style == "convex":
        n = min(n, 96)   # a complete graph; the set-based oracle is O(n^3)
    return styled_signal(style, n, draw(st.integers(0, 2**32 - 1)))


@contextmanager
def patched(**values):
    """Module constants of embed_graph set for the duration, e.g. a small
    _BLOCK_ELEMENTS that spreads rows, runs and triad counts over many
    blocks."""
    saved = {name: getattr(embed_graph, name) for name in values}
    for name, value in values.items():
        setattr(embed_graph, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(embed_graph, name, value)


def assert_same_as_reference(build, reference, x):
    got, ref = build(x), reference(x)
    assert got.n_nodes == ref.n_nodes
    for name in ("i", "j", "w"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert graph_features(got).tobytes() == graph_features_reference(ref).tobytes()


@settings(max_examples=150, deadline=None)
@given(signals())
def test_nvg_equals_reference(x):
    assert_same_as_reference(nvg_build, nvg_build_reference, x)


@settings(max_examples=150, deadline=None)
@given(signals())
def test_hvg_equals_reference(x):
    assert_same_as_reference(hvg_build, hvg_build_reference, x)


@settings(max_examples=150, deadline=None)
@given(signals(max_n=200), st.integers(1, 300))
def test_builders_equal_reference_across_blocks(x, cap):
    # a small cap spreads dense slopes and triad counts over many chunks
    with patched(_BLOCK_ELEMENTS=cap):
        assert_same_as_reference(nvg_build, nvg_build_reference, x)
        assert_same_as_reference(hvg_build, hvg_build_reference, x)


# a convex signal gives a complete graph, too slow for the oracle at n = 1024
@pytest.mark.parametrize("style, n", [
    (style, n) for style in SIGNAL_STYLES for n in (2, 3, 64, 257, 1024)
    if style != "convex" or n <= 257])
def test_builders_equal_reference_at_window_lengths(style, n):
    x = styled_signal(style, n, seed=n)
    assert_same_as_reference(nvg_build, nvg_build_reference, x)
    assert_same_as_reference(hvg_build, hvg_build_reference, x)


def assert_same_graph(got, ref):
    assert got.n_nodes == ref.n_nodes
    for name in ("i", "j", "w"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# styles without three (nearly) collinear samples, where the chord test of
# brute_nvg_edges cannot round differently from the slope test
NO_COLLINEAR_STYLES = ("gauss", "sine", "concave", "convex")


def assert_block_equals_references(x, styles=()):
    """Each graph of a block equals the per-row loop, the replaced per-signal
    builder and, on short rows, the brute-force edge set; a 1-D call equals
    its row of the block."""
    nvgs, hvgs = nvg_build(x), hvg_build(x)
    assert len(nvgs) == len(hvgs) == x.shape[0]
    for k, (row, nvg, hvg) in enumerate(zip(x, nvgs, hvgs)):
        assert_same_graph(nvg, nvg_build_reference(row))
        assert_same_graph(nvg, graph_reference.nvg_build_blocked(row))
        assert_same_graph(hvg, hvg_build_reference(row))
        assert_same_graph(hvg, graph_reference.hvg_build_stack(row))
        if row.shape[0] <= 24:
            assert edge_set(hvg) == brute_hvg_edges(row.tolist())
            if k < len(styles) and styles[k] in NO_COLLINEAR_STYLES:
                assert edge_set(nvg) == brute_nvg_edges(row.tolist())
        for g in (nvg, hvg):
            assert embed_graph._closed_triads(g) == graph_reference.closed_triads_boolean(g)
    assert_same_graph(nvg_build(x[0]), nvgs[0])
    assert_same_graph(hvg_build(x[0]), hvgs[0])


@st.composite
def blocks(draw, max_n=200):
    """Rows of one length in mixed styles, convex ramps included."""
    n = draw(st.one_of(st.integers(2, 24), st.integers(2, max_n)))
    styles = draw(st.lists(st.sampled_from(SIGNAL_STYLES), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.array([styled_signal(style, n, seed + k) for k, style in enumerate(styles)])
    return x, styles


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_block_builders_equal_references(block):
    assert_block_equals_references(*block)


@settings(max_examples=150, deadline=None)
@given(blocks(), st.integers(1, 300), st.integers(0, 3))
def test_block_builders_equal_references_under_small_bounds(block, cap, steps):
    # few chain steps send chains (and convex ramps) to the dense finish; a
    # small cap spreads runs, slopes and triads over many chunks
    with patched(_BLOCK_ELEMENTS=cap, _CHAIN_STEPS=steps):
        assert_block_equals_references(*block)


def test_convex_ramp_longer_than_chain_cap_takes_every_path():
    # no chain step; the default cap, whose chains end in the dense finish;
    # and a cap beyond the ramp, whose chains run to its end
    x = np.array([styled_signal("convex", 300, 0), styled_signal("gauss", 300, 1)])
    for steps in (0, embed_graph._CHAIN_STEPS, 300):
        with patched(_CHAIN_STEPS=steps):
            assert_block_equals_references(x, ("convex", "gauss"))
    assert len(edges(nvg_build(x[0]))) == 300 * 299 // 2


def test_block_builders_take_empty_blocks_and_reject_bad_ones():
    assert nvg_build(np.zeros((0, 5))) == [] and hvg_build(np.zeros((0, 5))) == []
    for build in (nvg_build, hvg_build):
        with pytest.raises(ShapeError):
            build(np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            build(np.zeros((2, 3, 4)))
        with pytest.raises(DataError, match="finite"):
            build(np.array([[1.0, 2.0], [np.nan, 0.0]]))


def test_block_graphs_are_views_of_one_edge_batch():
    noise = np.random.default_rng(3).normal(size=(4, 30))
    # a convex ramp next to noise rows, in the middle of its block
    ramp = np.insert(noise, 2, styled_signal("convex", 30, 0), axis=0)
    for x in (noise, ramp):
        for build in (nvg_build, hvg_build):
            graphs = build(x)
            for field in ("i", "j", "w"):
                base = getattr(graphs[0], field).base
                assert base is not None
                assert all(getattr(g, field).base is base for g in graphs)


def test_graph_features_rows_hands_over_row_blocks():
    x = np.random.default_rng(4).normal(size=(7, 40))
    seen = []

    def build(rows):
        seen.append(rows.shape)
        return nvg_build(rows)

    with patched(_BLOCK_ELEMENTS=100):
        got = graph_features_rows(x, build)
    assert seen == [(2, 40)] * 3 + [(1, 40)]
    for row, features in zip(x, got):
        assert features.tobytes() == graph_features(nvg_build(row)).tobytes()


def test_edges_view_is_tuples_in_array_order():
    x = np.array([3.0, 1.0, 2.0, 0.0])
    g = nvg_build(x)
    assert edges(g) == ((0, 1, 2.0), (0, 2, 0.5), (1, 2, 1.0), (2, 3, 2.0))
    assert [tuple(map(type, e)) for e in edges(g)] == [(int, int, float)] * 4
    assert edges(g) == edges(nvg_build_reference(x))


# ------------------------------------------------------------ features

def test_path_graph_features():
    n = 10
    f = graph_features(hvg_build(np.arange(float(n))))
    assert f.shape == (7,)
    density, mean_deg, _, max_deg, transitivity, _, mean_w = f
    assert density == pytest.approx(2.0 / n)
    assert mean_deg == pytest.approx(2.0 * (n - 1) / n)
    assert max_deg == 2.0
    assert transitivity == 0.0
    assert mean_w == 1.0


def test_triangle_features():
    f = graph_features(hvg_build(np.array([3.0, 1.0, 2.0])))
    density, mean_deg, std_deg, max_deg, transitivity, _, _ = f
    assert density == 1.0
    assert mean_deg == 2.0
    assert std_deg == 0.0
    assert transitivity == 1.0


def test_transitivity_matches_triangle_count():
    for x in random_signals(15, seed=107):
        g = nvg_build(x)
        adj = adjacency_sets(g)
        tri = 0
        for i in range(g.n_nodes):
            for j in adj[i]:
                if j <= i:
                    continue
                for k in adj[j]:
                    if k > j and k in adj[i]:
                        tri += 1
        deg = g.degree_array()
        triads = float(np.sum(deg * (deg - 1)) / 2)
        expected = 3.0 * tri / triads if triads > 0 else 0.0
        assert graph_features(g)[4] == pytest.approx(expected)


def test_assortativity_matches_pearson_oracle():
    for x in random_signals(15, seed=108):
        g = nvg_build(x)
        deg = g.degree_array()
        a, b = [], []
        for i, j, _ in edges(g):
            a.extend([deg[i], deg[j]])
            b.extend([deg[j], deg[i]])
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        va, vb = a.var(), b.var()
        if va <= 0 or vb <= 0:
            expected = 0.0
        else:
            expected = ((a - a.mean()) * (b - b.mean())).mean() / np.sqrt(va * vb)
        assert graph_features(g)[5] == pytest.approx(expected, abs=1e-12)


def test_features_invariant_under_positive_affine_hvg():
    for x in random_signals(10, seed=109):
        f1 = graph_features(hvg_build(x))
        f2 = graph_features(hvg_build(2.5 * x + 7.0))
        np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_nvg_structure_invariant_scaling_scales_weights():
    for x in random_signals(8, seed=110):
        g1 = nvg_build(x)
        g2 = nvg_build(3.0 * x + 1.0)
        assert edge_set(g1) == edge_set(g2)
        f1, f2 = graph_features(g1), graph_features(g2)
        np.testing.assert_allclose(f1[:6], f2[:6], atol=1e-12)
        assert f2[6] == pytest.approx(3.0 * f1[6])


# ------------------------------------------------------------ embedding

def test_graph_embed_dimension(make_window):
    w = make_window(np.random.default_rng(0).normal(size=(20, 3)))
    v = graph_embed(w)
    assert v.shape == (7 * 3,)
    assert graph_embed(np.zeros((0, 20, 3))).shape == (0, 7 * 3)


def test_graph_embed_channel_major(make_window):
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=20), rng.normal(size=20)
    w = make_window(np.stack([a, b], axis=1))
    v = graph_embed(w)
    assert v[:7].tobytes() == graph_features(nvg_build(a)).tobytes()
    assert v[7:].tobytes() == graph_features(nvg_build(b)).tobytes()


def test_graph_embed_stack_equals_windows():
    values = np.random.default_rng(2).normal(size=(4, 24, 2))
    values[1, :, 0] = np.round(values[1, :, 0])
    got = graph_embed(values)
    assert got.shape == (4, 7 * 2)
    for window, row in zip(values, got):
        assert row.tobytes() == graph_embed(window).tobytes()
