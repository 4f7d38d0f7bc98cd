import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tda_reference import (betti_curve, persistence_entropy, tda_embed_reference,
                           union_find_persistence)
from tsembed import embed_tda
from tsembed.embed_graph import graph_features, hvg_build
from tsembed.embed_tda import (DEFAULT_GRID_SIZE, PersistenceDiagram, bottleneck,
                               landscape_norm, landscape_norms, sublevel_persistence,
                               sublevel_persistence_rows, tda_embed, wasserstein)
from tsembed.errors import CapacityError, ConfigError, DataError, ShapeError
from tsembed.rng import Xoshiro256StarStar


def diagram(pairs, essential_last=False):
    pairs = list(pairs)
    b = np.array([p[0] for p in pairs], dtype=float)
    d = np.array([p[1] for p in pairs], dtype=float)
    ess = np.zeros(len(pairs), dtype=bool)
    if essential_last and len(pairs):
        ess[-1] = True
    return PersistenceDiagram(b, d, ess)


def finite_pairs(dgm):
    return sorted((float(b), float(d))
                  for b, d, e in zip(dgm.births, dgm.deaths, dgm.essential)
                  if not e)


def random_signals(count, seed):
    rng = Xoshiro256StarStar(seed)
    out = []
    for _ in range(count):
        n = 3 + rng.randbelow(38)
        x = np.array(rng.gauss_vector(n))
        if rng.random() < 0.3:
            # duplicate values exercise the zero-persistence and tie paths
            x = np.round(x)
        out.append(x)
    return out


def sublevel_component_count(x, t):
    mask = x <= t
    return int(np.sum(mask[1:] & ~mask[:-1]) + mask[0])


# ------------------------------------------------------------ diagrams

def test_persistence_worked_example():
    dgm = sublevel_persistence(np.array([3.0, 1.0, 2.0, 0.0]))
    assert finite_pairs(dgm) == [(1.0, 2.0)]
    assert bool(dgm.essential[-1])
    assert dgm.births[-1] == 0.0 and dgm.deaths[-1] == 3.0


def test_persistence_constant_signal():
    dgm = sublevel_persistence(np.full(5, 2.5))
    assert dgm.n_pairs == 1
    assert bool(dgm.essential[0])
    assert dgm.births[0] == 2.5 and dgm.deaths[0] == 2.5


def test_persistence_monotone_signal():
    dgm = sublevel_persistence(np.array([1.0, 2.0, 3.0, 4.0]))
    assert dgm.n_pairs == 1
    assert (dgm.births[0], dgm.deaths[0]) == (1.0, 4.0)


def test_persistence_two_valleys():
    dgm = sublevel_persistence(np.array([2.0, 0.0, 1.0, 0.0, 2.0]))
    # the later-born valley dies at the saddle
    assert finite_pairs(dgm) == [(0.0, 1.0)]
    assert (dgm.births[-1], dgm.deaths[-1]) == (0.0, 2.0)


def test_persistence_tie_keeps_earlier_index():
    # equal minima: the younger (higher index) component dies
    dgm = sublevel_persistence(np.array([0.0, 2.0, 0.0]))
    assert finite_pairs(dgm) == [(0.0, 2.0)]
    assert (dgm.births[-1], dgm.deaths[-1]) == (0.0, 2.0)


def test_persistence_drops_zero_persistence_pairs():
    dgm = sublevel_persistence(np.array([0.0, 0.0, 1.0, 0.0]))
    assert finite_pairs(dgm) == [(0.0, 1.0)]
    assert np.all(dgm.persistences()[~dgm.essential] > 0)


def test_persistence_component_count_identity():
    # at every threshold, alive pairs must equal sublevel components
    for x in random_signals(50, seed=200):
        dgm = sublevel_persistence(x)
        assert int(dgm.essential.sum()) == 1
        assert bool(dgm.essential[-1])
        assert dgm.births[-1] == x.min() and dgm.deaths[-1] == x.max()
        levels = np.unique(x)
        probes = list(levels) + list((levels[:-1] + levels[1:]) / 2)
        for t in probes:
            fin = ~dgm.essential
            alive = int(np.sum((dgm.births[fin] <= t) & (t < dgm.deaths[fin])))
            alive += int(np.sum(dgm.births[dgm.essential] <= t))
            assert alive == sublevel_component_count(x, t), (x, t)


def test_persistence_input_validation():
    with pytest.raises(ShapeError):
        sublevel_persistence(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        sublevel_persistence(np.array([]))
    with pytest.raises(DataError):
        diagram([(1.0, 0.5)])


# ------------------------------------------------------------ entropy

def test_entropy_two_pair_closed_form():
    dgm = diagram([(0.0, 1.0), (0.0, 2.0)])
    expected = math.log(3) - (2 / 3) * math.log(2)
    assert persistence_entropy(dgm) == pytest.approx(expected, abs=1e-12)


def test_entropy_three_one_closed_form():
    dgm = diagram([(0.0, 3.0), (2.0, 3.0)])
    expected = 2 * math.log(2) - 0.75 * math.log(3)
    assert persistence_entropy(dgm) == pytest.approx(expected, abs=1e-12)


def test_entropy_uniform_is_log_count():
    dgm = diagram([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0)])
    assert persistence_entropy(dgm) == pytest.approx(math.log(4))


def test_entropy_degenerate_cases():
    assert persistence_entropy(PersistenceDiagram.empty()) == 0.0
    assert persistence_entropy(diagram([(1.0, 1.0), (2.0, 2.0)])) == 0.0


# ------------------------------------------------------------ betti

def test_betti_curve_example():
    dgm = diagram([(0.0, 2.0), (1.0, 3.0)])
    np.testing.assert_array_equal(
        betti_curve(dgm, np.array([0.5, 1.5, 2.5])), [1.0, 2.0, 1.0])


def test_betti_curve_half_open():
    dgm = diagram([(0.0, 2.0)])
    np.testing.assert_array_equal(betti_curve(dgm, np.array([0.0, 2.0])), [1.0, 0.0])


def test_betti_curve_empty_diagram():
    np.testing.assert_array_equal(
        betti_curve(PersistenceDiagram.empty(), np.array([0.0, 1.0])), [0.0, 0.0])


# ------------------------------------------------------------ landscapes

def test_landscape_single_tent():
    dgm = diagram([(0.0, 2.0)])
    assert landscape_norm(dgm, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert landscape_norm(dgm, 1, 2) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
    assert landscape_norm(dgm, 2, 1) == 0.0


def test_landscape_disjoint_tents():
    dgm = diagram([(0.0, 2.0), (4.0, 6.0)])
    assert landscape_norm(dgm, 1, 1) == pytest.approx(2.0, abs=1e-12)
    assert landscape_norm(dgm, 2, 1) == 0.0


def test_landscape_nested_tents():
    dgm = diagram([(0.0, 4.0), (1.0, 3.0)])
    assert landscape_norm(dgm, 1, 1) == pytest.approx(4.0, abs=1e-12)
    assert landscape_norm(dgm, 2, 1) == pytest.approx(1.0, abs=1e-12)


def test_landscape_crossing_tents():
    # rising edge of one tent crosses the falling edge of the other
    dgm = diagram([(0.0, 2.0), (1.0, 3.0)])
    assert landscape_norm(dgm, 1, 1) == pytest.approx(1.75, abs=1e-12)
    assert landscape_norm(dgm, 2, 1) == pytest.approx(0.25, abs=1e-12)
    assert landscape_norm(dgm, 1, 2) == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_landscape_levels_sum_to_total_area():
    # sum over k of the L1 norms equals the total tent area
    rng = Xoshiro256StarStar(201)
    for _ in range(10):
        pairs = []
        for _ in range(1 + rng.randbelow(4)):
            b = rng.random() * 4
            pairs.append((b, b + 0.1 + rng.random() * 3))
        dgm = diagram(pairs)
        total = sum(landscape_norm(dgm, k, 1) for k in range(1, len(pairs) + 1))
        area = sum((d - b) ** 2 / 4 for b, d in pairs)
        assert total == pytest.approx(area, rel=1e-9)


def test_landscape_zero_persistence_ignored():
    dgm = diagram([(1.0, 1.0), (0.0, 2.0)])
    assert landscape_norm(dgm, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert landscape_norm(dgm, 2, 1) == 0.0


def landscape_norm_reference(dgm, k, p):
    """Scalar oracle: Simpson's rule between sorted candidates, one lambda_k
    evaluation per point, accumulated in a Python loop."""
    mask = dgm.persistences() > 0
    if int(mask.sum()) < k:
        return 0.0
    pairs = np.stack([dgm.births[mask], dgm.deaths[mask]], axis=1)

    candidates = set()
    for b, d in pairs:
        candidates.update((b, (b + d) / 2.0, d))
    for i in range(pairs.shape[0]):
        for j in range(pairs.shape[0]):
            if i != j:
                candidates.add((pairs[i, 0] + pairs[j, 1]) / 2.0)
    lo = pairs[:, 0].min()
    hi = pairs[:, 1].max()
    xs = np.array(sorted(c for c in candidates if lo <= c <= hi))

    def lam(x):
        vals = np.maximum(0.0, np.minimum(x - pairs[:, 0], pairs[:, 1] - x))
        if vals.shape[0] < k:
            return 0.0
        return float(np.partition(vals, -k)[-k])

    total = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        h = x1 - x0
        if h == 0.0:
            continue
        f0, fm, f1 = lam(x0), lam((x0 + x1) / 2.0), lam(x1)
        if p == 1:
            total += h * (f0 + 4.0 * fm + f1) / 6.0
        else:
            total += h * (f0 * f0 + 4.0 * fm * fm + f1 * f1) / 6.0
    return total if p == 1 else float(np.sqrt(total))


@settings(max_examples=40, deadline=None)
@given(tau=st.sampled_from([4, 16, 64, 256]), seed=st.integers(0, 2**32 - 1),
       decimals=st.sampled_from([None, 0, 1]), k=st.integers(1, 3),
       p=st.sampled_from([1, 2]))
def test_landscape_matches_reference_on_signals(tau, seed, decimals, k, p):
    # rounding the signal makes tied births, deaths and candidate points
    x = np.random.default_rng(seed).normal(size=tau)
    if decimals is not None:
        x = np.round(x, decimals)
    dgm = sublevel_persistence(x)
    assert landscape_norm(dgm, k, p) == landscape_norm_reference(dgm, k, p)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 6)),
                min_size=1, max_size=12),
       st.integers(1, 3))
def test_landscape_norms_match_reference_on_tied_diagrams(pairs, k):
    # integer grids give nested, identical and edge-sharing tents
    dgm = diagram([(b / 2.0, (b + w) / 2.0) for b, w in pairs])
    l1, l2 = landscape_norms(dgm, k)
    assert l1 == landscape_norm_reference(dgm, k, 1)
    assert l2 == landscape_norm_reference(dgm, k, 2)


def test_landscape_parameter_validation():
    dgm = diagram([(0.0, 2.0)])
    with pytest.raises(ConfigError):
        landscape_norm(dgm, 0, 1)
    with pytest.raises(ConfigError):
        landscape_norm(dgm, 1, 3)


# ------------------------------------------------------------ distances

def oracle_match_cost(A, B, p):
    """Exhaustive matching over all point-to-point / point-to-diagonal choices.

    p=None gives the bottleneck (min over matchings of the max cost).
    """
    n, m = len(A), len(B)
    targets = list(range(m)) + [-1] * n
    best = None
    for perm in set(itertools.permutations(targets, n)):
        costs = []
        for i, t in enumerate(perm):
            if t == -1:
                costs.append((A[i][1] - A[i][0]) / 2.0)
            else:
                costs.append(max(abs(A[i][0] - B[t][0]), abs(A[i][1] - B[t][1])))
        for j in range(m):
            if j not in perm:
                costs.append((B[j][1] - B[j][0]) / 2.0)
        if p is None:
            total = max(costs) if costs else 0.0
        else:
            total = sum(c ** p for c in costs) ** (1.0 / p)
        if best is None or total < best:
            best = total
    return 0.0 if best is None else best


def random_diagram(rng, max_pairs=4):
    pairs = []
    for _ in range(rng.randbelow(max_pairs + 1)):
        b = rng.random() * 4 - 2
        pairs.append((b, b + rng.random() * 3))
    return diagram(pairs), pairs


def test_wasserstein_to_empty():
    dgm = diagram([(0.0, 2.0)])
    empty = PersistenceDiagram.empty()
    assert wasserstein(dgm, empty, 1) == pytest.approx(1.0)
    assert wasserstein(dgm, empty, 2) == pytest.approx(1.0)
    assert bottleneck(dgm, empty) == pytest.approx(1.0)
    assert wasserstein(empty, empty, 1) == 0.0
    assert bottleneck(empty, empty) == 0.0


def test_distance_prefers_cross_match():
    d1 = diagram([(0.0, 4.0)])
    d2 = diagram([(1.0, 3.0)])
    # matching the points costs 1; two diagonal projections would cost 3
    assert wasserstein(d1, d2, 1) == pytest.approx(1.0)
    assert wasserstein(d1, d2, 2) == pytest.approx(1.0)
    assert bottleneck(d1, d2) == pytest.approx(1.0)


def test_distance_prefers_diagonal_when_cheaper():
    d1 = diagram([(0.0, 0.5)])
    d2 = diagram([(10.0, 10.5)])
    assert wasserstein(d1, d2, 1) == pytest.approx(0.5)
    assert bottleneck(d1, d2) == pytest.approx(0.25)


@pytest.mark.parametrize("p", [1, 2, None])
def test_distances_match_exhaustive_oracle(p):
    rng = Xoshiro256StarStar(202 + (p or 0))
    for _ in range(12):
        dA, A = random_diagram(rng)
        dB, B = random_diagram(rng)
        expected = oracle_match_cost(A, B, p)
        got = bottleneck(dA, dB) if p is None else wasserstein(dA, dB, p)
        assert got == pytest.approx(expected, abs=1e-9), (A, B, p)


def test_distance_metric_properties():
    rng = Xoshiro256StarStar(203)
    for _ in range(6):
        dA, _ = random_diagram(rng, 3)
        dB, _ = random_diagram(rng, 3)
        dC, _ = random_diagram(rng, 3)
        for dist in (lambda u, v: wasserstein(u, v, 1),
                     lambda u, v: wasserstein(u, v, 2),
                     bottleneck):
            assert dist(dA, dA) == pytest.approx(0.0, abs=1e-12)
            assert dist(dA, dB) == pytest.approx(dist(dB, dA), abs=1e-9)
            assert dist(dA, dC) <= dist(dA, dB) + dist(dB, dC) + 1e-9


def test_distance_shift_and_scale_equivariance():
    rng = Xoshiro256StarStar(204)
    dA, A = random_diagram(rng, 3)
    dB, B = random_diagram(rng, 3)
    shift = lambda P, c: diagram([(b + c, d + c) for b, d in P])
    scale = lambda P, a: diagram([(a * b, a * d) for b, d in P])
    for dist in (lambda u, v: wasserstein(u, v, 1),
                 lambda u, v: wasserstein(u, v, 2),
                 bottleneck):
        base = dist(dA, dB)
        assert dist(shift(A, 5.3), shift(B, 5.3)) == pytest.approx(base, abs=1e-9)
        assert dist(scale(A, 2.0), scale(B, 2.0)) == pytest.approx(2 * base, abs=1e-9)


def test_distance_capacity_cap():
    big = diagram([(float(i), float(i + 1)) for i in range(33)])
    with pytest.raises(CapacityError):
        wasserstein(big, big, 1)
    with pytest.raises(CapacityError):
        bottleneck(big, big)
    with pytest.raises(ConfigError):
        wasserstein(big, PersistenceDiagram.empty(), 0)


# ------------------------------------------------------------ embedding

def test_tda_embed_dimension(make_window):
    w = make_window(np.random.default_rng(2).normal(size=(24, 2)))
    v = tda_embed(w)
    assert v.shape == (2 * (9 + DEFAULT_GRID_SIZE + 7),)
    assert tda_embed(w[:, :1], grid_size=4).shape == (20,)


def test_tda_embed_slot_layout(make_window):
    x = np.array([3.0, 1.0, 2.0, 0.0, 4.0, 1.5, 2.5, 0.5])
    w = make_window(x)
    v = tda_embed(w)
    dgm = sublevel_persistence(x)
    pers = dgm.persistences()
    assert v[0] == pytest.approx(persistence_entropy(dgm))
    assert v[1] == pytest.approx(float(pers.sum()))
    assert v[2] == pytest.approx(float(pers.max()))
    assert v[3] == float(dgm.n_pairs)
    grid = np.linspace(x.min(), x.max(), DEFAULT_GRID_SIZE)
    np.testing.assert_allclose(v[4:12], betti_curve(dgm, grid))
    empty = PersistenceDiagram.empty()
    # the first landscape is the essential tent, of half-width h
    h = (x.max() - x.min()) / 2.0
    assert v[12] == h * h
    assert v[13] == math.sqrt(2.0 * h * h * h / 3.0)
    assert v[12] == pytest.approx(landscape_norm_reference(dgm, 1, 1), rel=1e-12, abs=0)
    assert v[13] == pytest.approx(landscape_norm_reference(dgm, 1, 2), rel=1e-12, abs=0)
    assert v[14] == wasserstein(dgm, empty, 1)
    assert v[15] == wasserstein(dgm, empty, 2)
    assert v[16] == bottleneck(dgm, empty)
    assert v[17:24].tobytes() == graph_features(hvg_build(x)).tobytes()


def test_tda_embed_distances_equal_matcher(make_window):
    empty = PersistenceDiagram.empty()
    for x in random_signals(40, seed=205):
        v = tda_embed(make_window(x))
        dgm = sublevel_persistence(x)
        assert v[14] == wasserstein(dgm, empty, 1)
        assert v[15] == wasserstein(dgm, empty, 2)
        assert v[16] == bottleneck(dgm, empty)


def test_tda_embed_long_noisy_window(make_window):
    # hundreds of diagram points, far past the matcher's cap of 64
    x = np.random.default_rng(5).normal(size=1024)
    v = tda_embed(make_window(x))
    assert v.shape == (9 + DEFAULT_GRID_SIZE + 7,) and np.all(np.isfinite(v))
    dgm = sublevel_persistence(x)
    assert dgm.n_pairs > 64
    half = dgm.persistences() / 2.0
    assert v[14] == float(half.sum())
    assert v[15] == float(np.sum(half ** 2) ** 0.5)
    assert v[16] == float(half.max())


def test_tda_embed_channel_major(make_window):
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=16), rng.normal(size=16)
    w = make_window(np.stack([a, b], axis=1))
    v = tda_embed(w)
    va = tda_embed(make_window(a))
    vb = tda_embed(make_window(b))
    np.testing.assert_allclose(v[:24], va)
    np.testing.assert_allclose(v[24:], vb)


def test_tda_embed_grid_size_validation(make_window):
    w = make_window(np.arange(8.0))
    with pytest.raises(ConfigError):
        tda_embed(w, grid_size=1)


def test_tda_embed_validation():
    with pytest.raises(ShapeError):
        tda_embed(np.zeros(8))
    with pytest.raises(ShapeError):
        tda_embed(np.zeros((3, 1, 2)))
    with pytest.raises(DataError):
        tda_embed(np.array([[0.0], [np.inf], [1.0]]))
    assert tda_embed(np.zeros((0, 5, 2)), grid_size=4).shape == (0, 40)


# ------------------------------------------------------------ batch

@st.composite
def tda_batches(draw):
    """An (n, tau, C) stack of one kind of tie-heavy or smooth signal, maybe
    with a constant channel, and a grid size."""
    n, tau, C = draw(st.integers(1, 4)), draw(st.integers(1, 300)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gauss", "half", "two", "three", "walk", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n, tau, C)
    if kind == "gauss":
        v = rng.standard_normal(shape)
    elif kind == "half":
        v = np.round(2.0 * rng.standard_normal(shape)) / 2.0
    elif kind in ("two", "three"):
        v = rng.integers(0, 2 if kind == "two" else 3, shape).astype(float)
    elif kind == "walk":
        v = np.cumsum(rng.standard_normal(shape), axis=1)
    else:
        v = np.broadcast_to(rng.standard_normal((n, 1, C)), shape).copy()
    if draw(st.booleans()):
        v[rng.integers(n), :, rng.integers(C)] = rng.standard_normal()
    return v, draw(st.sampled_from([2, 3, DEFAULT_GRID_SIZE, 13]))


@settings(max_examples=150, deadline=None)
@given(case=tda_batches(), cut=st.integers(0, 4))
def test_tda_embed_matches_per_window_reference(case, cut):
    values, grid_size = case
    if values.shape[1] < 2:  # the HVG needs two samples
        with pytest.raises(ShapeError):
            tda_embed(values, grid_size)
        with pytest.raises(ShapeError):
            tda_embed_reference(values[0], grid_size)
        return
    got = tda_embed(values, grid_size)
    # the two closed-form landscape norms per channel; every other column is exact
    norms = np.zeros(16 + grid_size, dtype=bool)
    norms[[4 + grid_size, 5 + grid_size]] = True
    norms = np.tile(norms, values.shape[2])
    for window, row in zip(values, got):
        want = tda_embed_reference(window, grid_size)
        assert row[~norms].tobytes() == want[~norms].tobytes()
        np.testing.assert_allclose(row[norms], want[norms], rtol=1e-12, atol=0)
    assert tda_embed(values[cut:], grid_size).tobytes() == got[cut:].tobytes()


@settings(max_examples=150, deadline=None)
@given(case=tda_batches())
def test_persistence_rows_match_union_find(case):
    values, _ = case
    rows = np.swapaxes(values, 1, 2).reshape(-1, values.shape[1])
    births, deaths, counts = sublevel_persistence_rows(rows)
    assert births.shape == deaths.shape == (counts.sum(),)
    ends = np.cumsum(counts)[:-1]
    for x, b, d in zip(rows, np.split(births, ends), np.split(deaths, ends)):
        want = union_find_persistence(x)
        assert b.tobytes() == want.births.tobytes()
        assert d.tobytes() == want.deaths.tobytes()
        got = sublevel_persistence(x)
        for name in ("births", "deaths", "essential"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_persistence_rows_edge_cases():
    births, deaths, counts = sublevel_persistence_rows(np.zeros((0, 5)))
    assert births.shape == deaths.shape == counts.shape == (0,)
    births, deaths, counts = sublevel_persistence_rows(np.array([[3.0], [-1.0]]))
    assert births.tolist() == deaths.tolist() == [3.0, -1.0] and counts.tolist() == [1, 1]
    with pytest.raises(ShapeError):
        sublevel_persistence_rows(np.zeros(4))
    with pytest.raises(ShapeError):
        sublevel_persistence_rows(np.zeros((2, 0)))


def test_row_sums_equal_one_dimensional_sums():
    # numpy sums runs of 8 or more in eight lanes, so the order depends on length
    rng = np.random.default_rng(8)
    counts = np.concatenate([np.arange(301), rng.integers(0, 301, 40)])
    rng.shuffle(counts)
    values = rng.standard_normal((2, counts.sum())) * 10.0 ** rng.integers(-8, 9, counts.sum())
    got = embed_tda._row_sums(values, counts)
    runs = np.split(values, np.cumsum(counts)[:-1], axis=1)
    for i, run in enumerate(runs):
        for a in range(2):
            assert got[a, i].tobytes() == np.sum(run[a].copy()).tobytes(), (counts[i], a)


def test_grids_equal_scalar_linspace():
    # a zero-step row switches array linspace to another formula for all rows
    lo = np.array([0.0, 1.0, -2.0, 3.0, 0.1])
    hi = np.array([1.0, 1.0, 5.0, 3.0, 0.7])
    for grid_size in (2, 7, 8, 100):
        grids = embed_tda._grids(lo, hi, grid_size)
        for a, b, grid in zip(lo, hi, grids):
            assert grid.tobytes() == np.linspace(a, b, grid_size).tobytes()


def test_tda_embed_stack_equals_windows():
    rng = np.random.default_rng(9)
    values = rng.standard_normal((5, 40, 2))
    values[2, :, 1] = 0.25
    got = tda_embed(values)
    assert got.shape == (5, 2 * (16 + DEFAULT_GRID_SIZE))
    for window, row in zip(values, got):
        assert row.tobytes() == tda_embed(window).tobytes()


def test_tda_embed_blocks(monkeypatch):
    # block caps far below one row's tables and Betti comparisons
    values = np.random.default_rng(10).standard_normal((3, 64, 2))
    values[1, :, 0] = np.round(values[1, :, 0])
    want = tda_embed(values, grid_size=50)
    for cap in (1, 7, 300):
        monkeypatch.setattr(embed_tda, "_CHUNK_ELEMENTS", cap)
        assert tda_embed(values, grid_size=50).tobytes() == want.tobytes()
