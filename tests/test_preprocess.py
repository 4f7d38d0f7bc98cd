import numpy as np
import pytest
from hypothesis import given, strategies as st

from batches import (assert_batch_is, fft_loop, fit_loop, flatten_loop, normalize_loop,
                     segment, segment_loop, window_batch)
from tsembed.data_io import SeriesRecord, TimeSeriesDataset
from tsembed.embed_spectral import fft_embed
from tsembed.errors import ConfigError, ShapeError
from tsembed.preprocess import (aggregate_label, apply_normalizer_all, concat_windows,
                                fit_normalizer, flatten_windows, segment_dataset)


def series(values, labels=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if labels is None:
        labels = np.zeros(values.shape[0], dtype=np.int64)
    return values, np.asarray(labels, dtype=np.int64)


# ------------------------------------------------------------ segmentation

def test_segment_counts_and_starts():
    values, labels = series(np.arange(10))
    windows = segment(values, labels, "s", tau=4, omega=2)
    # starts 0, 2, 4, 6: floor((10-4)/2) + 1 = 4 windows
    assert windows.starts.tolist() == [0, 2, 4, 6]
    np.testing.assert_array_equal(windows.values[1, :, 0], [2, 3, 4, 5])


def test_segment_no_overlap():
    values, labels = series(np.arange(9))
    windows = segment(values, labels, "s", tau=3, omega=0)
    assert windows.starts.tolist() == [0, 3, 6]


def test_segment_short_series_yields_nothing():
    values, labels = series(np.arange(3))
    windows = segment(values, labels, "s", tau=4, omega=1)
    assert len(windows) == 0 and windows.values.shape == (0, 4, 1)


def test_segment_exact_fit():
    values, labels = series(np.arange(4))
    windows = segment(values, labels, "s", tau=4, omega=3)
    assert windows.starts.tolist() == [0]


def test_segment_rejects_bad_overlap():
    values, labels = series(np.arange(8))
    with pytest.raises(ConfigError):
        segment(values, labels, "s", tau=4, omega=4)
    with pytest.raises(ConfigError):
        segment(values, labels, "s", tau=4, omega=-1)
    with pytest.raises(ConfigError):
        segment(values, labels, "s", tau=0, omega=0)


@given(st.integers(1, 200), st.data())
def test_segment_count_formula(T, data):
    tau = data.draw(st.integers(1, T))
    omega = data.draw(st.integers(0, tau - 1))
    values, labels = series(np.zeros(T))
    windows = segment(values, labels, "s", tau, omega)
    assert len(windows) == (T - tau) // (tau - omega) + 1
    assert np.all(windows.starts + tau <= T)
    # windows tile the starts arithmetic: start_j = j * (tau - omega)
    assert windows.starts.tolist() == [j * (tau - omega) for j in range(len(windows))]


def test_segment_dataset_concatenates_in_order():
    recs = [SeriesRecord("a", "g", np.arange(6, dtype=float)[:, None],
                         np.zeros(6, dtype=np.int64)),
            SeriesRecord("b", "g", np.arange(5, dtype=float)[:, None],
                         np.ones(5, dtype=np.int64))]
    ds = TimeSeriesDataset(recs, 1, ["x", "y"])
    windows = segment_dataset(ds, tau=3, omega=1)
    assert list(zip(windows.source_ids, windows.starts.tolist())) == \
        [("a", 0), ("a", 2), ("b", 0), ("b", 2)]
    assert windows.labels.tolist() == [0, 0, 1, 1]


# ------------------------------------------------------------ label mode

def test_aggregate_label_mode():
    assert aggregate_label(np.array([1, 1, 2])) == 1
    assert aggregate_label(np.array([2, 2, 1, 1, 1])) == 1


def test_aggregate_label_tie_smallest():
    assert aggregate_label(np.array([0, 0, 1, 1])) == 0
    assert aggregate_label(np.array([3, 3, 2, 2])) == 2


def test_aggregate_label_empty_rejected():
    with pytest.raises(ShapeError):
        aggregate_label(np.array([], dtype=np.int64))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_aggregate_label_is_a_mode(labels):
    arr = np.array(labels, dtype=np.int64)
    winner = aggregate_label(arr)
    counts = {v: labels.count(v) for v in set(labels)}
    top = max(counts.values())
    assert counts[winner] == top
    assert winner == min(v for v, c in counts.items() if c == top)
    # one mode per row of a 2-D array
    assert aggregate_label(np.stack([arr, arr[::-1]])).tolist() == [winner, winner]


# ------------------------------------------------------------ normalization

def test_zscore_statistics():
    train = window_batch([[[1.0], [2.0]], [[3.0], [6.0]]])
    norm = fit_normalizer(train, "zscore")
    stacked = np.array([1.0, 2.0, 3.0, 6.0])
    assert norm.shift[0] == pytest.approx(stacked.mean())
    assert norm.scale[0] == pytest.approx(stacked.std())  # population std
    out = apply_normalizer_all(norm, train)
    assert out.values[0, 0, 0] == pytest.approx((1.0 - 3.0) / stacked.std())


def test_zscore_constant_channel_guard():
    train = window_batch([[[5.0], [5.0], [5.0]]])
    norm = fit_normalizer(train, "zscore")
    assert norm.scale[0] == 1.0
    out = apply_normalizer_all(norm, train)
    np.testing.assert_array_equal(out.values, np.zeros((1, 3, 1)))


def test_minmax_maps_train_range_to_unit():
    train = window_batch([[[2.0], [4.0]], [[6.0], [10.0]]])
    norm = fit_normalizer(train, "minmax")
    out = apply_normalizer_all(norm, train)
    assert out.values.min() == pytest.approx(0.0)
    assert out.values.max() == pytest.approx(1.0)


def test_minmax_does_not_clip_unseen():
    train = window_batch([[[0.0], [10.0]]])
    norm = fit_normalizer(train, "minmax")
    probe = window_batch([[[-5.0], [20.0]]])
    out = apply_normalizer_all(norm, probe)
    assert out.values[0, 0, 0] == pytest.approx(-0.5)
    assert out.values[0, 1, 0] == pytest.approx(2.0)


def test_minmax_constant_channel_guard():
    train = window_batch([[[3.0], [3.0]]])
    norm = fit_normalizer(train, "minmax")
    assert norm.scale[0] == 1.0


def test_normalizer_is_per_channel():
    train = window_batch([[[0.0, 100.0], [2.0, 300.0]]])
    norm = fit_normalizer(train, "zscore")
    assert norm.shift[0] == pytest.approx(1.0)
    assert norm.shift[1] == pytest.approx(200.0)


def test_apply_returns_new_window():
    train = window_batch([[[1.0], [2.0]]])
    norm = fit_normalizer(train, "zscore")
    before = train.values.copy()
    out = apply_normalizer_all(norm, train)
    np.testing.assert_array_equal(train.values, before)
    assert out is not train and out.values is not train.values
    assert out.source_ids is train.source_ids
    assert out.starts is train.starts
    assert out.labels is train.labels


def test_double_apply_differs_unless_identity():
    train = window_batch([[[1.0], [2.0]], [[3.0], [7.0]]])
    norm = fit_normalizer(train, "zscore")
    once = apply_normalizer_all(norm, train)
    twice = apply_normalizer_all(norm, once)
    assert not np.allclose(once.values, twice.values)
    identity = fit_normalizer(
        window_batch([[[-1.0], [1.0]]]), "zscore")  # mean 0, std 1
    assert identity.shift[0] == pytest.approx(0.0)
    assert identity.scale[0] == pytest.approx(1.0)
    same = apply_normalizer_all(identity, train)
    again = apply_normalizer_all(identity, same)
    np.testing.assert_allclose(same.values, again.values)


def test_channel_count_mismatch_rejected():
    norm = fit_normalizer(window_batch([[[1.0], [2.0]]]), "zscore")
    wide = window_batch([[[1.0, 2.0], [3.0, 4.0]]])
    with pytest.raises(ShapeError):
        apply_normalizer_all(norm, wide)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        fit_normalizer(window_batch([[[1.0]]]), "robust")


def test_fit_on_empty_rejected():
    with pytest.raises(ShapeError):
        fit_normalizer(window_batch(np.empty((0, 2, 1))), "zscore")
    with pytest.raises(ShapeError):
        flatten_windows(window_batch(np.empty((0, 2, 1))))


# ------------------------------------------------------------ batch vs loops

@st.composite
def split_series(draw):
    """Three splits of series of one channel count; val and test may be empty
    or hold only series shorter than tau."""
    C = draw(st.integers(1, 3))
    tau = draw(st.integers(1, 8) | st.integers(1, 300))
    omega = draw(st.integers(0, tau - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    longest_run = draw(st.sampled_from([3, 40]))
    splits = []
    for min_series in (1, 0, 0):
        recs = []
        for i in range(draw(st.integers(min_series, 3))):
            T = draw(st.integers(1, 300))
            # few distinct labels in runs make label-mode ties common, and
            # windows inside one run common too
            runs = rng.integers(1, longest_run + 1, size=T)
            labels = np.repeat(rng.integers(0, 3, size=T), runs)[:T]
            recs.append(SeriesRecord(f"s{len(splits)}{i}", "g", scale * rng.normal(size=(T, C)),
                                     labels.astype(np.int64)))
        splits.append(TimeSeriesDataset(recs, C, ["a", "b", "c"]))
    return splits, tau, omega


@given(split_series(), st.sampled_from(["zscore", "minmax"]))
def test_batch_matches_window_loops(case, kind):
    splits, tau, omega = case
    C = splits[0].n_channels
    loops = [[w for rec in ds.series
              for w in segment_loop(rec.values, rec.labels, rec.series_id, tau, omega)]
             for ds in splits]
    batches = [segment_dataset(ds, tau, omega) for ds in splits]
    for batch, windows in zip(batches, loops):
        assert_batch_is(batch, windows, tau, C)
    if not loops[0]:
        return
    norm = fit_normalizer(batches[0], kind)
    shift, scale = fit_loop(loops[0], kind)
    assert norm.shift.tobytes() == shift.tobytes()
    assert norm.scale.tobytes() == scale.tobytes()
    loops = [normalize_loop(windows, shift, scale) for windows in loops]
    batches = [apply_normalizer_all(norm, batch) for batch in batches]
    for batch, windows in zip(batches, loops):
        assert_batch_is(batch, windows, tau, C)
    # the three splits joined, as the embedding dump writes them
    joined = concat_windows(batches)
    windows = loops[0] + loops[1] + loops[2]
    assert_batch_is(joined, windows, tau, C)
    assert flatten_windows(joined).tobytes() == flatten_loop(windows).tobytes()
    want = np.array([fft_loop(values) for _, _, values, _ in windows])
    assert fft_embed(joined.values).tobytes() == want.tobytes()
    assert fft_embed(joined.values[-1]).tobytes() == want[-1].tobytes()
