"""Window batches for tests, and the per-window loops the batch code replaced.

The loops are the reference the batch code in tsembed.preprocess and
tsembed.embed_spectral must match byte for byte.
"""

import numpy as np

from tsembed.data_io import SeriesRecord, TimeSeriesDataset
from tsembed.preprocess import WindowBatch, segment_dataset


def window_batch(values, labels=None):
    """A batch of the (n, tau, C) values: windows of series "s" at starts 0..n-1."""
    values = np.ascontiguousarray(values, dtype=float)
    n = values.shape[0]
    labels = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels, np.int64)
    return WindowBatch(values, labels, np.arange(n), np.full(n, "s", dtype=object))


def segment(rec_values, rec_labels, source_id, tau, omega):
    """segment_dataset's windows of one (T, C) series; empty when T < tau."""
    record = SeriesRecord(source_id, "", rec_values, rec_labels)
    return segment_dataset(TimeSeriesDataset([record], rec_values.shape[1]), tau, omega)


def mode_loop(labels):
    """Mode of one run of dense label ids, ties to the smallest id."""
    return int(np.argmax(np.bincount(labels)))


def segment_loop(rec_values, rec_labels, source_id, tau, omega):
    """(source_id, start, values, label) of each window, one series."""
    out = []
    start = 0
    while start + tau <= rec_values.shape[0]:
        out.append((source_id, start, rec_values[start:start + tau],
                    mode_loop(rec_labels[start:start + tau])))
        start += tau - omega
    return out


def fit_loop(windows, kind):
    """(shift, scale) over the windows' stacked samples."""
    stacked = np.concatenate([values for _, _, values, _ in windows], axis=0)
    if kind == "zscore":
        shift, scale = stacked.mean(axis=0), stacked.std(axis=0)
    else:
        shift = stacked.min(axis=0)
        scale = stacked.max(axis=0) - shift
    return shift, np.where(scale == 0.0, 1.0, scale)


def normalize_loop(windows, shift, scale):
    return [(sid, start, (values - shift) / scale, label)
            for sid, start, values, label in windows]


def flatten_loop(windows):
    return np.stack([values.T.reshape(-1) for _, _, values, _ in windows])


def fft_loop(values):
    """Half-spectrum magnitudes of one (tau, C) window, channel by channel."""
    keep = values.shape[0] // 2 + 1
    return np.concatenate([np.abs(np.fft.fft(values[:, c])[:keep])
                           for c in range(values.shape[1])])


def assert_batch_is(batch, windows, tau, n_channels):
    """The batch holds the loop's windows, byte for byte."""
    assert batch.values.shape == (len(windows), tau, n_channels)
    assert batch.values.flags.c_contiguous
    assert batch.labels.dtype == np.int64 and batch.starts.dtype == np.int64
    assert batch.source_ids.tolist() == [sid for sid, _, _, _ in windows]
    assert batch.starts.tolist() == [start for _, start, _, _ in windows]
    assert batch.labels.tolist() == [label for _, _, _, label in windows]
    want = np.array([values for _, _, values, _ in windows]).reshape(batch.values.shape)
    assert batch.values.tobytes() == want.tobytes()
