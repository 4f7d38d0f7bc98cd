"""Window segmentation, label aggregation, and per-channel normalization.

Segmentation slides a window of length tau with overlap omega: starts are
0, (tau-omega), 2(tau-omega), ... while start+tau <= T, giving
floor((T-tau)/(tau-omega)) + 1 windows for T >= tau and none otherwise.
A tau that fits no series costs nothing; one too long for numpy to shape a
float batch of (0, tau, C) is a ConfigError.
A window's label is the mode of the timestep labels it covers, ties going to
the smallest label id.

Windows form one array batch (WindowBatch) in series order then start order;
every step after segmentation works on the whole batch at once.

Windows go channel-major, each channel one row of tau samples:
flatten_windows lays out the values that way, and per_channel runs the row
function of every per-channel embedder (fft, wavelet, graph, tda) over them.

Normalizers are fitted on training windows only and carry per-channel
statistics. zscore uses the population standard deviation; minmax maps the
training range to [0, 1] without clipping, so unseen values can fall outside.
Channels with zero spread use divisor 1 to stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_io import TimeSeriesDataset
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class WindowBatch:
    """n windows of one length: values is C-contiguous (n, tau, C); labels and
    starts are (n,) int64; source_ids is (n,) object, the series of each."""

    values: np.ndarray
    labels: np.ndarray
    starts: np.ndarray
    source_ids: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Normalizer:
    """Per-channel affine map x -> (x - shift) / scale."""

    kind: str
    shift: np.ndarray
    scale: np.ndarray


def aggregate_label(labels: np.ndarray) -> np.ndarray | int:
    """Mode of dense label ids along the last axis, an int for a 1-D run; ties
    go to the smallest id."""
    labels = np.asarray(labels)
    if labels.shape[-1] == 0:
        raise ShapeError("cannot aggregate an empty label run")
    runs = np.sort(labels.reshape(-1, labels.shape[-1]), axis=1)
    at = np.flatnonzero(np.diff(runs, axis=1, prepend=-1))  # ids are >= 0: rows start runs
    # each run's length at its first position; runs ascend, so the first
    # longest run of a row holds its smallest label of the largest count
    length = np.zeros(runs.size, dtype=np.int64)
    length[at] = np.diff(at, append=runs.size)
    modes = runs[np.arange(len(runs)), length.reshape(runs.shape).argmax(axis=1)]
    return modes.reshape(labels.shape[:-1]) if labels.ndim > 1 else int(modes[0])


def segment_dataset(ds: TimeSeriesDataset, tau: int, omega: int) -> WindowBatch:
    """All windows of all series, series order then start order."""
    if tau < 1:
        raise ConfigError(f"window length tau must be >= 1, got {tau}")
    if omega < 0 or omega >= tau:
        raise ConfigError(f"overlap omega must satisfy 0 <= omega < tau, got {omega}")
    limit = np.iinfo(np.intp).max // (8 * max(ds.n_channels, 1))
    if tau > limit:  # numpy holds no float batch of shape (0, tau, C), and no series that long
        raise ConfigError(f"window length tau must be <= {limit}, got {tau}")
    step = tau - omega
    lengths = np.array([rec.values.shape[0] for rec in ds.series], dtype=np.int64)
    counts = np.where(lengths >= tau, (lengths - tau) // step + 1, 0)
    starts = (np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)) * step
    begins = np.repeat(np.cumsum(lengths) - lengths, counts) + starts  # rows of the concatenation
    # no window, no length-tau range: tau may exceed every series by far
    rows = begins[:, None] + np.arange(tau) if len(begins) else np.empty((0, tau), np.int64)
    # the empty leading parts give the batch its shape when there are no series
    values = np.concatenate([np.empty((0, ds.n_channels))] + [r.values for r in ds.series])
    labels = np.concatenate([np.empty(0, dtype=np.int64)] + [r.labels for r in ds.series])
    # a window inside one run of equal labels takes it; only the rest are counted
    cuts = np.flatnonzero(labels[1:] != labels[:-1]) + 1  # where a new label run starts
    mixed = np.searchsorted(cuts, begins + tau - 1, "right") > np.searchsorted(cuts, begins, "right")
    modes = labels[begins]
    modes[mixed] = aggregate_label(labels[rows[mixed]])
    ids = np.array([rec.series_id for rec in ds.series], dtype=object)
    return WindowBatch(values.take(rows, axis=0), modes, starts, ids.repeat(counts))


def concat_windows(batches: list[WindowBatch]) -> WindowBatch:
    """One batch holding the windows of each batch in turn."""
    return WindowBatch(*(np.concatenate([getattr(b, name) for b in batches])
                         for name in ("values", "labels", "starts", "source_ids")))


def fit_normalizer(windows: WindowBatch, kind: str) -> Normalizer:
    """Fit per-channel statistics over every sample of every window."""
    if kind not in ("zscore", "minmax"):
        raise ConfigError(f"unknown normalization kind {kind!r}")
    if not len(windows):
        raise ShapeError("cannot fit a normalizer on zero windows")
    stacked = windows.values.reshape(-1, windows.values.shape[2])
    if kind == "zscore":
        shift = stacked.mean(axis=0)
        scale = stacked.std(axis=0)  # population std
    else:
        shift = stacked.min(axis=0)
        scale = stacked.max(axis=0) - shift
    scale = np.where(scale == 0.0, 1.0, scale)
    return Normalizer(kind, shift, scale)


def apply_normalizer_all(norm: Normalizer, windows: WindowBatch) -> WindowBatch:
    """A new batch with normalized values; the input is untouched."""
    if windows.values.shape[2] != norm.shift.shape[0]:
        raise ShapeError(
            f"windows have {windows.values.shape[2]} channels, normalizer has "
            f"{norm.shift.shape[0]}")
    return replace(windows, values=(windows.values - norm.shift) / norm.scale)


def per_channel(values: np.ndarray, row_features) -> np.ndarray:
    """row_features of the channels of a (tau, C) window or an (n, tau, C)
    stack, passed as the C-contiguous rows of one (n * C, tau) float array and
    returned as (n * C, k): C * k features per window, channel-major, a vector
    for one window."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (2, 3):
        raise ShapeError(f"need a (tau, C) window or an (n, tau, C) stack, got {values.shape}")
    tau, C = values.shape[-2:]
    features = row_features(np.ascontiguousarray(np.swapaxes(values, -1, -2)).reshape(-1, tau))
    return features.reshape(values.shape[:-2] + (C * features.shape[1],))


def flatten_windows(windows: WindowBatch) -> np.ndarray:
    """One row per window: its (tau, C) values flattened channel-major."""
    if not len(windows):
        raise ShapeError("need at least one window")
    return per_channel(windows.values, lambda rows: rows)
