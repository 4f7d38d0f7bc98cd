"""Window segmentation, label aggregation, and per-channel normalization.

Segmentation slides a window of length tau with overlap omega: starts are
0, (tau-omega), 2(tau-omega), ... while start+tau <= T, giving
floor((T-tau)/(tau-omega)) + 1 windows for T >= tau and none otherwise.
A window's label is the mode of the timestep labels it covers, ties going to
the smallest label id.

Normalizers are fitted on training windows only and carry per-channel
statistics. zscore uses the population standard deviation; minmax maps the
training range to [0, 1] without clipping, so unseen values can fall outside.
Channels with zero spread use divisor 1 to stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import TimeSeriesDataset
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class Window:
    """A segment of one series: values is (tau, C)."""

    source_id: str
    start: int
    values: np.ndarray
    label: int


@dataclass(frozen=True)
class Normalizer:
    """Per-channel affine map x -> (x - shift) / scale."""

    kind: str
    shift: np.ndarray
    scale: np.ndarray


def aggregate_label(labels: np.ndarray) -> int:
    """Mode of dense label ids; ties go to the smallest id."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ShapeError("cannot aggregate an empty label run")
    counts = np.bincount(labels)
    return int(np.argmax(counts))


def segment(rec_values: np.ndarray, rec_labels: np.ndarray, source_id: str,
            tau: int, omega: int) -> list[Window]:
    """Windows for one series; empty when the series is shorter than tau."""
    if tau < 1:
        raise ConfigError(f"window length tau must be >= 1, got {tau}")
    if omega < 0 or omega >= tau:
        raise ConfigError(f"overlap omega must satisfy 0 <= omega < tau, got {omega}")
    T = rec_values.shape[0]
    windows = []
    step = tau - omega
    start = 0
    while start + tau <= T:
        values = rec_values[start:start + tau]
        label = aggregate_label(rec_labels[start:start + tau])
        windows.append(Window(source_id, start, values, label))
        start += step
    return windows


def segment_dataset(ds: TimeSeriesDataset, tau: int, omega: int) -> list[Window]:
    """All windows of all series, series order then start order."""
    out: list[Window] = []
    for rec in ds.series:
        out.extend(segment(rec.values, rec.labels, rec.series_id, tau, omega))
    return out


def fit_normalizer(windows: list[Window], kind: str) -> Normalizer:
    """Fit per-channel statistics over every sample of every window."""
    if kind not in ("zscore", "minmax"):
        raise ConfigError(f"unknown normalization kind {kind!r}")
    if not windows:
        raise ShapeError("cannot fit a normalizer on zero windows")
    stacked = np.concatenate([w.values for w in windows], axis=0)
    if kind == "zscore":
        shift = stacked.mean(axis=0)
        scale = stacked.std(axis=0)  # population std
    else:
        shift = stacked.min(axis=0)
        scale = stacked.max(axis=0) - shift
    scale = np.where(scale == 0.0, 1.0, scale)
    return Normalizer(kind, shift, scale)


def apply_normalizer(norm: Normalizer, window: Window) -> Window:
    """Return a new window with normalized values; input is untouched."""
    if window.values.shape[1] != norm.shift.shape[0]:
        raise ShapeError(
            f"window has {window.values.shape[1]} channels, normalizer has "
            f"{norm.shift.shape[0]}")
    values = (window.values - norm.shift) / norm.scale
    return Window(window.source_id, window.start, values, window.label)


def apply_normalizer_all(norm: Normalizer, windows: list[Window]) -> list[Window]:
    return [apply_normalizer(norm, w) for w in windows]


def flatten_windows(windows: list[Window]) -> np.ndarray:
    """One row per window: its (tau, C) values flattened channel-major."""
    if not windows:
        raise ShapeError("need at least one window")
    return np.stack([w.values.T.reshape(-1) for w in windows])
