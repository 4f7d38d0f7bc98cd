"""Synthetic labeled datasets with known, method-friendly structure.

Three families, all one window long (T = tau) with one series per group so
group-disjoint splitting scatters instances freely:

tones        class c is a sinusoid at (c + 1) * 2.0 cycles per window with a
             uniform random phase per channel. Clean frequency separation:
             spectral embeddings should do very well here.

trends       class c is a zigzag whose slope magnitude grows with c; the
             slope sign flips at random times. Slope-sensitive features
             (visibility-graph weights) separate the classes.

statebursts  class c is a few Gaussian bumps whose width grows with c, at
             random positions and random signs, with per-class peak heights
             chosen so total energy stays flat across classes. Random
             placement and sign scramble the phase spectrum, so per-bin DFT
             magnitudes are noisy while scale energies stay stable:
             wavelet-style features hold an edge over raw spectra.

Gaussian noise of the configured sigma is added everywhere. Generation is a
pure function of the spec: one seeded stream, fixed draw order (class,
instance, channel, then parameters before noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import SeriesRecord, TimeSeriesDataset
from .errors import ConfigError
from .rng import Xoshiro256StarStar, derive_seed

SYNTH_KINDS = ("tones", "trends", "statebursts")
TONE_BASE_FREQ = 2.0  # cycles per window for class 0


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    classes: int = 2
    n_per_class: int = 100
    tau: int = 64
    channels: int = 1
    noise_sigma: float = 0.1
    seed: int = 7

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.n_per_class < 1:
            raise ConfigError(f"need n_per_class >= 1, got {self.n_per_class}")
        if self.tau < 8:
            raise ConfigError(f"need tau >= 8, got {self.tau}")
        if self.channels < 1:
            raise ConfigError(f"need channels >= 1, got {self.channels}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {self.noise_sigma}")


def _tone_channel(rng: Xoshiro256StarStar, tau: int, cls: int) -> np.ndarray:
    freq = (cls + 1) * TONE_BASE_FREQ  # cycles per window
    phase = rng.random() * 2.0 * np.pi
    t = np.arange(tau)
    return np.sin(2.0 * np.pi * freq * t / tau + phase)


def _trend_channel(rng: Xoshiro256StarStar, tau: int, cls: int) -> np.ndarray:
    slope = (cls + 1) * 4.0 / tau
    sign = 1.0 if rng.random() < 0.5 else -1.0
    values = np.empty(tau)
    level = 0.0
    for t in range(tau):
        values[t] = level
        if rng.random() < 0.125:
            sign = -sign
        level += sign * slope
    return values


def _burst_channel(rng: Xoshiro256StarStar, tau: int, cls: int) -> np.ndarray:
    width = 2.0 * (cls + 1)
    amplitude = 3.0 / np.sqrt(cls + 1.0)  # keeps bump energy flat across classes
    values = np.zeros(tau)
    t = np.arange(tau, dtype=float)
    for _ in range(3):
        center = width + rng.random() * (tau - 2.0 * width)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        values += sign * amplitude * np.exp(-((t - center) ** 2) / (2.0 * width * width))
    return values


_CHANNEL_BUILDERS = {
    "tones": _tone_channel,
    "trends": _trend_channel,
    "statebursts": _burst_channel,
}


def generate(spec: SynthSpec) -> TimeSeriesDataset:
    """Build the dataset; same spec always yields bit-identical values."""
    rng = Xoshiro256StarStar(derive_seed(spec.seed, "synth", spec.kind))
    build = _CHANNEL_BUILDERS[spec.kind]
    records = []
    for cls in range(spec.classes):
        for i in range(spec.n_per_class):
            values = np.empty((spec.tau, spec.channels))
            for ch in range(spec.channels):
                clean = build(rng, spec.tau, cls)
                noise = rng.gauss_vector(spec.tau) * spec.noise_sigma
                values[:, ch] = clean + noise
            sid = f"{spec.kind}-c{cls}-i{i:04d}"
            labels = np.full(spec.tau, cls, dtype=np.int64)
            records.append(SeriesRecord(sid, sid, values, labels))
    alphabet = [str(c) for c in range(spec.classes)]
    ds = TimeSeriesDataset(records, spec.channels, alphabet)
    ds.validate()
    return ds
