"""Frequency-domain window embeddings: DFT magnitudes and Morlet CWT energies.

fft_embed keeps the magnitudes of the non-redundant half spectrum per channel
(bins k = 0..floor(tau/2)), so a window of C channels maps to a vector of
C * (floor(tau/2) + 1) features. It takes one (tau, C) window or a stack of
them through one np.fft.fft call; np.fft.rfft would drift in the last bits.

The continuous wavelet transform uses the complex Morlet mother wavelet

    psi(t) = pi^(-1/4) * exp(i * omega0 * t) * exp(-t^2 / 2),  omega0 = 6.0

evaluated by direct discretized sum against the window (implicit zero padding
outside it), with the 1/sqrt(|a|) scale factor:

    CWT(a, b) = (1 / sqrt(a)) * sum_t x[t] * conj(psi((t - b) / a))

wavelet_embed reduces each scale of a CwtConfig to a log energy
log(1e-12 + sum_b |CWT|^2); the benchmark's wavelet method fills in the
default dyadic scales when a config gives none.
The pseudo-frequency of scale a is omega0 / (2*pi*a) cycles per sample, which
is how a tone at frequency f peaks near a = omega0 / (2*pi*f).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError

MORLET_OMEGA0 = 6.0


def fft_embed(values: np.ndarray) -> np.ndarray:
    """Half-spectrum magnitudes, channel-major concatenation.

    values is one (tau, C) window or an (n, tau, C) stack; the result is a
    vector, or one row per window.
    """
    values = np.asarray(values)
    tau = values.shape[-2]
    mags = np.abs(np.fft.fft(values, axis=-2)[..., :tau // 2 + 1, :])
    return np.swapaxes(mags, -1, -2).reshape(*values.shape[:-2], -1)


def default_scales(tau: int) -> tuple[float, ...]:
    """Dyadic scales 2, 4, 8, ... capped at tau/2."""
    scales = []
    a = 2.0
    while a <= tau / 2.0:
        scales.append(a)
        a *= 2.0
    return tuple(scales)


@dataclass(frozen=True)
class CwtConfig:
    scales: tuple[float, ...]
    omega0: float = MORLET_OMEGA0

    def __post_init__(self):
        if not self.scales:
            raise ConfigError("CWT needs at least one scale")
        if any(a <= 0 for a in self.scales):
            raise ConfigError(f"CWT scales must be positive, got {self.scales}")


def morlet(t: np.ndarray, omega0: float = MORLET_OMEGA0) -> np.ndarray:
    """Complex Morlet mother wavelet psi(t)."""
    t = np.asarray(t, dtype=float)
    return (np.pi ** -0.25) * np.exp(1j * omega0 * t) * np.exp(-t * t / 2.0)


@lru_cache(maxsize=64)
def _cwt_kernel(tau: int, scale: float, omega0: float) -> np.ndarray:
    """(tau, tau) matrix K with K[b, t] = conj(psi((t-b)/scale)) / sqrt(scale)."""
    t = np.arange(tau, dtype=float)
    u = (t[None, :] - t[:, None]) / scale
    return np.conj(morlet(u, omega0)) / np.sqrt(scale)


def cwt(x: np.ndarray, cfg: CwtConfig) -> np.ndarray:
    """CWT coefficient matrix of shape (len(scales), tau), complex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ShapeError(f"CWT expects a 1-D signal of length >= 2, got shape {x.shape}")
    tau = x.shape[0]
    rows = [_cwt_kernel(tau, float(a), cfg.omega0) @ x for a in cfg.scales]
    return np.stack(rows)


def wavelet_embed(values: np.ndarray, cfg: CwtConfig) -> np.ndarray:
    """Per-channel, per-scale log energies of a (tau, C) window, channel-major
    then scale order."""
    parts = []
    for c in range(values.shape[1]):
        coeffs = cwt(values[:, c], cfg)
        energies = np.sum(np.abs(coeffs) ** 2, axis=1)
        parts.append(np.log(1e-12 + energies))
    return np.concatenate(parts)
