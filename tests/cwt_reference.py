"""The Morlet CWT by direct summation: a dense (tau, tau) kernel per scale.

The oracle that embed_spectral.cwt's zero-padded FFT product is checked
against. It costs O(S * tau^2) time and memory per signal.
"""

import numpy as np

from tsembed.embed_spectral import morlet
from tsembed.errors import ShapeError


def cwt_kernel(tau, scale, omega0):
    """(tau, tau) matrix K with K[b, t] = conj(psi((t-b)/scale)) / sqrt(scale)."""
    t = np.arange(tau, dtype=float)
    u = (t[None, :] - t[:, None]) / scale
    return np.conj(morlet(u, omega0)) / np.sqrt(scale)


def matrix_cwt(x, cfg):
    """CWT coefficient matrix of one signal, shape (len(scales), tau), complex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ShapeError(f"CWT expects a 1-D signal of length >= 2, got shape {x.shape}")
    tau = x.shape[0]
    return np.stack([cwt_kernel(tau, float(a), cfg.omega0) @ x for a in cfg.scales])


def matrix_wavelet_embed(values, cfg):
    """Per-channel, per-scale log energies of one (tau, C) window, channel-major
    then scale order, each channel through matrix_cwt."""
    parts = []
    for c in range(values.shape[1]):
        energies = np.sum(np.abs(matrix_cwt(values[:, c], cfg)) ** 2, axis=1)
        parts.append(np.log(1e-12 + energies))
    return np.concatenate(parts)
