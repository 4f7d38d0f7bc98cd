"""Frequency-domain window embeddings: DFT magnitudes and Morlet CWT energies.

fft_embed keeps the magnitudes of the non-redundant half spectrum per channel
(bins k = 0..floor(tau/2)), so a window of C channels maps to a vector of
C * (floor(tau/2) + 1) features. Both embedders get the channels of a window
or a stack as rows from preprocess.per_channel; fft_embed runs one np.fft.fft
call over them (np.fft.rfft would drift in the last bits).

The continuous wavelet transform uses the complex Morlet mother wavelet

    psi(t) = pi^(-1/4) * exp(i * omega0 * t) * exp(-t^2 / 2),  omega0 = 6.0

summed against the window (implicit zero padding outside it), with the
1/sqrt(|a|) scale factor:

    CWT(a, b) = (1 / sqrt(a)) * sum_t x[t] * conj(psi((t - b) / a))

Since conj(psi(-u)) = psi(u), each scale is the linear convolution of x with
g[j] = psi(j / a) / sqrt(a) over the lags |j| < tau. cwt evaluates it for a
whole stack of rows at once as a zero-padded FFT product: the FFT length is
the smallest power of two >= 2 * tau - 1, so the circular product never wraps
a lag onto another. That costs O(S * tau log tau) per row and no memory that
grows with tau^2. The rounding differs from the direct sum
(tests/cwt_reference.py): on z-scored synthgen windows of tau 64 to 1024
the coefficients drifted by at most 2.1e-15 of their row's norm and the log
energies by at most 3.3e-15 (so the energies by 3.3e-15 relative), far below
the 6 significant digits of the reports; the tests bound both at 1e-12.
Rows are made C-contiguous first, so a batch gives the same bytes as its rows
one at a time.

wavelet_embed reduces each scale of a CwtConfig to a log energy
log(1e-12 + sum_b |CWT|^2); the benchmark's wavelet method fills in the
default dyadic scales when a config gives none. It hands cwt the channel rows
of a whole batch in blocks of at most 2^20 coefficients (16 MB), so
its memory does not grow with the number of windows. Scales below MIN_SCALE
samples are rejected: any scale under a = omega0 / pi (about 1.9) already
puts the Morlet centre frequency past Nyquist, and far below that the lags
j / a overflow to inf and the coefficients turn NaN. omega0 must lie in
(0, MAX_OMEGA0] = (0, 1e6]: a centre frequency omega0 / (2*pi*a) needs
omega0 > 0 to mean one, and 1e6 is far past any scale a window resolves
(below Nyquist only from a > 3e5 samples), while the phase omega0 * j / a stays
below 1e12 * tau for every scale >= MIN_SCALE; a far larger omega0 overflows
the phase to inf and turns the coefficients NaN.
The pseudo-frequency of scale a is omega0 / (2*pi*a) cycles per sample, which
is how a tone at frequency f peaks near a = omega0 / (2*pi*f).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .preprocess import per_channel

MORLET_OMEGA0 = 6.0
MIN_SCALE = 1e-6  # samples
MAX_OMEGA0 = 1e6  # radians per unit of t = lag / scale
# coefficients per cwt call in wavelet_embed: a longer batch goes through in
# blocks of rows, so its memory stays flat in the number of windows
_CWT_BLOCK = 1 << 20


def fft_embed(values: np.ndarray) -> np.ndarray:
    """Half-spectrum magnitudes per channel of a window or a stack, laid out
    by preprocess.per_channel."""
    return per_channel(values, lambda rows: np.abs(
        np.fft.fft(rows, axis=-1)[:, :rows.shape[1] // 2 + 1]))


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
        if not all(a >= MIN_SCALE for a in self.scales):
            raise ConfigError(f"CWT scales must be >= {MIN_SCALE:g} samples, "
                              f"got {self.scales}")
        check_omega0(self.omega0)


def check_omega0(omega0: float) -> None:
    """ConfigError unless 0 < omega0 <= MAX_OMEGA0."""
    if not 0.0 < omega0 <= MAX_OMEGA0:
        raise ConfigError(f"Morlet omega0 must be > 0 and <= {MAX_OMEGA0:g}, got {omega0}")


def morlet(t: np.ndarray, omega0: float = MORLET_OMEGA0) -> np.ndarray:
    """Complex Morlet mother wavelet psi(t)."""
    t = np.asarray(t, dtype=float)
    return (np.pi ** -0.25) * np.exp(1j * omega0 * t) * np.exp(-t * t / 2.0)


def cwt(x: np.ndarray, cfg: CwtConfig) -> np.ndarray:
    """Complex CWT coefficients of a (tau,) signal or an (m, tau) stack of
    rows: shape (..., len(scales), tau)."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 2:
        raise ShapeError(f"CWT expects signals of length >= 2 as a 1-D or 2-D array, "
                         f"got shape {x.shape}")
    tau = x.shape[-1]
    n_fft = 1 << (2 * tau - 2).bit_length()  # smallest power of two >= 2 * tau - 1
    spectrum = np.fft.fft(x, n=n_fft, axis=-1)
    lags = np.arange(1 - tau, tau)  # negative lags wrap to the end of the kernel
    out = np.empty(x.shape[:-1] + (len(cfg.scales), tau), dtype=complex)
    for s, a in enumerate(cfg.scales):
        kernel = np.zeros(n_fft, dtype=complex)
        kernel[lags] = morlet(lags / a, cfg.omega0) / np.sqrt(a)
        out[..., s, :] = np.fft.ifft(spectrum * np.fft.fft(kernel), axis=-1)[..., :tau]
    return out


def wavelet_embed(values: np.ndarray, cfg: CwtConfig) -> np.ndarray:
    """Per-channel, per-scale log energies of a window or a stack, laid out
    by preprocess.per_channel, channel-major then scale order. The channel
    rows go through cwt in one call unless they hold more than _CWT_BLOCK
    coefficients."""
    def log_energies(rows: np.ndarray) -> np.ndarray:
        step = max(1, _CWT_BLOCK // (len(cfg.scales) * rows.shape[1]))
        energies = np.empty((rows.shape[0], len(cfg.scales)))
        for i in range(0, rows.shape[0], step):
            energies[i:i + step] = np.sum(np.abs(cwt(rows[i:i + step], cfg)) ** 2, axis=-1)
        return np.log(1e-12 + energies)

    return per_channel(values, log_energies)
