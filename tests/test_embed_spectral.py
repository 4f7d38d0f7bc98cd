import numpy as np
import pytest

from tsembed.embed_spectral import (MORLET_OMEGA0, CwtConfig, cwt,
                                    default_scales, fft_embed, morlet,
                                    wavelet_embed)
from tsembed.errors import ConfigError, ShapeError
from tsembed.rng import Xoshiro256StarStar


def naive_dft_mags(x):
    x = np.asarray(x, dtype=float)
    N = x.shape[0]
    mags = []
    for k in range(N // 2 + 1):
        acc = sum(x[n] * np.exp(-2j * np.pi * k * n / N) for n in range(N))
        mags.append(abs(acc))
    return np.array(mags)


def naive_cwt(x, scale, omega0=MORLET_OMEGA0):
    """Direct per-sample double loop; the independent reference."""
    x = np.asarray(x, dtype=float)
    tau = x.shape[0]
    out = np.empty(tau, dtype=complex)
    for b in range(tau):
        acc = 0.0 + 0.0j
        for t in range(tau):
            u = (t - b) / scale
            psi = (np.pi ** -0.25) * np.exp(1j * omega0 * u) * np.exp(-u * u / 2)
            acc += x[t] * np.conj(psi)
        out[b] = acc / np.sqrt(scale)
    return out


# ------------------------------------------------------------ fft_embed

def test_fft_embed_known_tone(make_window):
    w = make_window([1.0, 0.0, -1.0, 0.0])
    np.testing.assert_allclose(fft_embed(w), [0.0, 2.0, 0.0], atol=1e-12)


def test_fft_embed_constant(make_window):
    w = make_window([2.0, 2.0, 2.0, 2.0])
    np.testing.assert_allclose(fft_embed(w), [8.0, 0.0, 0.0], atol=1e-12)


def test_fft_embed_dims(make_window):
    for tau in (4, 5, 6, 7, 30):
        for C in (1, 2, 3):
            w = make_window(np.zeros((tau, C)))
            assert fft_embed(w).shape == (C * (tau // 2 + 1),)
            assert fft_embed(np.zeros((3, tau, C))).shape == (3, C * (tau // 2 + 1))


def test_fft_embed_matches_naive(make_window):
    rng = Xoshiro256StarStar(2)
    for tau in (1, 5, 8, 13):
        x = np.array(rng.gauss_vector(tau))
        got = fft_embed(make_window(x))
        np.testing.assert_allclose(got, naive_dft_mags(x), atol=1e-9)


def test_fft_embed_channel_major(make_window):
    a = np.array([1.0, 0.0, -1.0, 0.0])
    b = np.array([3.0, 3.0, 3.0, 3.0])
    w = make_window(np.stack([a, b], axis=1))
    out = fft_embed(w)
    np.testing.assert_allclose(out[:3], [0.0, 2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out[3:], [12.0, 0.0, 0.0], atol=1e-12)


def test_fft_embed_shift_invariance(make_window):
    # magnitudes ignore circular time shifts
    rng = Xoshiro256StarStar(3)
    x = np.array(rng.gauss_vector(16))
    base = fft_embed(make_window(x))
    for shift in (1, 5, 9):
        rolled = fft_embed(make_window(np.roll(x, shift)))
        np.testing.assert_allclose(rolled, base, atol=1e-9)


# ------------------------------------------------------------ cwt

def test_morlet_shape_and_center():
    assert morlet(np.array([0.0]))[0] == pytest.approx(np.pi ** -0.25)
    t = np.linspace(-4, 4, 41)
    psi = morlet(t)
    assert np.argmax(np.abs(psi)) == 20  # envelope peaks at t = 0


def test_cwt_zero_signal():
    out = cwt(np.zeros(16), CwtConfig((2.0, 4.0)))
    assert out.shape == (2, 16)
    np.testing.assert_array_equal(out, np.zeros((2, 16)))


def test_cwt_matches_naive():
    rng = Xoshiro256StarStar(5)
    x = np.array(rng.gauss_vector(20))
    cfg = CwtConfig((2.0, 3.5, 8.0))
    got = cwt(x, cfg)
    for row, scale in zip(got, cfg.scales):
        np.testing.assert_allclose(row, naive_cwt(x, scale), atol=1e-10)


def test_cwt_linearity():
    rng = Xoshiro256StarStar(7)
    x = np.array(rng.gauss_vector(24))
    y = np.array(rng.gauss_vector(24))
    cfg = CwtConfig((4.0,))
    lhs = cwt(2.0 * x + 3.0 * y, cfg)
    rhs = 2.0 * cwt(x, cfg) + 3.0 * cwt(y, cfg)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_cwt_scale_peak_matches_tone_frequency():
    # a* = omega0 / (2 pi f); for f = 1/8 cycles per sample, a* ~ 7.64
    tau = 64
    f = 1.0 / 8.0
    t = np.arange(tau)
    x = np.cos(2 * np.pi * f * t)
    scales = tuple(np.arange(4.0, 12.01, 0.25))
    cfg = CwtConfig(scales)
    coeffs = cwt(x, cfg)
    mid = tau // 2
    best = scales[int(np.argmax(np.abs(coeffs[:, mid])))]
    a_star = MORLET_OMEGA0 / (2 * np.pi * f)
    assert abs(best - a_star) <= 0.25 + 1e-9


def test_cwt_rejects_bad_input():
    with pytest.raises(ShapeError):
        cwt(np.array([1.0]), CwtConfig((2.0,)))
    with pytest.raises(ConfigError):
        CwtConfig(())
    with pytest.raises(ConfigError):
        CwtConfig((0.0, 2.0))


# ------------------------------------------------------------ wavelet_embed

def dyadic(tau):
    """The config of the default scales for windows of length tau."""
    return CwtConfig(default_scales(tau))


def test_default_scales_dyadic():
    assert default_scales(30) == (2.0, 4.0, 8.0)
    assert default_scales(64) == (2.0, 4.0, 8.0, 16.0, 32.0)
    assert default_scales(8) == (2.0, 4.0)
    assert default_scales(3) == ()


def test_wavelet_embed_dims(make_window):
    w = make_window(np.zeros((32, 2)))
    out = wavelet_embed(w, dyadic(32))
    assert out.shape == (2 * len(default_scales(32)),)


def test_wavelet_embed_zero_signal_floor(make_window):
    w = make_window(np.zeros(16))
    np.testing.assert_allclose(wavelet_embed(w, dyadic(16)), np.log(1e-12))


def test_wavelet_embed_tone_peaks_at_matching_scale(make_window):
    # tone whose pseudo-frequency matches scale 4 exactly
    tau = 64
    f = MORLET_OMEGA0 / (2 * np.pi * 4.0)
    x = np.cos(2 * np.pi * f * np.arange(tau))
    out = wavelet_embed(make_window(x), dyadic(tau))
    scales = default_scales(tau)
    assert scales[int(np.argmax(out))] == 4.0


def test_wavelet_embed_energy_scaling(make_window):
    # log energies shift by 2 log(alpha) under x -> alpha x, far from the floor
    rng = Xoshiro256StarStar(11)
    x = np.array(rng.gauss_vector(32)) * 5.0
    base = wavelet_embed(make_window(x), dyadic(32))
    doubled = wavelet_embed(make_window(2.0 * x), dyadic(32))
    np.testing.assert_allclose(doubled - base, np.log(4.0), atol=1e-6)


def test_wavelet_embed_explicit_config(make_window):
    rng = Xoshiro256StarStar(13)
    x = np.array(rng.gauss_vector(20))
    cfg = CwtConfig((3.0, 6.0))
    out = wavelet_embed(make_window(x), cfg)
    coeffs = cwt(x, cfg)
    want = np.log(1e-12 + np.sum(np.abs(coeffs) ** 2, axis=1))
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_wavelet_embed_channel_major(make_window):
    rng = Xoshiro256StarStar(17)
    a = np.array(rng.gauss_vector(32))
    b = np.array(rng.gauss_vector(32))
    w = make_window(np.stack([a, b], axis=1))
    out = wavelet_embed(w, dyadic(32))
    k = len(default_scales(32))
    np.testing.assert_allclose(out[:k], wavelet_embed(make_window(a), dyadic(32)))
    np.testing.assert_allclose(out[k:], wavelet_embed(make_window(b), dyadic(32)))
