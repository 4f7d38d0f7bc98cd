import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwt_reference import matrix_cwt, matrix_wavelet_embed
from tsembed import embed_spectral
from tsembed.embed_spectral import (MAX_OMEGA0, MIN_SCALE, MORLET_OMEGA0, CwtConfig, cwt,
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
            assert fft_embed(np.zeros((0, tau, C))).shape == (0, C * (tau // 2 + 1))


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


def test_cwt_scale_floor():
    for bad in (1e-320, MIN_SCALE / 2, -2.0, float("nan")):
        with pytest.raises(ConfigError, match="scales must be >="):
            CwtConfig((bad, 2.0))
    out = cwt(np.arange(8.0), CwtConfig((MIN_SCALE, 2.0)))
    assert np.all(np.isfinite(out))


def test_cwt_omega0_range():
    for bad in (0.0, -6.0, MAX_OMEGA0 * 2, 1e308, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="omega0 must be > 0"):
            CwtConfig((2.0,), bad)
    # the largest omega0 at the smallest scale keeps every phase finite
    out = cwt(np.arange(64.0), CwtConfig((MIN_SCALE, 2.0, 32.0), MAX_OMEGA0))
    assert np.all(np.isfinite(out))


def test_cwt_stack_of_rows():
    rng = Xoshiro256StarStar(19)
    x = np.array(rng.gauss_vector(3 * 24)).reshape(3, 24)
    cfg = CwtConfig((1.5, 4.0))
    out = cwt(x, cfg)
    assert out.shape == (3, 2, 24)
    for row, coeffs in zip(x, out):
        assert coeffs.tobytes() == cwt(row, cfg).tobytes()
    with pytest.raises(ShapeError):
        cwt(x[:, :1], cfg)
    with pytest.raises(ShapeError):
        cwt(x[None], cfg)


@st.composite
def signals_and_scales(draw):
    """A (C, tau) stack of one kind of signal and scales from 0.1 to 4 tau."""
    tau = draw(st.integers(2, 300))
    C = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["gauss", "walk", "tone", "alternating", "spike", "constant"]))
    amplitude = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = np.arange(tau)
    if kind == "gauss":
        x = rng.standard_normal((C, tau))
    elif kind == "walk":
        x = np.cumsum(rng.standard_normal((C, tau)), axis=1)
    elif kind == "tone":
        x = np.cos(2 * np.pi * rng.uniform(0, 0.5, (C, 1)) * t + rng.uniform(0, 6, (C, 1)))
    elif kind == "alternating":
        x = np.tile((-1.0) ** t, (C, 1))
    elif kind == "spike":
        x = np.zeros((C, tau))
        x[:, rng.integers(0, tau)] = 1.0
    else:
        x = np.full((C, tau), rng.standard_normal())
    scales = draw(st.lists(st.floats(0.1, 4.0 * tau), min_size=1, max_size=4))
    return amplitude * x, CwtConfig(tuple(scales))


@settings(max_examples=200, deadline=None)
@given(case=signals_and_scales())
def test_fft_cwt_matches_direct_summation(case):
    x, cfg = case
    got = cwt(x, cfg)
    for row, coeffs in zip(x, got):
        want = matrix_cwt(row, cfg)
        err = np.max(np.abs(coeffs - want), axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1)), (err, cfg.scales)
    window = np.ascontiguousarray(x.T)
    logs, want_logs = wavelet_embed(window, cfg), matrix_wavelet_embed(window, cfg)
    np.testing.assert_allclose(logs, want_logs, rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("tau", [2, 3, 16, 64, 100, 256, 1024])
@pytest.mark.parametrize("C", [1, 2, 3])
def test_wavelet_embed_batch_is_its_windows_stacked(tau, C):
    rng = np.random.default_rng(tau * 10 + C)
    values = rng.standard_normal((5, tau, C))
    cfg = CwtConfig((0.5, 2.0, float(tau), 3.0 * tau))
    batch = wavelet_embed(values, cfg)
    assert batch.shape == (5, C * 4)
    stacked = np.stack([wavelet_embed(w, cfg) for w in values])
    assert batch.tobytes() == stacked.tobytes()
    assert batch[1:4].tobytes() == wavelet_embed(values[1:4], cfg).tobytes()


def test_wavelet_embed_in_blocks_is_its_windows_stacked(monkeypatch):
    values = np.random.default_rng(23).standard_normal((7, 64, 2))
    cfg = CwtConfig((2.0, 4.0, 8.0))
    whole = wavelet_embed(values, cfg)
    rows_per_call = []

    def counted(x, cfg):
        rows_per_call.append(len(x))
        return cwt(x, cfg)

    monkeypatch.setattr(embed_spectral, "_CWT_BLOCK", 5 * 3 * 64 + 1)
    monkeypatch.setattr(embed_spectral, "cwt", counted)
    assert wavelet_embed(values, cfg).tobytes() == whole.tobytes()
    assert rows_per_call == [5, 5, 4]
