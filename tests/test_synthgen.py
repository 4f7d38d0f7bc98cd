import numpy as np
import pytest

from tsembed.classify import LabeledMatrix, accuracy, fit_knn, predict
from tsembed.embed_spectral import fft_embed
from tsembed.errors import ConfigError
from tsembed.synthgen import SYNTH_KINDS, SynthSpec, generate


def test_kinds_registered():
    assert SYNTH_KINDS == ("tones", "trends", "statebursts")


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(kind="chirps")
    with pytest.raises(ConfigError):
        SynthSpec(kind="tones", classes=1)
    with pytest.raises(ConfigError):
        SynthSpec(kind="tones", tau=4)
    with pytest.raises(ConfigError):
        SynthSpec(kind="tones", n_per_class=0)
    with pytest.raises(ConfigError):
        SynthSpec(kind="tones", channels=0)
    with pytest.raises(ConfigError):
        SynthSpec(kind="tones", noise_sigma=-0.1)


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_generated_shape_and_metadata(kind):
    spec = SynthSpec(kind=kind, classes=3, n_per_class=4, tau=32, channels=2)
    ds = generate(spec)
    assert len(ds.series) == 12
    assert ds.n_channels == 2
    assert list(ds.label_alphabet) == ["0", "1", "2"]
    ids = {r.series_id for r in ds.series}
    assert len(ids) == 12
    for rec in ds.series:
        assert rec.values.shape == (32, 2)
        assert rec.labels.shape == (32,)
        assert np.unique(rec.labels).shape == (1,)
        # one series per group: splits can never leak a series across sets
        assert rec.group == rec.series_id


def test_labels_cover_all_classes():
    ds = generate(SynthSpec(kind="tones", classes=4, n_per_class=2, tau=16))
    labels = sorted({int(r.labels[0]) for r in ds.series})
    assert labels == [0, 1, 2, 3]


def test_deterministic_per_spec():
    spec = SynthSpec(kind="statebursts", n_per_class=5, tau=32, seed=9)
    d1, d2 = generate(spec), generate(spec)
    for r1, r2 in zip(d1.series, d2.series):
        assert r1.series_id == r2.series_id
        np.testing.assert_array_equal(r1.values, r2.values)


def test_seed_and_kind_change_the_stream():
    base = SynthSpec(kind="tones", n_per_class=3, tau=16, seed=1)
    other_seed = SynthSpec(kind="tones", n_per_class=3, tau=16, seed=2)
    assert not np.array_equal(generate(base).series[0].values,
                              generate(other_seed).series[0].values)


def test_noise_sigma_zero_is_clean():
    ds = generate(SynthSpec(kind="tones", n_per_class=2, tau=64,
                            noise_sigma=0.0))
    x = ds.series[0].values[:, 0]
    # a pure sinusoid has amplitude 1 and mean ~0
    assert np.abs(x).max() <= 1.0 + 1e-9
    assert abs(x.mean()) < 0.05


def test_tone_classes_separable_by_spectrum():
    ds = generate(SynthSpec(kind="tones", classes=2, n_per_class=30, tau=64,
                            noise_sigma=0.2, seed=3))
    X = fft_embed(np.array([rec.values for rec in ds.series]))
    y = np.array([rec.labels[0] for rec in ds.series], dtype=np.int64)
    train = LabeledMatrix(X[::2], y[::2])
    model = fit_knn(train, k=1)
    assert accuracy(predict(model, X[1::2]), y[1::2]) >= 0.95


def test_trends_grow_with_class_index():
    ds = generate(SynthSpec(kind="trends", classes=3, n_per_class=20, tau=64,
                            noise_sigma=0.0, seed=4))
    mean_step = {}
    for rec in ds.series:
        cls = int(rec.labels[0])
        steps = np.abs(np.diff(rec.values[:, 0]))
        mean_step.setdefault(cls, []).append(steps.mean())
    m = [np.mean(mean_step[c]) for c in range(3)]
    assert m[0] < m[1] < m[2]


def test_bursts_width_scales_with_class():
    ds = generate(SynthSpec(kind="statebursts", classes=2, n_per_class=30,
                            tau=64, noise_sigma=0.0, seed=5))
    # wider bumps concentrate energy at lower frequencies
    def low_freq_share(rec):
        mags = np.abs(np.fft.rfft(rec.values[:, 0]))
        power = mags ** 2
        return power[:4].sum() / max(power.sum(), 1e-12)

    shares = {0: [], 1: []}
    for rec in ds.series:
        shares[int(rec.labels[0])].append(low_freq_share(rec))
    assert np.mean(shares[1]) > np.mean(shares[0])
