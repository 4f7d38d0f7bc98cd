import json

import numpy as np
import pytest

import gradient_reference
from batches import window_batch
from tsembed import embed_neural
from tsembed.embed_neural import (ADAM_EPS, ADAM_STEP, AdamState,
                                  AutoencoderModel, NetworkSpec, adam_step,
                                  ae_embed, ae_train,
                                  init_network, load_checkpoint, net_backward,
                                  net_forward, save_checkpoint, softmax)
from tsembed.errors import ConfigError, ParseError, ShapeError
from tsembed.rng import Xoshiro256StarStar

FD_H = 1e-5


def fd_tolerance(a, n):
    return 1e-4 * (1.0 + max(abs(a), abs(n)))


def mse_loss_and_grad(spec, params, X, Y):
    out, cache = net_forward(spec, params, X)
    diff = out - Y
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    return loss, cache, 2.0 * diff / X.shape[0]


def ce_loss_and_grad(spec, params, X, y):
    probs, cache = net_forward(spec, params, X)
    n = X.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    return loss, cache, (probs - onehot) / n


def make_problem(hidden, output, seed):
    spec = NetworkSpec((3, 4, 2), hidden=hidden, output=output)
    rng = Xoshiro256StarStar(seed)
    params = init_network(spec, rng)
    X = np.array(rng.gauss_vector(5 * 3)).reshape(5, 3)
    return spec, params, X, rng


def check_param_gradients(spec, params, loss_of_params, analytic):
    for layer, (W, b) in enumerate(params):
        for arr, ga in ((W, analytic[layer][0]), (b, analytic[layer][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + FD_H
                up = loss_of_params()
                arr[idx] = orig - FD_H
                down = loss_of_params()
                arr[idx] = orig
                num = (up - down) / (2 * FD_H)
                assert abs(ga[idx] - num) <= fd_tolerance(ga[idx], num), \
                    (layer, idx, ga[idx], num)


# ------------------------------------------------------------ forward

def test_forward_linear_identity_network():
    spec = NetworkSpec((2, 2), hidden="relu", output="linear")
    params = [(np.eye(2), np.array([1.0, -1.0]))]
    out, _ = net_forward(spec, params, np.array([[3.0, 5.0]]))
    np.testing.assert_allclose(out, [[4.0, 4.0]])


def test_forward_relu_clips_hidden():
    spec = NetworkSpec((1, 2, 1), hidden="relu", output="linear")
    params = [(np.array([[1.0], [-1.0]]), np.zeros(2)),
              (np.array([[1.0, 1.0]]), np.zeros(1))]
    # x=2 -> hidden (2, 0) -> out 2; x=-3 -> hidden (0, 3) -> out 3
    out, _ = net_forward(spec, params, np.array([[2.0], [-3.0]]))
    np.testing.assert_allclose(out, [[2.0], [3.0]])


def test_forward_softmax_rows_sum_to_one():
    spec, params, X, _ = make_problem("tanh", "softmax", 50)
    out, _ = net_forward(spec, params, X)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(out > 0)


def test_softmax_shift_invariant_and_stable():
    z = np.array([[1000.0, 1001.0]])
    p = softmax(z)
    np.testing.assert_allclose(p, softmax(z - 1000.0), atol=1e-12)
    assert np.isfinite(p).all()


def test_forward_rejects_wrong_width():
    spec, params, _, _ = make_problem("relu", "linear", 51)
    with pytest.raises(ShapeError):
        net_forward(spec, params, np.ones((4, 7)))


def test_spec_validation():
    with pytest.raises(ConfigError):
        NetworkSpec((3,))
    with pytest.raises(ConfigError):
        NetworkSpec((3, 0, 2))
    with pytest.raises(ConfigError):
        NetworkSpec((3, 2), hidden="gelu")
    with pytest.raises(ConfigError):
        NetworkSpec((3, 2), output="sigmoid")


def test_init_statistics_and_determinism():
    spec = NetworkSpec((50, 40, 30))
    p1 = init_network(spec, Xoshiro256StarStar(9))
    p2 = init_network(spec, Xoshiro256StarStar(9))
    for (W1, b1), (W2, b2) in zip(p1, p2):
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(b1, b2)
        assert not b1.any()
    W = p1[0][0]
    assert W.shape == (40, 50)
    assert W.std() == pytest.approx(np.sqrt(2.0 / 50), rel=0.15)


# ------------------------------------------------------------ gradients

@pytest.mark.parametrize("hidden", ["relu", "tanh"])
def test_gradcheck_mse(hidden):
    spec, params, X, rng = make_problem(hidden, "linear", 52)
    Y = np.array(rng.gauss_vector(5 * 2)).reshape(5, 2)
    if hidden == "relu":
        # stay away from the relu kink so central differences are valid
        _, (pre, _) = net_forward(spec, params, X)
        assert np.abs(pre[0]).min() > 1e-3

    def loss_of_params():
        return mse_loss_and_grad(spec, params, X, Y)[0]

    _, cache, lg = mse_loss_and_grad(spec, params, X, Y)
    grads, _ = net_backward(spec, params, cache, lg)
    check_param_gradients(spec, params, loss_of_params, grads)


@pytest.mark.parametrize("hidden", ["relu", "tanh"])
def test_gradcheck_softmax_cross_entropy(hidden):
    spec, params, X, _ = make_problem(hidden, "softmax", 53)
    y = np.array([0, 1, 0, 1, 1])
    if hidden == "relu":
        _, (pre, _) = net_forward(spec, params, X)
        assert np.abs(pre[0]).min() > 1e-3

    def loss_of_params():
        return ce_loss_and_grad(spec, params, X, y)[0]

    _, cache, lg = ce_loss_and_grad(spec, params, X, y)
    grads, _ = net_backward(spec, params, cache, lg)
    check_param_gradients(spec, params, loss_of_params, grads)


def test_gradcheck_input_gradient():
    spec, params, X, rng = make_problem("tanh", "linear", 54)
    Y = np.array(rng.gauss_vector(5 * 2)).reshape(5, 2)
    _, cache, lg = mse_loss_and_grad(spec, params, X, Y)
    _, input_grad = net_backward(spec, params, cache, lg)
    assert input_grad.shape == X.shape
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            orig = X[i, j]
            X[i, j] = orig + FD_H
            up = mse_loss_and_grad(spec, params, X, Y)[0]
            X[i, j] = orig - FD_H
            down = mse_loss_and_grad(spec, params, X, Y)[0]
            X[i, j] = orig
            num = (up - down) / (2 * FD_H)
            assert abs(input_grad[i, j] - num) <= fd_tolerance(input_grad[i, j], num)


# ------------------------------------------------------------ adam

def test_adam_first_step_is_signed_step():
    params = [(np.array([[1.0, -2.0]]), np.array([0.5]))]
    grads = [(np.array([[0.3, -0.2]]), np.array([0.01]))]
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state)
    # after bias correction the first update is step * g / (|g| + eps)
    expected_W = np.array([[1.0 - ADAM_STEP * 0.3 / (0.3 + ADAM_EPS),
                            -2.0 + ADAM_STEP * 0.2 / (0.2 + ADAM_EPS)]])
    np.testing.assert_allclose(params[0][0], expected_W, atol=1e-12)
    assert params[0][1][0] == pytest.approx(0.5 - ADAM_STEP * 0.01 / (0.01 + ADAM_EPS))
    assert state.t == 1


def test_adam_updates_in_place_and_converges_on_quadratic():
    # minimize (w - 3)^2 with exact gradients
    params = [(np.array([[0.0]]), np.zeros(1))]
    ref = params[0][0]
    state = AdamState.zeros_like(params)
    for _ in range(8000):
        g = 2.0 * (params[0][0] - 3.0)
        adam_step(params, [(g, np.zeros(1))], state)
    assert params[0][0] is ref
    assert params[0][0][0, 0] == pytest.approx(3.0, abs=1e-2)


def test_adam_step_matches_the_allocating_reference():
    rng = Xoshiro256StarStar(40)
    shapes = [((5, 3), (5,)), ((2, 5), (2,))]
    params = [(rng.gauss_vector(w[0] * w[1]).reshape(w), rng.gauss_vector(b[0]))
              for w, b in shapes]
    ref_params = [(W.copy(), b.copy()) for W, b in params]
    state, ref_state = AdamState.zeros_like(params), AdamState.zeros_like(ref_params)
    for step in range(40):
        grads = [(rng.gauss_vector(W.size).reshape(W.shape) * 10.0 ** (step % 5 - 2),
                  rng.gauss_vector(b.size)) for W, b in params]
        adam_step(params, grads, state)
        gradient_reference.adam_step(ref_params, grads, ref_state)
        for got, want in zip(params + state.m + state.v,
                             ref_params + ref_state.m + ref_state.v):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
    assert state.t == ref_state.t == 40


# ------------------------------------------------------------ autoencoder

def planar_windows(n=60, tau=8, channels=2, seed=6):
    """Windows whose flattened values lie on a 2-D linear subspace."""
    rng = Xoshiro256StarStar(seed)
    basis = np.array(rng.gauss_vector(2 * tau * channels)).reshape(2, -1)
    out = []
    for _ in range(n):
        z = np.array(rng.gauss_vector(2))
        flat = z @ basis
        out.append(flat.reshape(channels, tau).T)  # channel-major layout
    return window_batch(out)


def test_ae_train_reduces_loss():
    windows = planar_windows()
    model = ae_train(windows, d=2, epochs=40, batch=16, seed=3)
    assert len(model.loss_log) == 40
    assert model.loss_log[-1] < 0.5 * model.loss_log[0]
    assert np.mean(model.loss_log[-10:]) <= model.loss_log[0]


def test_ae_train_deterministic():
    windows = planar_windows(n=30)
    m1 = ae_train(windows, d=2, epochs=5, batch=8, seed=11)
    m2 = ae_train(windows, d=2, epochs=5, batch=8, seed=11)
    assert m1.loss_log == m2.loss_log
    for (W1, b1), (W2, b2) in zip(m1.encoder + m1.decoder,
                                  m2.encoder + m2.decoder):
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(b1, b2)
    m3 = ae_train(windows, d=2, epochs=5, batch=8, seed=12)
    assert m3.loss_log != m1.loss_log


def test_ae_zero_epochs_is_init_only():
    windows = planar_windows(n=10)
    model = ae_train(windows, d=2, epochs=0, seed=4)
    assert model.loss_log == []
    rng = Xoshiro256StarStar(4)
    for spec, got in ((model.encoder_spec, model.encoder),
                      (model.decoder_spec, model.decoder)):
        expect = init_network(spec, rng)
        for (W1, b1), (W2, b2) in zip(expect, got):
            np.testing.assert_array_equal(W1, W2)
            np.testing.assert_array_equal(b1, b2)


def test_ae_embed_and_reconstruct_shapes():
    windows = planar_windows(n=12, tau=8, channels=2)
    model = ae_train(windows, d=3, epochs=2, seed=5)
    emb = ae_embed(model, windows)
    assert emb.shape == (12, 3)
    recon, _ = net_forward(model.decoder_spec, model.decoder, emb)
    assert recon.shape == (12, 16)


def test_ae_parameter_validation():
    windows = planar_windows(n=6, tau=4, channels=1)
    with pytest.raises(ConfigError):
        ae_train(windows, d=0)
    with pytest.raises(ConfigError):
        ae_train(windows, d=4)   # must be < flattened size
    with pytest.raises(ConfigError):
        ae_train(windows, d=2, epochs=-1)
    with pytest.raises(ConfigError):
        ae_train(windows, d=2, batch=0)
    with pytest.raises(ShapeError):
        ae_train(window_batch(np.empty((0, 4, 1))), d=2)


# ------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip_exact(tmp_path):
    windows = planar_windows(n=15)
    model = ae_train(windows, d=2, epochs=3, seed=8)
    path = tmp_path / "ae.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.encoder_spec == model.encoder_spec
    assert loaded.decoder_spec == model.decoder_spec
    assert loaded.loss_log == model.loss_log
    for (W1, b1), (W2, b2) in zip(model.encoder + model.decoder,
                                  loaded.encoder + loaded.decoder):
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(b1, b2)
    np.testing.assert_array_equal(ae_embed(model, windows),
                                  ae_embed(loaded, windows))
    payload = json.loads(path.read_text())
    assert payload["format"] == "tsembed-ae-checkpoint-v1"


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other-v9"}))
    with pytest.raises(ConfigError):
        load_checkpoint(path)


@pytest.mark.parametrize("content", [
    b'{"format": "caf\xe9"}',  # not UTF-8
    b'{"format": ',  # not JSON
    json.dumps({"format": "tsembed-ae-checkpoint-v1"}).encode(),  # no encoder_spec
    b'["tsembed-ae-checkpoint-v1"]',  # a list root
])
def test_checkpoint_malformed_file_is_parse_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="bad.json"):
        load_checkpoint(path)


def test_checkpoint_unwritable_path_is_config_error(tmp_path):
    model = ae_train(planar_windows(n=15), d=2, epochs=1, seed=8)
    with pytest.raises(ConfigError, match="cannot write"):
        save_checkpoint(model, tmp_path / "missing" / "ae.json")


@pytest.mark.parametrize("tau,channels", [(8, 2), (64, 1)])
def test_ae_checkpoint_matches_reference_init_and_adam(tmp_path, monkeypatch, tau, channels):
    # tau 64 puts the encoder's 64 x 128 weights past rng.BULK_MIN_DRAWS
    windows = planar_windows(n=20, tau=tau, channels=channels)
    save_checkpoint(ae_train(windows, d=3, epochs=4, batch=8, seed=12), tmp_path / "fast.json")
    monkeypatch.setattr(Xoshiro256StarStar, "gauss_vector",
                        lambda rng, n: np.array(gradient_reference.gauss_vector(rng, n)))
    monkeypatch.setattr(embed_neural, "adam_step", gradient_reference.adam_step)
    save_checkpoint(ae_train(windows, d=3, epochs=4, batch=8, seed=12), tmp_path / "ref.json")
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
