"""Feedforward network engine, Adam optimizer, and the window autoencoder.

Everything here is plain numpy with explicit forward/backward passes so the
gradients can be finite-difference checked and training is bit-for-bit
reproducible from a seed. A NetworkSpec describes a stack of affine layers:
the hidden activation (relu or tanh) applies to every layer except the last,
whose activation is either linear or softmax.

Weights use He-style initialization, W_ij ~ N(0, 2 / fan_in), drawn layer by
layer, row-major, from the seeded stream; biases start at zero. Adam uses the
standard constants (step 1e-3, beta1 0.9, beta2 0.999, eps 1e-8) with bias
correction.

The autoencoder is two stacks: encoder tau*C -> 128 -> d and decoder
d -> 128 -> tau*C, relu on the 128-unit hidden layers, linear at the
bottleneck and the reconstruction. Training minimizes mean squared
reconstruction error over shuffled mini-batches; the shuffle order comes from
the same seeded stream, so identical (data, seed) gives identical weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data_io import open_text
from .errors import ConfigError, ParseError, ShapeError
from .preprocess import WindowBatch, flatten_windows
from .rng import Xoshiro256StarStar

ADAM_STEP = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
AE_HIDDEN = 128


@dataclass(frozen=True)
class NetworkSpec:
    layer_sizes: tuple[int, ...]
    hidden: str = "relu"      # relu | tanh
    output: str = "linear"    # linear | softmax

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ConfigError("a network needs at least input and output sizes")
        if any(s < 1 for s in self.layer_sizes):
            raise ConfigError(f"layer sizes must be positive, got {self.layer_sizes}")
        if self.hidden not in ("relu", "tanh"):
            raise ConfigError(f"unknown hidden activation {self.hidden!r}")
        if self.output not in ("linear", "softmax"):
            raise ConfigError(f"unknown output activation {self.output!r}")


Params = list[tuple[np.ndarray, np.ndarray]]  # per layer (W: out x in, b: out)


def init_network(spec: NetworkSpec, rng: Xoshiro256StarStar) -> Params:
    """He-style init; draw order is layer by layer, W row-major, then bias."""
    params: Params = []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        std = np.sqrt(2.0 / fan_in)
        W = rng.gauss_vector(fan_out * fan_in).reshape(fan_out, fan_in) * std
        b = np.zeros(fan_out)
        params.append((W, b))
    return params


def _hidden_act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _hidden_act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(float)
    t = np.tanh(z)
    return 1.0 - t * t


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def net_forward(spec: NetworkSpec, params: Params, X: np.ndarray):
    """Batch forward pass; returns (output, cache for backward)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.layer_sizes[0]:
        raise ShapeError(
            f"input shape {X.shape} does not match network input {spec.layer_sizes[0]}")
    activations = [X]
    pre = []
    a = X
    last = len(params) - 1
    for idx, (W, b) in enumerate(params):
        z = a @ W.T + b
        pre.append(z)
        if idx < last:
            a = _hidden_act(z, spec.hidden)
        else:
            a = softmax(z) if spec.output == "softmax" else z
        activations.append(a)
    return a, (pre, activations)


def net_backward(spec: NetworkSpec, params: Params, cache, loss_grad: np.ndarray):
    """Backpropagate from d(loss)/d(final affine output).

    loss_grad must be the gradient with respect to the last layer's affine
    output z_L: for a linear output that equals d(loss)/d(output); for a
    softmax output pass the collapsed softmax+cross-entropy gradient
    (probs - onehot) / batch. Returns (per-layer grads, d(loss)/d(input)).
    """
    pre, activations = cache
    grads: Params = []
    delta = np.asarray(loss_grad, dtype=float)
    for idx in range(len(params) - 1, -1, -1):
        W, _ = params[idx]
        a_prev = activations[idx]
        gW = delta.T @ a_prev
        gb = delta.sum(axis=0)
        grads.append((gW, gb))
        delta = delta @ W
        if idx > 0:
            delta = delta * _hidden_act_grad(pre[idx - 1], spec.hidden)
    grads.reverse()
    return grads, delta


@dataclass
class AdamState:
    t: int
    m: Params
    v: Params
    scratch: np.ndarray  # two rows as long as the largest parameter, reused each step

    @staticmethod
    def zeros_like(params: Params) -> "AdamState":
        m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        largest = max(p.size for layer in params for p in layer)
        return AdamState(0, m, v, np.empty((2, largest)))


def adam_step(params: Params, grads: Params, state: AdamState,
              step: float = ADAM_STEP) -> None:
    """One in-place Adam update over all parameters:
    p -= (step * m_hat) / (sqrt(v_hat) + eps), computed in state.scratch."""
    state.t += 1
    m_scale = 1.0 - ADAM_BETA1 ** state.t
    v_scale = 1.0 - ADAM_BETA2 ** state.t
    for layer, (gW, gb) in enumerate(grads):
        for slot, g in ((0, gW), (1, gb)):
            m = state.m[layer][slot]
            v = state.v[layer][slot]
            num = state.scratch[0, :g.size].reshape(g.shape)
            den = state.scratch[1, :g.size].reshape(g.shape)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=num)
            v *= ADAM_BETA2
            np.multiply(g, g, out=num)
            v += np.multiply(1.0 - ADAM_BETA2, num, out=num)
            np.divide(m, m_scale, out=num)
            num *= step
            np.divide(v, v_scale, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            params[layer][slot][...] -= num


@dataclass
class AutoencoderModel:
    encoder_spec: NetworkSpec
    decoder_spec: NetworkSpec
    encoder: Params
    decoder: Params
    loss_log: list[float]


def _full_loss(model: AutoencoderModel, X: np.ndarray) -> float:
    h, _ = net_forward(model.encoder_spec, model.encoder, X)
    recon, _ = net_forward(model.decoder_spec, model.decoder, h)
    diff = recon - X
    return float(np.mean(np.sum(diff * diff, axis=1)))


def ae_train(windows: WindowBatch, d: int, epochs: int = 100, batch: int = 64,
             seed: int = 0) -> AutoencoderModel:
    """Train the autoencoder on flattened windows (channel-major layout)."""
    X = flatten_windows(windows)
    n, n_features = X.shape
    if not 1 <= d < n_features:
        raise ConfigError(
            f"bottleneck must satisfy 1 <= d < flattened size {n_features}, got {d}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if batch < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch}")

    enc_spec = NetworkSpec((n_features, AE_HIDDEN, d), hidden="relu", output="linear")
    dec_spec = NetworkSpec((d, AE_HIDDEN, n_features), hidden="relu", output="linear")
    rng = Xoshiro256StarStar(seed)
    encoder = init_network(enc_spec, rng)
    decoder = init_network(dec_spec, rng)
    model = AutoencoderModel(enc_spec, dec_spec, encoder, decoder, [])

    state_enc = AdamState.zeros_like(encoder)
    state_dec = AdamState.zeros_like(decoder)
    indices = list(range(n))
    for _ in range(epochs):
        rng.shuffle(indices)
        for lo in range(0, n, batch):
            chunk = indices[lo:lo + batch]
            Xb = X[chunk]
            h, enc_cache = net_forward(enc_spec, encoder, Xb)
            recon, dec_cache = net_forward(dec_spec, decoder, h)
            # L = mean over batch of ||x - recon||^2
            loss_grad = 2.0 * (recon - Xb) / Xb.shape[0]
            dec_grads, dh = net_backward(dec_spec, decoder, dec_cache, loss_grad)
            enc_grads, _ = net_backward(enc_spec, encoder, enc_cache, dh)
            adam_step(decoder, dec_grads, state_dec)
            adam_step(encoder, enc_grads, state_enc)
        model.loss_log.append(_full_loss(model, X))
    return model


def ae_embed(model: AutoencoderModel, windows: WindowBatch) -> np.ndarray:
    """Bottleneck activations for a batch of windows."""
    X = flatten_windows(windows)
    h, _ = net_forward(model.encoder_spec, model.encoder, X)
    return h


CHECKPOINT_FORMAT = "tsembed-ae-checkpoint-v1"


def save_checkpoint(model: AutoencoderModel, path: str) -> None:
    """JSON checkpoint; float values round-trip exactly via repr."""
    def pack(params: Params):
        return [[W.tolist(), b.tolist()] for W, b in params]

    payload = {
        "format": CHECKPOINT_FORMAT,
        "encoder_spec": {"layer_sizes": list(model.encoder_spec.layer_sizes),
                         "hidden": model.encoder_spec.hidden,
                         "output": model.encoder_spec.output},
        "decoder_spec": {"layer_sizes": list(model.decoder_spec.layer_sizes),
                         "hidden": model.decoder_spec.hidden,
                         "output": model.decoder_spec.output},
        "encoder": pack(model.encoder),
        "decoder": pack(model.decoder),
        "loss_log": model.loss_log,
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


def load_checkpoint(path: str) -> AutoencoderModel:
    """A model saved by save_checkpoint; ParseError naming the path if the
    file holds none, ConfigError if it names another format."""
    def unpack(raw) -> Params:
        return [(np.array(W), np.array(b)) for W, b in raw]

    def spec_of(raw) -> NetworkSpec:
        return NetworkSpec(tuple(raw["layer_sizes"]), raw["hidden"], raw["output"])

    try:
        with open_text(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ParseError(f"{path}: checkpoint root must be a JSON object")
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {payload.get('format')!r}")
        return AutoencoderModel(
            spec_of(payload["encoder_spec"]), spec_of(payload["decoder_spec"]),
            unpack(payload["encoder"]), unpack(payload["decoder"]),
            list(payload["loss_log"]),
        )
    except (KeyError, TypeError, ValueError) as e:  # json.JSONDecodeError is a ValueError
        raise ParseError(f"{path}: not a checkpoint ({type(e).__name__}: {e})") from None
