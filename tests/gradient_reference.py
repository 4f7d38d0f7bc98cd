"""Scalar oracles of the gradient-trained models' fast paths.

`gauss_vector` is Xoshiro256StarStar's per-value Gaussian loop, `adam_step`
the Adam update that allocates its temporaries, and `fit_logreg` the
logistic regression that computes the accepted step's softmax twice. Each
fast path in the package must reproduce these bit for bit.
"""

import numpy as np

from tsembed.embed_neural import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_STEP, softmax


def gauss_vector(rng, n):
    return [rng.gauss() for _ in range(n)]


def adam_step(params, grads, state, step=ADAM_STEP):
    state.t += 1
    t = state.t
    for layer, (gW, gb) in enumerate(grads):
        for slot, g in ((0, gW), (1, gb)):
            m = state.m[layer][slot]
            v = state.v[layer][slot]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1 ** t)
            v_hat = v / (1.0 - ADAM_BETA2 ** t)
            params[layer][slot][...] -= step * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def fit_logreg(data, l2=1e-4, max_iter=500, tol=1e-6, lr=0.5):
    """(W, b, iterations) of classify.fit_logreg on in-range params."""
    classes = np.unique(data.y)
    n, d = data.X.shape
    C = classes.shape[0]
    class_index = np.searchsorted(classes, data.y)
    onehot = np.zeros((n, C))
    onehot[np.arange(n), class_index] = 1.0

    W = np.zeros((C, d))
    b = np.zeros(C)

    def loss_of(W_, b_):
        probs = softmax(data.X @ W_.T + b_)
        ce = -np.mean(np.log(probs[np.arange(n), class_index] + 1e-300))
        return ce + l2 * np.sum(W_ * W_)

    current = loss_of(W, b)
    iters = 0
    while iters < max_iter:
        probs = softmax(data.X @ W.T + b)
        delta = (probs - onehot) / n
        gW = delta.T @ data.X + 2.0 * l2 * W
        gb = delta.sum(axis=0)
        grad_inf = max(np.max(np.abs(gW)), np.max(np.abs(gb)))
        if grad_inf < tol:
            break
        while True:
            W_new = W - lr * gW
            b_new = b - lr * gb
            new_loss = loss_of(W_new, b_new)
            if new_loss <= current or lr < 1e-12:
                break
            lr *= 0.5
        W, b, current = W_new, b_new, new_loss
        iters += 1
    return W, b, iters
