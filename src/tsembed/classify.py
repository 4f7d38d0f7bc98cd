"""Six classifiers over embedded windows, with pinned tie-breaking.

Determinism is part of every contract here: distance ties in KNN go to the
lower training index and vote ties to the smallest class id; decision-tree
split ties go to the lowest feature index, then the lowest threshold; forest
vote ties go to the smallest class id; Gaussian naive Bayes floors variances
at 1e-9; logistic regression is full-batch gradient descent with a fixed
deterministic step schedule. The MLP rides on the seeded feedforward engine.

Tree split search costs one stable sort per candidate feature per node; the
Gini gains of all cuts come from class-count cumsums as array expressions,
with the same float operations in the same order as a per-cut loop, so splits
are bit-identical to it. Features are processed in blocks of at most about 1M
(rows x features x classes) elements, which bounds the memory of a node.

KNN prediction takes its neighbours from numcore.nearest_neighbors: a BLAS
estimate of all squared distances per block of queries, a rigorous error
margin around the k-th smallest, and exact re-ranking of the candidates, which
reproduces the per-query loop (distance, then training index) bit for bit.

fit(kind, data, params) dispatches on kind in {"knn", "gnb", "logreg",
"tree", "forest", "mlp"}; unknown kinds and unknown or out-of-range
parameters raise ConfigError. predict(model, X) accepts any fitted model.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .embed_neural import (NetworkSpec, AdamState, adam_step, init_network,
                           net_backward, net_forward, softmax)
from .errors import ConfigError, NumericError, ShapeError
from .numcore import nearest_neighbors
from .rng import Xoshiro256StarStar, derive_seed

TREE_MAX_DEPTH = 12  # tree and forest defaults
TREE_MIN_LEAF = 1
SPLIT_BLOCK_ELEMENTS = 1 << 20   # cap on n * features * classes per block


@dataclass(frozen=True)
class LabeledMatrix:
    """Feature rows with integer labels >= 0."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1:
            raise ShapeError(f"expected (n, d) features and (n,) labels, got "
                             f"{self.X.shape} and {self.y.shape}")
        if self.X.shape[0] != self.y.shape[0]:
            raise ShapeError("feature and label counts differ")
        if self.X.shape[0] < 1:
            raise ShapeError("need at least one sample")
        if not np.all(np.isfinite(self.X)):
            raise ShapeError("features contain NaN or Inf")
        if not np.issubdtype(self.y.dtype, np.integer) or self.y.min() < 0:
            raise ShapeError("labels must be nonnegative integers")


def _check_features(X: np.ndarray, d: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != d:
        raise ShapeError(f"input shape {X.shape} does not match model dimension {d}")
    return X


@dataclass
class KnnModel:
    train_X: np.ndarray
    train_y: np.ndarray
    k: int


@dataclass
class GnbModel:
    classes: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_priors: np.ndarray


@dataclass
class LogRegModel:
    classes: np.ndarray
    W: np.ndarray
    b: np.ndarray
    n_iters: int


@dataclass
class TreeNode:
    feature: int = -1           # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    label: int = 0


@dataclass
class TreeModel:
    root: TreeNode
    n_features: int


@dataclass
class ForestModel:
    trees: list[TreeModel] = field(default_factory=list)
    n_features: int = 0
    n_classes: int = 0


@dataclass
class MlpModel:
    classes: np.ndarray
    spec: NetworkSpec
    params: list


# ---------------------------------------------------------------- knn

def fit_knn(data: LabeledMatrix, k: int = 5) -> KnnModel:
    check_ranges("knn", {"k": k})
    if k > data.X.shape[0]:
        raise ConfigError(f"knn k={k} exceeds training size {data.X.shape[0]}")
    return KnnModel(data.X.astype(float).copy(), data.y.copy(), k)


def _predict_knn(model: KnnModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(X, model.train_X.shape[1])
    nbrs, _ = nearest_neighbors(X, model.train_X, model.k)
    n_classes = int(model.train_y.max()) + 1
    labels = model.train_y[nbrs] + n_classes * np.arange(X.shape[0])[:, None]
    votes = np.bincount(labels.ravel(), minlength=X.shape[0] * n_classes)
    # first max = smallest class id
    return np.argmax(votes.reshape(-1, n_classes), axis=1).astype(np.int64)


# ---------------------------------------------------------------- gnb

def fit_gnb(data: LabeledMatrix, var_floor: float = 1e-9) -> GnbModel:
    check_ranges("gnb", {"var_floor": var_floor})
    classes = np.unique(data.y)
    means = np.stack([data.X[data.y == c].mean(axis=0) for c in classes])
    variances = np.stack([
        np.maximum(data.X[data.y == c].var(axis=0), var_floor) for c in classes])
    with np.errstate(over="ignore"):  # log(2 pi var), the likelihood's normaliser
        if not np.isfinite(2.0 * np.pi * variances).all():
            raise NumericError(f"gnb: 2*pi*variance overflows (var_floor {var_floor!r})")
    priors = np.array([(data.y == c).sum() for c in classes], dtype=float)
    priors /= priors.sum()
    return GnbModel(classes, means, variances, np.log(priors))


def _predict_gnb(model: GnbModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(X, model.means.shape[1])
    diff = X[:, None, :] - model.means[None, :, :]
    log_like = -0.5 * np.sum(
        np.log(2.0 * np.pi * model.variances)[None, :, :]
        + diff * diff / model.variances[None, :, :], axis=2)
    joint = log_like + model.log_priors[None, :]
    return model.classes[np.argmax(joint, axis=1)]


# ---------------------------------------------------------------- logreg

def _onehot(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted classes of y, each row's index among them, one-hot rows."""
    classes = np.unique(y)
    class_index = np.searchsorted(classes, y)
    onehot = np.zeros((y.shape[0], classes.shape[0]))
    onehot[np.arange(y.shape[0]), class_index] = 1.0
    return classes, class_index, onehot


def fit_logreg(data: LabeledMatrix, l2: float = 1e-4,
               max_iter: int = 500, tol: float = 1e-6,
               lr: float = 0.5) -> LogRegModel:
    """Softmax regression by full-batch gradient descent.

    The loss is mean cross-entropy plus l2 * ||W||^2 (bias unregularized).
    The step starts at lr and halves whenever a step would increase the loss,
    which keeps the trajectory deterministic without tuning.
    """
    # a NaN or infinite step never shrinks below the floor of the halving loop
    if not all(math.isfinite(v) for v in (l2, tol, lr)):
        raise ConfigError("logreg l2, tol and lr must be finite")
    check_ranges("logreg", {"l2": l2, "max_iter": max_iter, "tol": tol, "lr": lr})
    classes, class_index, onehot = _onehot(data.y)
    n, d = data.X.shape
    W = np.zeros((classes.shape[0], d))
    b = np.zeros(classes.shape[0])

    def loss_of(W_, b_):
        """(loss, softmax probabilities) at (W_, b_)."""
        probs = softmax(data.X @ W_.T + b_)
        ce = -np.mean(np.log(probs[np.arange(n), class_index] + 1e-300))
        return ce + l2 * np.sum(W_ * W_), probs

    current, probs = loss_of(W, b)
    iters = 0
    # a trial step may overflow: its loss is then inf or NaN and the step halves
    with np.errstate(over="ignore", invalid="ignore"):
        while iters < max_iter:
            delta = (probs - onehot) / n
            gW = delta.T @ data.X + 2.0 * l2 * W
            gb = delta.sum(axis=0)
            grad_inf = max(np.max(np.abs(gW)), np.max(np.abs(gb)))
            if grad_inf < tol:
                break
            while True:
                W_new = W - lr * gW
                b_new = b - lr * gb
                new_loss, new_probs = loss_of(W_new, b_new)
                if new_loss <= current or lr < 1e-12:
                    break
                lr *= 0.5
            W, b, current, probs = W_new, b_new, new_loss, new_probs
            iters += 1
            if not (math.isfinite(current) and np.isfinite(W).all() and np.isfinite(b).all()):
                raise NumericError(f"logreg diverged at step {iters}: loss {current}")
    return LogRegModel(classes, W, b, iters)


def _predict_logreg(model: LogRegModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(X, model.W.shape[1])
    scores = X @ model.W.T + model.b
    return model.classes[np.argmax(scores, axis=1)]


# ---------------------------------------------------------------- tree

def _gini_from_counts(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray,
               min_leaf: int) -> tuple[int, float, float]:
    """Best (feature, threshold, gain) by Gini gain over midpoint candidates.

    Features are scanned in the given order and thresholds ascending; only a
    strictly larger gain replaces the incumbent, so exact ties resolve to the
    lowest feature index, then the lowest threshold. Zero-gain splits are
    reported (gain is never negative for Gini); the caller decides whether to
    take them.
    """
    n = y.shape[0]
    n_classes = int(y.max()) + 1
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_gini = _gini_from_counts(parent_counts, n)
    best = (-1, 0.0, -1.0)
    # cut i puts sorted rows 0..i on the left
    n_left = np.arange(1, n)
    n_right = n - n_left
    size_ok = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not size_ok.any():
        return best
    features = np.asarray(features)
    classes = np.arange(n_classes)
    block = max(1, SPLIT_BLOCK_ELEMENTS // (n * n_classes))
    for lo in range(0, features.shape[0], block):
        fs = features[lo:lo + block]
        cols = X[:, fs]
        order = np.argsort(cols, axis=0, kind="stable")
        vals = np.take_along_axis(cols, order, axis=0)
        # (cut, feature, class) with the class axis contiguous, so each
        # per-cut class sum runs the same reduction as the 1-D np.sum
        left = np.cumsum(y[order[:-1]][:, :, None] == classes, axis=0, dtype=float)
        right = parent_counts - left
        gini_left = 1.0 - _sum_sq_ratio(left, n_left)
        gini_right = 1.0 - _sum_sq_ratio(right, n_right)
        gain = parent_gini - (n_left / n)[:, None] * gini_left \
            - (n_right / n)[:, None] * gini_right
        valid = (vals[:-1] < vals[1:]) & size_ok[:, None]
        gain[~valid] = -np.inf
        cut = np.argmax(gain, axis=0)          # first max: lowest threshold
        cut_gain = gain[cut, np.arange(fs.shape[0])]
        j = int(np.argmax(cut_gain))           # first max: lowest feature
        if cut_gain[j] > best[2]:
            i = cut[j]
            best = (int(fs[j]), float((vals[i, j] + vals[i + 1, j]) / 2.0),
                    float(cut_gain[j]))
    return best


def _sum_sq_ratio(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """sum_c (counts / totals)^2 per (cut, feature), reusing counts' buffer."""
    p = np.divide(counts, totals[:, None, None], out=counts)
    return np.sum(np.multiply(p, p, out=p), axis=2)


def _majority(y: np.ndarray) -> int:
    return int(np.argmax(np.bincount(y)))


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int,
               rng: Xoshiro256StarStar | None, max_features: int | None) -> TreeNode:
    """Nodes in preorder, each left subtree before its right sibling (the order
    of the forest's feature draws), from a stack: depth is not recursion-bound."""
    root = TreeNode()
    stack = [(root, X, y, 0)]
    while stack:
        node, X, y, depth = stack.pop()
        f = -1
        if depth < max_depth and np.unique(y).shape[0] > 1:
            d = X.shape[1]
            if max_features is not None and max_features < d:
                features = np.array(sorted(rng.sample_indices(d, max_features)))
            else:
                features = np.arange(d)
            f, thr, _ = best_split(X, y, features, min_leaf)
        if f < 0:
            node.label = _majority(y)
            continue
        # zero-gain splits are taken on impure nodes: parity-style interactions
        # (e.g. XOR) only pay off a level deeper
        mask = X[:, f] <= thr
        node.feature, node.threshold = f, thr
        node.left, node.right = TreeNode(), TreeNode()
        stack += [(node.right, X[~mask], y[~mask], depth + 1),
                  (node.left, X[mask], y[mask], depth + 1)]
    return root


def fit_tree(data: LabeledMatrix, max_depth: int = TREE_MAX_DEPTH,
             min_leaf: int = TREE_MIN_LEAF) -> TreeModel:
    check_ranges("tree", {"max_depth": max_depth, "min_leaf": min_leaf})
    root = _grow_tree(data.X.astype(float), data.y, max_depth, min_leaf, None, None)
    return TreeModel(root, data.X.shape[1])


def _tree_predict_one(node: TreeNode, x: np.ndarray) -> int:
    while node.feature >= 0:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.label


def _predict_tree(model: TreeModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(X, model.n_features)
    return np.array([_tree_predict_one(model.root, x) for x in X], dtype=np.int64)


# ---------------------------------------------------------------- forest

def fit_forest(data: LabeledMatrix, n_trees: int = 100,
               max_depth: int = TREE_MAX_DEPTH, min_leaf: int = TREE_MIN_LEAF,
               bootstrap: bool = True, max_features: int | str | None = None,
               seed: int = 0) -> ForestModel:
    """Bagged trees with per-split feature subsets (default ceil(sqrt(d)))."""
    check_ranges("forest", {"n_trees": n_trees})
    n, d = data.X.shape
    if max_features is None:
        m_feats = int(np.ceil(np.sqrt(d)))
    elif max_features == "all":
        m_feats = d
    elif (isinstance(max_features, int) and not isinstance(max_features, bool)
          and 1 <= max_features <= d):
        m_feats = max_features
    else:
        raise ConfigError(f"bad max_features {max_features!r}")

    X = data.X.astype(float)
    trees = []
    for b in range(n_trees):
        rng = Xoshiro256StarStar(derive_seed(seed, "tree", b))
        if bootstrap:
            idx = rng.next_u64_array(n) % np.uint64(n)  # n randbelow(n) draws
            Xb, yb = X[idx], data.y[idx]
        else:
            Xb, yb = X, data.y
        root = _grow_tree(Xb, yb, max_depth, min_leaf, rng, m_feats)
        trees.append(TreeModel(root, d))
    n_classes = int(data.y.max()) + 1
    return ForestModel(trees, d, n_classes)


def _predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(X, model.n_features)
    votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
    for tree in model.trees:
        preds = _predict_tree(tree, X)
        votes[np.arange(X.shape[0]), preds] += 1
    return np.argmax(votes, axis=1)  # first max = smallest class id


# ---------------------------------------------------------------- mlp

def fit_mlp(data: LabeledMatrix, hidden: int = 64,
            epochs: int = 200, batch: int = 64,
            seed: int = 0) -> MlpModel:
    """One-hidden-layer softmax network trained with Adam on cross-entropy."""
    check_ranges("mlp", {"hidden": hidden, "epochs": epochs, "batch": batch})
    classes, _, onehot = _onehot(data.y)
    n, d = data.X.shape
    spec = NetworkSpec((d, hidden, classes.shape[0]), hidden="relu", output="softmax")
    rng = Xoshiro256StarStar(seed)
    params = init_network(spec, rng)
    state = AdamState.zeros_like(params)
    X = data.X.astype(float)
    indices = list(range(n))
    for _ in range(epochs):
        rng.shuffle(indices)
        for lo in range(0, n, batch):
            chunk = indices[lo:lo + batch]
            probs, cache = net_forward(spec, params, X[chunk])
            loss_grad = (probs - onehot[chunk]) / len(chunk)
            grads, _ = net_backward(spec, params, cache, loss_grad)
            adam_step(params, grads, state)
    return MlpModel(classes, spec, params)


def _predict_mlp(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = _check_features(X, model.spec.layer_sizes[0])
    probs, _ = net_forward(model.spec, model.params, X)
    return model.classes[np.argmax(probs, axis=1)]


# ---------------------------------------------------------------- facade

_FITTERS = {
    "knn": fit_knn,
    "gnb": fit_gnb,
    "logreg": fit_logreg,
    "tree": fit_tree,
    "forest": fit_forest,
    "mlp": fit_mlp,
}

# kind -> {param: default}, read off each fitter's keyword defaults
_DEFAULTS = {kind: {name: p.default for name, p in inspect.signature(fitter).parameters.items()
                    if p.default is not p.empty}
             for kind, fitter in _FITTERS.items()}

CLASSIFIER_KINDS = tuple(sorted(_FITTERS))

# the kinds whose fitter takes a seed; bench gives each cell's seed to them
SEEDED_KINDS = frozenset(kind for kind, defaults in _DEFAULTS.items() if "seed" in defaults)

# kind -> {param: (bound, whether the bound itself is allowed)}: the lower
# bounds that hold whatever the data, checked by each fitter and, through
# check_ranges, by bench when it parses a config
_RANGES = {
    "knn": {"k": (1, True)},
    "gnb": {"var_floor": (0.0, False)},
    "logreg": {"l2": (0.0, True), "max_iter": (1, True), "tol": (0.0, False),
               "lr": (0.0, False)},
    "tree": {"max_depth": (1, True), "min_leaf": (1, True)},
    "forest": {"n_trees": (1, True)},
    "mlp": {"hidden": (1, True), "epochs": (0, True), "batch": (1, True)},
}


def check_ranges(kind: str, params: dict) -> None:
    """ConfigError for a param of kind below its bound in _RANGES. Keys with
    no bound, and values that are not numbers (a bool, a string, None), pass:
    fit reports those through check_params."""
    for key, value in params.items():
        if key not in _RANGES[kind] or isinstance(value, bool) \
                or not isinstance(value, (int, float, np.integer, np.floating)):
            continue
        bound, closed = _RANGES[kind][key]
        if value < bound or (value == bound and not closed):
            raise ConfigError(f"parameter {key!r} must be {'>=' if closed else '>'} "
                              f"{bound}, got {value!r}")


def fit(kind: str, data: LabeledMatrix, params: dict | None = None):
    """Fit a classifier by kind; unknown kinds or parameters raise ConfigError."""
    if kind not in _FITTERS:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    return _FITTERS[kind](data, **check_params(f"classifier {kind!r}", _DEFAULTS[kind],
                                               params or {}))


def check_params(where: str, defaults: dict, params: dict) -> dict:
    """defaults updated by params, each value checked against its default's type.

    A default of None leaves the value to the caller (forest max_features,
    wavelet scales). bench checks embedding params with this too.
    """
    merged = dict(defaults)
    for key, value in params.items():
        if key not in merged:
            raise ConfigError(f"{where}: unknown parameter {key!r}")
        if merged[key] is not None:
            value = check_value(value, type(merged[key]), f"{where}: parameter {key!r}")
        merged[key] = value
    return merged


def check_value(value, kind: type, what: str):
    """value as a Python kind (bool, int or float), or ConfigError.

    An int also serves a float, bool is never taken for a number, and a float
    must be finite (a NaN or infinite logreg step never shrinks below its
    floor, so the fit would not end). Returning Python types lets numpy
    scalars serialise to JSON.
    """
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if kind is bool:
        ok, want = isinstance(value, bool), "a boolean"
    elif kind is int:
        ok, want = is_int, "an integer"
    else:
        ok = is_int or (isinstance(value, (float, np.floating)) and math.isfinite(value))
        want = "a finite number"
    if not ok:
        raise ConfigError(f"{what} must be {want}, got {value!r}")
    return kind(value)


_PREDICTORS = {
    KnnModel: _predict_knn,
    GnbModel: _predict_gnb,
    LogRegModel: _predict_logreg,
    TreeModel: _predict_tree,
    ForestModel: _predict_forest,
    MlpModel: _predict_mlp,
}


def predict(model, X: np.ndarray) -> np.ndarray:
    fn = _PREDICTORS.get(type(model))
    if fn is None:
        raise ConfigError(f"not a fitted classifier model: {type(model).__name__}")
    return fn(model, X)


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ShapeError(f"prediction/truth shapes differ: {predicted.shape} "
                         f"vs {truth.shape}")
    if predicted.shape[0] == 0:
        raise ShapeError("cannot score zero predictions")
    return float(np.mean(predicted == truth))
