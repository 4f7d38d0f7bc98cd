from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradient_reference
from pointsets import point_sets
from tsembed import classify, numcore
from tsembed.classify import (CLASSIFIER_KINDS, LabeledMatrix, TreeNode, accuracy,
                              best_split, fit, fit_forest, fit_gnb, fit_knn,
                              fit_logreg, fit_mlp, fit_tree, predict)
from tsembed.errors import ConfigError, NumericError, ShapeError
from tsembed.rng import Xoshiro256StarStar


def blobs(centers, per_class=20, spread=0.5, seed=60, labels=None):
    rng = Xoshiro256StarStar(seed)
    X, y = [], []
    for c, center in enumerate(centers):
        lab = labels[c] if labels else c
        for _ in range(per_class):
            X.append([center[0] + spread * rng.gauss(),
                      center[1] + spread * rng.gauss()])
            y.append(lab)
    return LabeledMatrix(np.array(X), np.array(y, dtype=np.int64))


XOR = LabeledMatrix(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                    np.array([0, 1, 1, 0], dtype=np.int64))


# ------------------------------------------------------------ data checks

def test_labeled_matrix_validation():
    with pytest.raises(ShapeError):
        LabeledMatrix(np.ones(3), np.array([0, 1, 0], dtype=np.int64))
    with pytest.raises(ShapeError):
        LabeledMatrix(np.ones((3, 2)), np.array([0, 1], dtype=np.int64))
    with pytest.raises(ShapeError):
        LabeledMatrix(np.ones((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ShapeError):
        LabeledMatrix(np.array([[np.nan]]), np.array([0], dtype=np.int64))
    with pytest.raises(ShapeError):
        LabeledMatrix(np.ones((2, 2)), np.array([0.5, 1.0]))
    with pytest.raises(ShapeError):
        LabeledMatrix(np.ones((2, 2)), np.array([-1, 1], dtype=np.int64))


# ------------------------------------------------------------ knn

def test_knn_k1_memorizes_training_set():
    data = blobs([(0, 0), (6, 6)], seed=61)
    model = fit_knn(data, k=1)
    assert accuracy(predict(model, data.X), data.y) == 1.0


def test_knn_majority_vote():
    data = LabeledMatrix(np.array([[0.0], [0.1], [5.0]]),
                         np.array([0, 0, 1], dtype=np.int64))
    model = fit_knn(data, k=3)
    assert predict(model, np.array([[0.05]]))[0] == 0


def test_knn_distance_tie_prefers_lower_train_index():
    data = LabeledMatrix(np.array([[0.0], [2.0]]),
                         np.array([1, 0], dtype=np.int64))
    model = fit_knn(data, k=1)
    # the query is equidistant from both; index 0 wins
    assert predict(model, np.array([[1.0]]))[0] == 1


def test_knn_vote_tie_prefers_smallest_class():
    data = LabeledMatrix(np.array([[0.0], [2.0]]),
                         np.array([1, 0], dtype=np.int64))
    model = fit_knn(data, k=2)
    assert predict(model, np.array([[1.0]]))[0] == 0


def predict_knn_reference(model, X):
    """The per-row loop: every distance, a lexsort, a vote over the first k."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0], dtype=np.int64)
    train_index = np.arange(model.train_X.shape[0])
    for r in range(X.shape[0]):
        dists = np.linalg.norm(model.train_X - X[r], axis=1)
        order = np.lexsort((train_index, dists))  # distance, then train index
        votes = np.bincount(model.train_y[order[:model.k]])
        out[r] = int(np.argmax(votes))  # first max = smallest class id
    return out


def knn_cases(points, data):
    train, queries = points
    n_classes = data.draw(st.integers(1, 4))
    y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                    min_size=train.shape[0],
                                    max_size=train.shape[0])), dtype=np.int64)
    k = data.draw(st.integers(1, train.shape[0]))
    return fit_knn(LabeledMatrix(train, y), k=k), queries


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.data())
def test_knn_predict_equals_reference(points, data):
    model, queries = knn_cases(points, data)
    got = predict(model, queries)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, predict_knn_reference(model, queries))


@settings(max_examples=100, deadline=None)
@given(point_sets(max_rows=30), st.data())
def test_knn_predict_equals_reference_across_blocks(points, data):
    model, queries = knn_cases(points, data)
    saved = numcore._BLOCK_ELEMENTS
    numcore._BLOCK_ELEMENTS = data.draw(st.integers(1, 120))
    try:
        got = predict(model, queries)
    finally:
        numcore._BLOCK_ELEMENTS = saved
    np.testing.assert_array_equal(got, predict_knn_reference(model, queries))


def test_knn_non_finite_query_votes_over_the_first_training_rows():
    # every distance is NaN or inf, so all tie and the lowest indices vote;
    # pinned to the behaviour of the per-row loop
    data = LabeledMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 9.0],
                                   [9.0, 8.0], [8.0, 9.0]]),
                         np.array([1, 0, 2, 2, 2], dtype=np.int64))
    queries = np.array([[np.nan, 9.0], [np.inf, 9.0], [-np.inf, np.inf],
                        [9.0, 9.0]])
    for k, expected in ((1, [1, 1, 1, 2]), (2, [0, 0, 0, 2]), (3, [0, 0, 0, 2])):
        model = fit_knn(data, k=k)
        np.testing.assert_array_equal(predict(model, queries), expected)
        np.testing.assert_array_equal(predict_knn_reference(model, queries),
                                      expected)


def test_knn_k_validation():
    data = blobs([(0, 0), (6, 6)], per_class=3, seed=62)
    with pytest.raises(ConfigError):
        fit_knn(data, k=0)
    with pytest.raises(ConfigError):
        fit_knn(data, k=7)


# ------------------------------------------------------------ gnb

def test_gnb_hand_example():
    data = LabeledMatrix(np.array([[-1.0], [1.0], [3.0], [5.0]]),
                         np.array([0, 0, 1, 1], dtype=np.int64))
    model = fit_gnb(data)
    # equal priors, equal variances: the boundary is the midpoint 2.0
    preds = predict(model, np.array([[1.9], [2.1]]))
    np.testing.assert_array_equal(preds, [0, 1])
    np.testing.assert_allclose(model.means.ravel(), [0.0, 4.0])
    np.testing.assert_allclose(model.variances.ravel(), [1.0, 1.0])


def test_gnb_priors_shift_the_boundary():
    data = LabeledMatrix(
        np.array([[-1.0], [1.0], [-1.0], [1.0], [3.0], [5.0]]),
        np.array([0, 0, 0, 0, 1, 1], dtype=np.int64))
    model = fit_gnb(data)
    # at the likelihood midpoint the 2:1 prior favors class 0
    assert predict(model, np.array([[2.0]]))[0] == 0


def test_gnb_variance_floor_handles_constant_features():
    data = LabeledMatrix(np.array([[1.0, 5.0], [1.0, 5.0], [2.0, 5.0], [2.0, 5.0]]),
                         np.array([0, 0, 1, 1], dtype=np.int64))
    model = fit_gnb(data)
    assert np.all(model.variances >= 1e-9)
    preds = predict(model, np.array([[1.0, 5.0], [2.0, 5.0]]))
    np.testing.assert_array_equal(preds, [0, 1])
    with pytest.raises(ConfigError):
        fit_gnb(data, var_floor=0.0)


# ------------------------------------------------------------ logreg

def test_logreg_separable_reaches_full_accuracy():
    data = blobs([(0, 0), (6, 6)], seed=64)
    model = fit_logreg(data)
    assert accuracy(predict(model, data.X), data.y) == 1.0
    assert model.n_iters <= 500


def test_logreg_three_classes():
    data = blobs([(0, 0), (8, 0), (4, 7)], seed=65)
    model = fit_logreg(data)
    assert accuracy(predict(model, data.X), data.y) == 1.0


def test_logreg_deterministic():
    data = blobs([(0, 0), (6, 6)], seed=66)
    m1, m2 = fit_logreg(data), fit_logreg(data)
    np.testing.assert_array_equal(m1.W, m2.W)
    np.testing.assert_array_equal(m1.b, m2.b)


def test_logreg_l2_shrinks_weights():
    data = blobs([(0, 0), (6, 6)], seed=67)
    small = fit_logreg(data, l2=1e-4)
    large = fit_logreg(data, l2=1.0)
    assert np.linalg.norm(large.W) < np.linalg.norm(small.W)


def test_logreg_param_validation():
    data = blobs([(0, 0), (6, 6)], per_class=3, seed=68)
    for bad in ({"l2": -1.0}, {"max_iter": 0}, {"tol": 0.0}, {"lr": 0.0}):
        with pytest.raises(ConfigError):
            fit_logreg(data, **bad)



@pytest.mark.parametrize("key", ["lr", "l2", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_logreg_rejects_non_finite_params(key, value):
    # called directly, not through fit: a NaN or infinite step used to spin
    # forever in the step-halving loop
    data = blobs([(0, 0), (6, 6)], per_class=3, seed=69)
    with pytest.raises(ConfigError, match="finite"):
        fit_logreg(data, **{key: value})


@pytest.mark.parametrize("centers,kwargs", [
    ([(0, 0), (6, 6)], {}),                             # separable: stops on tol
    ([(0, 0), (1, 1), (0, 1)], {"max_iter": 60}),       # overlapping: runs to max_iter
    ([(0, 0), (2, 2)], {"lr": 40.0, "max_iter": 30}),   # the step halves
])
def test_logreg_matches_the_two_softmax_reference(centers, kwargs):
    data = blobs(centers, spread=1.0, seed=90)
    model = fit_logreg(data, **kwargs)
    W, b, iters = gradient_reference.fit_logreg(data, **kwargs)
    assert model.W.tobytes() == W.tobytes() and model.b.tobytes() == b.tobytes()
    assert model.n_iters == iters > 1


@pytest.mark.parametrize("l2", [1e200, 1e308])
def test_logreg_divergence_is_a_numeric_error(l2):
    data = blobs([(0, 0), (6, 6)], per_class=5, seed=91)
    with pytest.raises(NumericError, match="diverged"):
        fit_logreg(data, l2=l2)


# ------------------------------------------------------------ tree

def test_tree_learns_xor_exactly():
    model = fit_tree(XOR)
    assert accuracy(predict(model, XOR.X), XOR.y) == 1.0


def test_tree_depth_cap_prevents_xor():
    model = fit_tree(XOR, max_depth=1)
    assert accuracy(predict(model, XOR.X), XOR.y) <= 0.75


def test_tree_midpoint_threshold():
    data = LabeledMatrix(np.array([[0.0], [2.0]]), np.array([0, 1], dtype=np.int64))
    model = fit_tree(data)
    assert model.root.feature == 0
    assert model.root.threshold == 1.0


def test_tree_tie_prefers_lowest_feature():
    # both features split perfectly; feature 0 must win
    data = LabeledMatrix(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
                         np.array([0, 1, 0, 1], dtype=np.int64))
    model = fit_tree(data)
    assert model.root.feature == 0
    assert model.root.threshold == 0.5


def test_best_split_threshold_tie_prefers_lowest():
    # the label pattern 0,1,0,1 makes every cut equally (un)informative
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1], dtype=np.int64)
    f, thr, gain = best_split(X, y, np.array([0]), 1)
    assert (f, thr) == (0, 0.5)
    assert gain == pytest.approx(1 / 6)


def test_tree_min_leaf_blocks_splits():
    data = LabeledMatrix(np.array([[0.0], [1.0], [2.0]]),
                         np.array([0, 0, 1], dtype=np.int64))
    model = fit_tree(data, min_leaf=2)
    assert model.root.feature == -1
    assert model.root.label == 0  # majority


def test_tree_pure_node_stops():
    data = LabeledMatrix(np.array([[0.0], [5.0]]), np.array([1, 1], dtype=np.int64))
    model = fit_tree(data)
    assert model.root.feature == -1 and model.root.label == 1


def test_tree_param_validation():
    with pytest.raises(ConfigError):
        fit_tree(XOR, max_depth=0)
    with pytest.raises(ConfigError):
        fit_tree(XOR, min_leaf=0)


# ------------------------------------------------------------ split search oracle

def _gini_reference(counts, total):
    if total <= 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def best_split_reference(X, y, features, min_leaf):
    """The scalar split search: one Gini evaluation per cut, in scan order."""
    n = y.shape[0]
    n_classes = int(y.max()) + 1
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_gini = _gini_reference(parent_counts, n)
    best = (-1, 0.0, -1.0)
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        vals = X[order, f]
        labels = y[order]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), labels] = 1.0
        left_counts = np.cumsum(onehot, axis=0)
        cut_ok = vals[:-1] < vals[1:]
        for i in np.nonzero(cut_ok)[0]:
            nL = i + 1
            nR = n - nL
            if nL < min_leaf or nR < min_leaf:
                continue
            cl = left_counts[i]
            cr = parent_counts - cl
            gain = parent_gini - (nL / n) * _gini_reference(cl, nL) \
                - (nR / n) * _gini_reference(cr, nR)
            if gain > best[2]:
                best = (int(f), float((vals[i] + vals[i + 1]) / 2.0), float(gain))
    return best


@contextmanager
def patched(name, value):
    saved = getattr(classify, name)
    setattr(classify, name, value)
    try:
        yield
    finally:
        setattr(classify, name, saved)


@st.composite
def split_nodes(draw, max_rows=60, max_features=6):
    """(X, y, features, min_leaf) with tie-heavy columns and 2-12 classes."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_features))
    n_classes = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    style = draw(st.sampled_from(["continuous", "rounded", "integer"]))
    if style == "rounded":
        X = np.round(X, 1)
    elif style == "integer":
        X = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(float)
    for f in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            X[:, f] = X[0, f]                       # constant column
    y = rng.integers(0, n_classes, size=n)
    features = draw(st.permutations(range(d)))
    features = np.array(features[:draw(st.integers(1, d))])
    min_leaf = draw(st.integers(1, 4))
    return X, y, features, min_leaf


@settings(max_examples=300, deadline=None)
@given(split_nodes())
def test_best_split_equals_reference(node):
    X, y, features, min_leaf = node
    assert best_split(X, y, features, min_leaf) == \
        best_split_reference(X, y, features, min_leaf)


@settings(max_examples=150, deadline=None)
@given(split_nodes(max_rows=40, max_features=12), st.integers(1, 300))
def test_best_split_equals_reference_across_blocks(node, block_elements):
    # a small block cap splits the features over many blocks; the tie
    # contract must hold across block boundaries too
    X, y, features, min_leaf = node
    with patched("SPLIT_BLOCK_ELEMENTS", block_elements):
        got = best_split(X, y, features, min_leaf)
    assert got == best_split_reference(X, y, features, min_leaf)


def test_best_split_no_valid_cut():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    y = np.array([0, 1, 0], dtype=np.int64)
    assert best_split(X, y, np.array([0, 1]), 1) == (-1, 0.0, -1.0)
    X = np.array([[0.0], [1.0], [2.0]])
    assert best_split(X, y, np.array([0]), 2) == (-1, 0.0, -1.0)   # n < 2 * min_leaf
    assert best_split(X[:1], y[:1], np.array([0]), 1) == (-1, 0.0, -1.0)


@st.composite
def tree_data(draw):
    X, y, _, min_leaf = draw(split_nodes(max_rows=80, max_features=5))
    return LabeledMatrix(X, y), min_leaf


@settings(max_examples=60, deadline=None)
@given(tree_data(), st.integers(1, 8))
def test_tree_grown_with_reference_split_is_identical(data_min_leaf, max_depth):
    data, min_leaf = data_min_leaf
    tree = fit_tree(data, max_depth=max_depth, min_leaf=min_leaf)
    with patched("best_split", best_split_reference):
        reference = fit_tree(data, max_depth=max_depth, min_leaf=min_leaf)
    assert tree == reference   # dataclass equality compares node for node


@settings(max_examples=25, deadline=None)
@given(tree_data(), st.integers(0, 1000))
def test_forest_grown_with_reference_split_is_identical(data_min_leaf, seed):
    data, min_leaf = data_min_leaf
    params = dict(n_trees=4, max_depth=6, min_leaf=min_leaf, seed=seed)
    forest = fit_forest(data, **params)
    with patched("best_split", best_split_reference):
        reference = fit_forest(data, **params)
    probe = np.random.default_rng(seed).normal(size=(50, data.X.shape[1]))
    np.testing.assert_array_equal(predict(forest, probe), predict(reference, probe))
    np.testing.assert_array_equal(predict(forest, data.X), predict(reference, data.X))
    assert forest == reference


def grow_tree_reference(X, y, depth, max_depth, min_leaf, rng, max_features):
    """The recursive grower that classify._grow_tree's explicit stack replaced."""
    if depth >= max_depth or np.unique(y).shape[0] == 1:
        return TreeNode(label=classify._majority(y))
    d = X.shape[1]
    if max_features is not None and max_features < d:
        features = np.array(sorted(rng.sample_indices(d, max_features)))
    else:
        features = np.arange(d)
    f, thr, _ = classify.best_split(X, y, features, min_leaf)
    if f < 0:
        return TreeNode(label=classify._majority(y))
    mask = X[:, f] <= thr
    left = grow_tree_reference(X[mask], y[mask], depth + 1, max_depth, min_leaf,
                               rng, max_features)
    right = grow_tree_reference(X[~mask], y[~mask], depth + 1, max_depth, min_leaf,
                                rng, max_features)
    return TreeNode(feature=f, threshold=thr, left=left, right=right)


def grow_reference(X, y, max_depth, min_leaf, rng, max_features):
    return grow_tree_reference(X, y, 0, max_depth, min_leaf, rng, max_features)


def same_tree(a, b):
    """Node-for-node equality by an explicit walk (dataclass == recurses)."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if (type(a.feature), a.feature, a.threshold, a.label) != \
                (type(b.feature), b.feature, b.threshold, b.label):
            return False
        stack += [(a.left, b.left), (a.right, b.right)]
    return True


def tree_depth(node):
    depth, stack = 0, [(node, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if node.feature >= 0:
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return depth


@settings(max_examples=60, deadline=None)
@given(tree_data(), st.integers(1, 8), st.integers(0, 1000))
def test_tree_and_forest_equal_recursive_grower(data_min_leaf, max_depth, seed):
    data, min_leaf = data_min_leaf
    tree = fit_tree(data, max_depth=max_depth, min_leaf=min_leaf)
    with patched("_grow_tree", grow_reference):
        reference = fit_tree(data, max_depth=max_depth, min_leaf=min_leaf)
    assert tree == reference
    params = dict(n_trees=3, max_depth=max_depth, min_leaf=min_leaf, seed=seed)
    forest = fit_forest(data, **params)
    with patched("_grow_tree", grow_reference):
        reference = fit_forest(data, **params)
    assert forest == reference   # the same feature draws, node for node


def test_deep_tree_grows_without_recursion():
    # alternating labels on a line: every split peels off one row
    X, y = np.arange(600.0)[:, None], np.arange(600) % 2
    tree = classify.fit("tree", LabeledMatrix(X, y), {"max_depth": 100000})
    assert tree_depth(tree.root) == 599
    assert same_tree(tree.root, grow_reference(X, y, 100000, 1, None, None))
    X, y = np.arange(3000.0)[:, None], np.arange(3000) % 2
    tree = classify.fit("tree", LabeledMatrix(X, y), {"max_depth": 100000})
    assert tree_depth(tree.root) == 2999   # past the default recursion limit
    np.testing.assert_array_equal(predict(tree, X), y)
    shallow = classify.fit("tree", LabeledMatrix(X, y), {"max_depth": 40})
    assert tree_depth(shallow.root) == 40


def _internal_nodes(node):
    if node.feature < 0:
        return 0
    return 1 + _internal_nodes(node.left) + _internal_nodes(node.right)


@pytest.mark.parametrize("max_depth", [1, 3, 12])
def test_tree_calls_best_split_through_module_global(max_depth):
    # per-layer tracing wraps classify.best_split; growing a tree must go
    # through that name once for every node it tries to split
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return best_split_reference(*args)

    data = blobs([(0, 0), (2, 2), (0, 2)], per_class=15, spread=1.0, seed=82)
    with patched("best_split", counting):
        model = fit_tree(data, max_depth=max_depth)
    # distinct continuous values: every impure node above the depth cap splits
    assert len(calls) == _internal_nodes(model.root) > 0
    assert calls[0] == data.X.shape
    calls.clear()
    with patched("best_split", counting):
        forest = fit_forest(data, n_trees=3, max_depth=max_depth, seed=4)
    assert len(calls) == sum(_internal_nodes(t.root) for t in forest.trees)


# ------------------------------------------------------------ forest

def test_forest_single_plain_tree_matches_tree():
    data = blobs([(0, 0), (6, 6)], seed=69)
    forest = fit_forest(data, n_trees=1, bootstrap=False, max_features="all")
    tree = fit_tree(data)
    grid = blobs([(0, 0), (6, 6)], seed=70).X
    np.testing.assert_array_equal(predict(forest, grid), predict(tree, grid))


def test_forest_deterministic_per_seed():
    data = blobs([(0, 0), (6, 6)], seed=71)
    probe = blobs([(3, 3), (1, 5)], seed=72).X
    f1 = fit_forest(data, n_trees=10, seed=5)
    f2 = fit_forest(data, n_trees=10, seed=5)
    np.testing.assert_array_equal(predict(f1, probe), predict(f2, probe))


def test_forest_separable_accuracy():
    data = blobs([(0, 0), (6, 6)], seed=73)
    model = fit_forest(data, n_trees=20)
    assert accuracy(predict(model, data.X), data.y) == 1.0


def test_forest_max_features_validation():
    data = blobs([(0, 0), (6, 6)], per_class=5, seed=74)
    fit_forest(data, n_trees=2, max_features=1)
    fit_forest(data, n_trees=2, max_features=2)
    for bad in (0, 3, "most", 1.5, True):
        with pytest.raises(ConfigError):
            fit_forest(data, n_trees=2, max_features=bad)
    with pytest.raises(ConfigError):
        fit_forest(data, n_trees=0)


@pytest.mark.parametrize("per_class", [8, 300])  # 600 rows pass rng.BULK_MIN_DRAWS
def test_forest_bootstrap_matches_per_row_randbelow(monkeypatch, per_class):
    data = blobs([(0, 0), (2, 2)], per_class=per_class, spread=1.0, seed=75)
    forest = fit_forest(data, n_trees=3, max_depth=3, seed=6)
    monkeypatch.setattr(Xoshiro256StarStar, "next_u64_array",
                        lambda rng, n: np.array([rng.randbelow(n) for _ in range(n)],
                                                dtype=np.uint64))
    assert fit_forest(data, n_trees=3, max_depth=3, seed=6) == forest


# ------------------------------------------------------------ mlp

def test_mlp_separable_blobs():
    data = blobs([(0, 0), (6, 6), (0, 6)], seed=75)
    model = fit_mlp(data, hidden=16, epochs=800, seed=1)
    assert accuracy(predict(model, data.X), data.y) == 1.0


def test_mlp_preserves_label_values():
    data = blobs([(0, 0), (6, 6)], seed=76, labels=[2, 7])
    model = fit_mlp(data, hidden=8, epochs=200, seed=2)
    preds = predict(model, data.X)
    assert set(np.unique(preds)) <= {2, 7}
    assert accuracy(preds, data.y) == 1.0


def test_mlp_deterministic():
    data = blobs([(0, 0), (6, 6)], per_class=8, seed=77)
    m1 = fit_mlp(data, hidden=8, epochs=10, seed=3)
    m2 = fit_mlp(data, hidden=8, epochs=10, seed=3)
    for (W1, b1), (W2, b2) in zip(m1.params, m2.params):
        np.testing.assert_array_equal(W1, W2)
        np.testing.assert_array_equal(b1, b2)


def test_mlp_param_validation():
    data = blobs([(0, 0), (6, 6)], per_class=3, seed=78)
    for bad in ({"hidden": 0}, {"epochs": -1}, {"batch": 0}):
        with pytest.raises(ConfigError):
            fit_mlp(data, **bad)


# ------------------------------------------------------------ facade

def test_fit_facade_kinds_and_defaults():
    assert CLASSIFIER_KINDS == ("forest", "gnb", "knn", "logreg", "mlp", "tree")
    data = blobs([(0, 0), (6, 6)], per_class=10, seed=79)
    model = fit("knn", data, {"k": 1})
    assert model.k == 1
    assert fit("knn", data).k == 5


def test_fit_facade_rejects_unknown():
    data = blobs([(0, 0), (6, 6)], per_class=3, seed=80)
    with pytest.raises(ConfigError):
        fit("svm", data)
    with pytest.raises(ConfigError):
        fit("knn", data, {"neighbors": 3})


@pytest.mark.parametrize("kind, params", [
    ("tree", {"max_depth": "x"}),
    ("tree", {"min_leaf": 1.0}),
    ("knn", {"k": 2.5}),
    ("knn", {"k": True}),
    ("forest", {"max_features": True}),
    ("forest", {"bootstrap": "no"}),
    ("forest", {"n_trees": None}),
    ("gnb", {"var_floor": "x"}),
    ("logreg", {"l2": False}),
    ("logreg", {"lr": float("nan")}),
    ("logreg", {"tol": float("inf")}),
    ("gnb", {"var_floor": float("nan")}),
    ("mlp", {"seed": 1.5}),
])
def test_fit_facade_rejects_wrongly_typed_params(kind, params):
    data = blobs([(0, 0), (6, 6)], per_class=5, seed=83)
    with pytest.raises(ConfigError):
        fit(kind, data, params)


def test_fit_facade_takes_ints_for_float_params():
    data = blobs([(0, 0), (6, 6)], per_class=5, seed=84)
    assert fit("logreg", data, {"lr": 1, "max_iter": 5}).n_iters <= 5
    assert fit("gnb", data, {"var_floor": 1}).variances.min() >= 1.0


def test_predict_rejects_non_models():
    with pytest.raises(ConfigError):
        predict(object(), np.ones((1, 2)))


def test_predict_rejects_wrong_width():
    data = blobs([(0, 0), (6, 6)], per_class=5, seed=81)
    for kind in CLASSIFIER_KINDS:
        params = {"epochs": 2} if kind == "mlp" else \
                 {"n_trees": 2} if kind == "forest" else None
        model = fit(kind, data, params)
        with pytest.raises(ShapeError):
            predict(model, np.ones((3, 9)))


def test_accuracy_scoring():
    assert accuracy(np.array([1, 0, 1, 1]), np.array([1, 1, 1, 0])) == 0.5
    with pytest.raises(ShapeError):
        accuracy(np.array([1, 2]), np.array([1]))
    with pytest.raises(ShapeError):
        accuracy(np.zeros(0), np.zeros(0))
