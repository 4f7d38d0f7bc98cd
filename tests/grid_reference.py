"""The per-combo model selection that tsembed.bench._run_cell replaced.

The validation split fits each combo on train and scores it there; an empty
validation split scores each combo by 5-fold cross-validation; either way the
winner is refit on all of train before it is tested. It is the reference the
one-loop selection must match: the same cell, status, accuracy and selected
params on every grid.
"""

import time

import numpy as np

from tsembed import classify
from tsembed.bench import CellResult, ClassifierCfg, _error_cell, _expand_grid
from tsembed.errors import ConfigError, TsembedError
from tsembed.rng import Xoshiro256StarStar, derive_seed


def _cv_accuracy(kind: str, params: dict, X: np.ndarray, y: np.ndarray,
                 seed: int) -> float:
    """5-fold (or n-fold when small) cross-validation accuracy on train."""
    n = X.shape[0]
    k = min(5, n)
    indices = list(range(n))
    Xoshiro256StarStar(derive_seed(seed, "cv")).shuffle(indices)
    folds = [indices[i::k] for i in range(k)]
    accs = []
    for held in folds:
        held_mask = np.zeros(n, dtype=bool)
        held_mask[held] = True
        if held_mask.all() or not held_mask.any():
            continue
        model = classify.fit(kind, classify.LabeledMatrix(X[~held_mask], y[~held_mask]),
                             params)
        accs.append(classify.accuracy(classify.predict(model, X[held_mask]),
                                      y[held_mask]))
    if not accs:
        raise ConfigError("cross-validation impossible on this train split")
    return float(np.mean(accs))



def _run_cell(dataset: str, embedding: str, clf: ClassifierCfg,
              Xtr, ytr, Xval, yval, Xte, yte, cell_seed: int) -> CellResult:
    combos = _expand_grid(clf.grid)
    best_acc = None
    best_combo = None
    errors = []
    t0 = time.perf_counter()
    for combo in combos:
        params = {**clf.params, **combo}
        if clf.kind in classify.SEEDED_KINDS and "seed" not in params:
            params["seed"] = cell_seed
        try:
            if Xval is not None and Xval.shape[0] > 0:
                model = classify.fit(clf.kind, classify.LabeledMatrix(Xtr, ytr), params)
                acc = classify.accuracy(classify.predict(model, Xval), yval)
            else:
                acc = _cv_accuracy(clf.kind, params, Xtr, ytr, cell_seed)
        except TsembedError as e:
            errors.append(e)
            continue
        if best_acc is None or acc > best_acc:
            best_acc = acc
            best_combo = params
    if best_combo is None:
        err = errors[-1] if errors else ConfigError("no grid combination fit")
        return _error_cell(dataset, embedding, clf.name, err)
    try:
        model = classify.fit(clf.kind, classify.LabeledMatrix(Xtr, ytr), best_combo)
        fit_seconds = time.perf_counter() - t0
        test_acc = classify.accuracy(classify.predict(model, Xte), yte)
    except TsembedError as e:
        return _error_cell(dataset, embedding, clf.name, e)
    return CellResult(dataset, embedding, clf.name, float(test_acc), "ok", best_combo,
                      fit_seconds)
