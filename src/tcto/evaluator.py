"""Downstream scoring of feature matrices.

A small CART random forest written directly on numpy, or a nearest-centroid
model, scored with seeded k-fold cross validation: macro-F1 for
classification, 1-RAE for regression. Also provides the binned
mutual-information estimate used for pruning.

Each fold trains its model and predicts its held-out rows in one pass, and
no model is kept: a tree sends the held-out rows down each split as it grows
and writes their predictions at its leaves. Trees grow depth first from one
seeded generator per tree, which draws each node's candidate features. A
node scores all of its candidates in one pass over its (rows x candidates)
block, so the per-node cost is a handful of numpy calls whatever the number
of candidates; the arithmetic and its order are those of a per-feature scan
(tests/oracles.py keeps one), so every threshold, and every score, is the
same bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tabular import (
    CLASSIFICATION,
    REGRESSION,
    TASKS,
    DataError,
    Dataset,
    equal_width_bins,
    scaled_stat,
)

_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class EvalConfig:
    folds: int = 5
    trees: int = 10
    max_depth: int = 8
    seed: int = 0
    model: str = "forest"

    def __post_init__(self):
        if self.folds < 2:
            raise DataError("folds must be >= 2")
        if self.trees < 1 or self.max_depth < 0:
            raise DataError("trees must be >= 1 and max_depth >= 0")
        if self.model not in _MODELS:
            raise DataError(f"unknown model {self.model!r}")


def _gini(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    frac = counts / total[..., None]
    return 1.0 - (frac * frac).sum(axis=-1)


def _best_split(X, y, idx, feats, task, n_classes):
    """Find the impurity-minimizing (feature, threshold) over all candidates.

    One pass over the node's (n, k) block scores every candidate feature at
    once: a stable sort of each column, cumulative label sums along the
    sorted rows, and one best cut per feature. Candidate thresholds are the
    midpoints between consecutive distinct sorted values. Among features the
    largest gain wins, the lowest feature on ties, as a strict '>' scan in
    ascending feature order would pick. Returns (feature, threshold) or None
    when nothing gains more than _MIN_GAIN.
    """
    n = idx.shape[0]
    cols = np.arange(feats.shape[0])
    block = X[idx[:, None], feats]
    order = np.argsort(block, axis=0, kind="stable")
    xs_s = block[order, cols]
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    ys_all = y[idx]
    # Every cut is scored and the invalid ones masked afterwards, so
    # overflow there is expected and not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if task == CLASSIFICATION:
            ys_int = ys_all.astype(int)
            parent_counts = np.bincount(ys_int, minlength=n_classes).astype(float)
            parent_imp = float(_gini(parent_counts, np.array(float(n))))
            onehot = np.zeros((n, cols.shape[0], n_classes))
            onehot[np.arange(n)[:, None], cols, ys_int[order]] = 1.0
            cum = onehot.cumsum(axis=0)
            left_counts = cum[:-1]
            right_counts = cum[-1] - left_counts
            child_imp = (
                n_left * _gini(left_counts, n_left)
                + n_right * _gini(right_counts, n_right)
            ) / n
        else:
            # ys_all.var() spelled out: the same operations without the wrapper
            d = ys_all - ys_all.sum() / n
            parent_imp = float((d * d).sum() / n)
            ys = ys_all[order]
            s1 = ys.cumsum(axis=0)
            s2 = (ys * ys).cumsum(axis=0)
            mean_l = s1[:-1] / n_left
            var_l = np.maximum(s2[:-1] / n_left - mean_l * mean_l, 0.0)
            mean_r = (s1[-1] - s1[:-1]) / n_right
            var_r = np.maximum((s2[-1] - s2[:-1]) / n_right - mean_r * mean_r, 0.0)
            child_imp = (n_left * var_l + n_right * var_r) / n
        gains = parent_imp - child_imp
    gains[~(xs_s[1:] > xs_s[:-1])] = -np.inf
    # argmax takes a feature's first NaN gain as its best, which then loses
    # to every feature, as the strict '>' does.
    cut = gains.argmax(axis=0)
    top = gains[cut, cols]
    top[~(top > _MIN_GAIN)] = -np.inf
    j = int(top.argmax())
    if top[j] == -np.inf:
        return None
    c = cut[j]
    return int(feats[j]), float((xs_s[c, j] + xs_s[c + 1, j]) / 2.0)


def _leaf_value(y, idx, task, n_classes) -> float:
    ys = y[idx]
    if task == CLASSIFICATION:
        return float(np.bincount(ys.astype(int), minlength=n_classes).argmax())
    return float(ys.sum() / ys.shape[0])  # ys.mean() without the wrapper


def _grow(X, y, idx, X_te, te, out, depth, max_depth, feat_rng, n_subset, task, n_classes):
    """Grow a CART tree on the rows idx of X and write its predictions for
    the rows te of X_te into out.

    Each split sends the held-out rows left or right with the test it found
    on the training rows, and each leaf writes its value to the rows that
    reach it. Growth reads only the training rows, so the tree and its
    feature draws do not depend on te, which may be empty.
    """
    ys = y[idx]
    if depth < max_depth and idx.shape[0] >= 2 and not (ys == ys[0]).all():
        p = X.shape[1]
        if n_subset < p:
            feats = np.sort(feat_rng.choice(p, size=n_subset, replace=False))
        else:
            feats = np.arange(p)
        split = _best_split(X, y, idx, feats, task, n_classes)
        if split is not None:
            f, thr = split
            mask = X[idx, f] <= thr
            # Midpoints of extreme adjacent values can overflow to inf or round
            # onto an endpoint, emptying one side; such a split carries no signal.
            if mask.any() and not mask.all():
                go_left = X_te[te, f] <= thr
                rest = (out, depth + 1, max_depth, feat_rng, n_subset, task, n_classes)
                _grow(X, y, idx[mask], X_te, te[go_left], *rest)
                _grow(X, y, idx[~mask], X_te, te[~go_left], *rest)
                return
    out[te] = _leaf_value(y, idx, task, n_classes)


def _forest(X, y, X_te, task: str, cfg: EvalConfig) -> np.ndarray:
    """Bootstrap-aggregated CART trees with sqrt(p) feature subsampling,
    trained on (X, y); returns their predictions for X_te: the mean over
    trees for regression, the most-voted class (lowest on ties) otherwise."""
    n, p = X.shape
    n_subset = math.isqrt(p)
    n_classes = int(y.max()) + 1 if task == CLASSIFICATION else 0
    te = np.arange(X_te.shape[0])
    per_tree = np.empty((cfg.trees, te.shape[0]))
    for t, out in enumerate(per_tree):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        sample = np.sort(rng.integers(0, n, size=n))
        _grow(X, y, sample, X_te, te, out, 0, cfg.max_depth, rng, n_subset, task, n_classes)
    if task == REGRESSION:
        return per_tree.mean(axis=0)
    votes = (per_tree[:, :, None] == np.arange(n_classes)).sum(axis=0)
    return votes.argmax(axis=1).astype(float)


def _centroid(X, y, X_te, task: str, cfg: EvalConfig) -> np.ndarray:
    """Nearest-centroid over class centroids, or over 5 label-range
    centroids for regression, trained on (X, y); returns the predictions
    for X_te."""
    groups = y.astype(int) if task == CLASSIFICATION else equal_width_bins(y)
    cents, values = [], []
    for g in np.unique(groups):
        members = groups == g
        cents.append(X[members].mean(axis=0))
        values.append(float(g) if task == CLASSIFICATION else float(y[members].mean()))
    d2 = ((X_te[:, None, :] - np.array(cents)[None, :, :]) ** 2).sum(axis=2)
    return np.array(values)[d2.argmin(axis=1)]


_MODELS = {"forest": _forest, "nearest-centroid": _centroid}


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean F1 over the union of true and predicted classes."""
    t = np.asarray(y_true, dtype=int)
    p = np.asarray(y_pred, dtype=int)
    scores = []
    for c in np.union1d(t, p):
        tp = float(np.sum((t == c) & (p == c)))
        fp = float(np.sum((t != c) & (p == c)))
        fn = float(np.sum((t == c) & (p != c)))
        denom = 2.0 * tp + fp + fn
        scores.append(0.0 if denom == 0.0 else 2.0 * tp / denom)
    return float(np.mean(scores))


def one_minus_rae(y_true, y_pred) -> float:
    """1 - relative absolute error against the mean predictor."""
    t = np.asarray(y_true, dtype=float)
    p = np.asarray(y_pred, dtype=float)
    denom = float(np.abs(t - t.mean()).sum())
    if denom < 1e-12:
        return 0.0
    return 1.0 - float(np.abs(t - p).sum()) / denom


def _too_few_for_cv(n: int, folds: int) -> bool:
    # -(-n // folds) rows make the largest fold; every fold trains on 2 or more.
    return n < folds or n - -(-n // folds) < 2


def check_splits_for_cv(dataset: Dataset, train: Dataset, test: Dataset, folds: int) -> None:
    """DataError naming the first of dataset's training and test splits
    that has too few rows for folds-fold cross validation."""
    for part, d in (("training", train), ("test", test)):
        if _too_few_for_cv(d.n_rows, folds):
            raise DataError(
                f"the {part} split of the {dataset.n_rows}-row dataset has {d.n_rows} "
                f"row(s), too few for {folds}-fold CV; use fewer folds or more rows"
            )


def evaluate(X, y, task: str, cfg: EvalConfig) -> float:
    """Pooled out-of-fold score under seeded k-fold cross validation.

    Regression labels whose sum of squares overflows are fitted in the
    power-of-two units of scaled_stat. Raises DataError when the score is
    not finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-dimensional")
    if X.shape[0] != y.shape[0]:
        raise DataError("feature/label row mismatch")
    if X.shape[0] < 2 or X.shape[1] < 1:
        raise DataError("need at least 2 rows and 1 feature")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise DataError("non-finite entries in evaluation input")
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    n = X.shape[0]
    if _too_few_for_cv(n, cfg.folds):
        raise DataError(f"{n} rows are too few for {cfg.folds}-fold CV")
    perm = np.random.default_rng(np.random.SeedSequence([cfg.seed, 977])).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % cfg.folds
    unit = scaled_stat(lambda u: u @ u, y)[1] if task == REGRESSION else 1.0
    model = _MODELS[cfg.model]

    preds = np.empty(n)
    # Labels near the float limit overflow into a non-finite score, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(cfg.folds):
            te = fold_of == f
            tr = ~te
            fold_seed = np.random.SeedSequence([cfg.seed, 101, f]).generate_state(1)[0]
            fold_cfg = replace(cfg, seed=int(fold_seed))
            preds[te] = model(X[tr], y[tr] / unit, X[te], task, fold_cfg) * unit
        score = macro_f1(y, preds) if task == CLASSIFICATION else one_minus_rae(y, preds)
    if not math.isfinite(score):
        raise DataError(f"the {task} score is not finite; the labels may overflow")
    return score


def mutual_information(v, y, task: str) -> float:
    """Plug-in mutual information in nats between one feature and the labels.

    The feature is discretized into min(20, floor(sqrt(n))) equal-frequency
    rank bins; regression labels into 5 equal-width ranges.
    """
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    n = v.shape[0]
    if n != y.shape[0] or n == 0:
        raise DataError("feature/label length mismatch")
    n_bins = max(1, min(20, math.isqrt(n)))
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    vb = (ranks * n_bins) // n

    if task == CLASSIFICATION:
        _, yb = np.unique(y.astype(int), return_inverse=True)
    else:
        yb = equal_width_bins(y)

    joint = np.zeros((n_bins, int(yb.max()) + 1))
    np.add.at(joint, (vb, yb), 1.0)
    pxy = joint / n
    px = pxy.sum(axis=1, keepdims=True)
    py = pxy.sum(axis=0, keepdims=True)
    nz = pxy > 0.0
    mi = float(np.sum(pxy[nz] * np.log(pxy[nz] / (px @ py)[nz])))
    return max(mi, 0.0)
