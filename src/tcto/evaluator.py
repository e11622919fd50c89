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

A forest evaluate big enough to pay for a fork grows its (fold, tree) units
in up to one process per CPU this process may run on: children forked for
the call grow their share and write the predictions into a mapping shared
with this process. Each tree is fixed by its fold's rows and its own seed,
so the score is the same bit for bit however many processes grow it.
Nothing sets the number.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass

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


@dataclass(frozen=True)
class _Fold:
    """One cross-validation fold: its training rows and labels, its
    held-out rows and its model seed."""

    X: np.ndarray
    y: np.ndarray
    X_te: np.ndarray
    seed: int


def _fit_tree(fold: _Fold, t: int, task: str, max_depth: int, n_classes: int, out) -> None:
    """Grow tree t of fold's forest, a CART tree on a bootstrap sample with
    sqrt(p) candidate features per node, and write its predictions for
    fold.X_te into out. The tree depends only on the fold and t."""
    X, X_te = fold.X, fold.X_te
    n, p = X.shape
    rng = np.random.default_rng(np.random.SeedSequence([fold.seed, t]))
    sample = np.sort(rng.integers(0, n, size=n))
    te = np.arange(X_te.shape[0])
    _grow(X, fold.y, sample, X_te, te, out, 0, max_depth, rng, math.isqrt(p), task, n_classes)


def _combine(per_tree: np.ndarray, task: str, n_classes: int) -> np.ndarray:
    """A forest's prediction from its (trees, rows) predictions: the mean over
    trees for regression, the most-voted class (lowest on ties) otherwise."""
    if task == REGRESSION:
        return per_tree.mean(axis=0)
    votes = (per_tree[:, :, None] == np.arange(n_classes)).sum(axis=0)
    return votes.argmax(axis=1).astype(float)


# A forest fit forks only from this many tree-rows: trees times training
# rows, summed over folds. A fork costs its parent and child several ms of
# page faults besides the fork itself. On 2 shared vCPUs (Intel Xeon, BLAS
# at one thread), interleaved medians of evaluate, one child against none:
# 600 tree-rows (30 rows, 3 folds x 10 trees) took 1.10x as long, 1200 (60
# rows) 0.92x, 2000 0.73x and 6000 0.63x; 2 folds x 2 trees took 3-5x.
_FORK_MIN_WORK = 1000


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it cannot fork safely:
    without os.fork, or while other Python threads run, since a child would
    inherit any lock they hold, held for good."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _forest_folds(folds: list, task: str, cfg: EvalConfig) -> list:
    """Each fold's forest predictions for its held-out rows.

    The (fold, tree) units go round-robin to up to one process per CPU once
    the fit is big enough to pay for a fork: this one and children forked
    from it, which inherit the folds' arrays and write their trees'
    predictions straight into a mapping shared with this process. Each tree
    is fixed by its fold and its index, and each fold's trees are combined
    in tree order, so the predictions do not depend on the number of
    processes. A child that fails or cannot be forked has its units fitted
    here; no child outlives the call.
    """
    sizes = [cfg.trees * fold.X_te.shape[0] for fold in folds]
    # float64 rows that the children forked below write into; mmap refuses length 0.
    shared = np.frombuffer(mmap.mmap(-1, 8 * max(sum(sizes), 1)))
    blocks = np.split(shared, np.cumsum(sizes))
    per_tree = [b.reshape(cfg.trees, fold.X_te.shape[0]) for b, fold in zip(blocks, folds)]
    n_classes = [int(fold.y.max()) + 1 if task == CLASSIFICATION else 0 for fold in folds]
    units = [(f, t) for f in range(len(folds)) for t in range(cfg.trees)]

    def fit(share) -> None:
        for f, t in share:
            _fit_tree(folds[f], t, task, cfg.max_depth, n_classes[f], per_tree[f][t])

    work = cfg.trees * sum(fold.X.shape[0] for fold in folds)
    workers = min(len(units), _cpu_count()) if work >= _FORK_MIN_WORK else 1
    shares = [units[w::workers] for w in range(workers)]
    live: dict = {}  # pid -> share, for each child not yet reaped
    try:
        failed = []
        for share in shares[1:]:
            try:
                live[_fork_child(fit, share)] = share
            except OSError:
                failed.append(share)
        fit(shares[0])
        for pid in list(live):
            status = os.waitpid(pid, 0)[1]
            if os.waitstatus_to_exitcode(status) != 0:
                failed.append(live[pid])
            del live[pid]
        for share in failed:
            fit(share)
    finally:
        for pid in live:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return [_combine(pt, task, c) for pt, c in zip(per_tree, n_classes)]


def _fork_child(fit, share) -> int:
    """Fork a child that runs fit(share) and leaves by os._exit, 0 once it
    returns and 1 on any exception, so it never returns into the caller's
    stack, runs no atexit handler and flushes no inherited buffer. Its exit
    status is all it reports."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fit(share)
            code = 0
        finally:
            os._exit(code)
    return pid


def _forest(X, y, X_te, task: str, cfg: EvalConfig) -> np.ndarray:
    """Bootstrap-aggregated CART trees with sqrt(p) feature subsampling,
    trained on (X, y); returns their predictions for X_te: the mean over
    trees for regression, the most-voted class (lowest on ties) otherwise."""
    return _forest_folds([_Fold(X, y, X_te, cfg.seed)], task, cfg)[0]


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


def _centroid_folds(folds: list, task: str, cfg: EvalConfig) -> list:
    return [_centroid(fold.X, fold.y, fold.X_te, task, cfg) for fold in folds]


# Each model maps a list of folds to each fold's predictions for its held-out rows.
_MODELS = {"forest": _forest_folds, "nearest-centroid": _centroid_folds}


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
        folds = []
        for f in range(cfg.folds):
            te = fold_of == f
            fold_seed = np.random.SeedSequence([cfg.seed, 101, f]).generate_state(1)[0]
            folds.append(_Fold(X[~te], y[~te] / unit, X[te], int(fold_seed)))
        for f, fold_preds in enumerate(model(folds, task, cfg)):
            preds[fold_of == f] = fold_preds * unit
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
