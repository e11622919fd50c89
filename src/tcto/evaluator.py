"""Downstream scoring of feature matrices.

A small CART random forest written directly on numpy, or a nearest-centroid
model, scored with seeded k-fold cross validation: macro-F1 for
classification, 1-RAE for regression. Also provides the binned
mutual-information estimate used for pruning.

Each fold trains its model and predicts its held-out rows in one pass, and
no model is kept: a tree sends the held-out rows down each split as it grows
and writes their predictions at its leaves. Each tree takes its nodes in
depth-first preorder from one seeded generator per tree, which draws each
node's candidate features. The trees one process grows advance in
lockstep, one splitting node per tree per round, and a round's nodes score
all of their candidates together in one pass over a padded (nodes x rows x
candidates) block, then split their rows together, so a round costs a few
dozen numpy calls whatever its number of nodes and candidates. Each tree
draws and splits exactly as it would alone, and the arithmetic and its
order are those of a per-feature scan of one node (tests/oracles.py keeps
one, and a depth-first tree built on it), so every threshold, and every
score, is the same bit for bit.

A forest evaluate big enough to pay for a fork grows its (fold, tree) units
in up to one process per CPU this process may run on: children forked for
the call grow their share and write the predictions into a mapping shared
with this process. Each tree is fixed by its fold's rows and its own seed,
so the score is the same bit for bit however many processes grow it.
Nothing sets the number.

evaluate_pairs scores several matrices of one column count in one such
fit, every pair's folds side by side, so the trees of each pair share
their rounds with the others' and each score keeps the bits evaluate
gives it alone; evaluate is its one-pair case.
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
    frac *= frac
    return 1.0 - frac.sum(axis=-1)


def _best_splits(X, y, nodes, feats, task, n_classes) -> list:
    """Find each node's impurity-minimizing (feature, threshold) among its
    candidates.

    nodes lists each node's rows of X, whose last row is all +inf and pads
    every node to the largest node's row count; feats holds each node's
    candidate features, one row per node. One pass over the (nodes, rows,
    candidates) block scores every candidate of every node: a stable sort
    of each column, which leaves the pads last and the real rows in their
    order, cumulative label sums along the sorted rows, and one best cut per
    feature, cuts at or past a node's last real row masked. Candidate
    thresholds are the midpoints between consecutive distinct sorted values.
    Among a node's features the largest gain wins, the lowest feature on
    ties, as a strict '>' scan in ascending feature order would pick. Every
    operation and its order is that of a search over one node alone, so
    each result is the same bit for bit. Returns (feature, threshold) per
    node, or None when nothing gains more than _MIN_GAIN.
    """
    sizes = np.array([rows.shape[0] for rows in nodes])
    # One pad row at least, so every node has the cut past its last real row.
    b, m, k, p = sizes.shape[0], int(sizes.max()) + 1, feats.shape[1], X.shape[1]
    node = np.arange(b)
    rows = np.full((b, m), X.shape[0] - 1)
    rows[np.arange(m) < sizes[:, None]] = np.concatenate(nodes)
    block = X.take(rows[:, :, None] * p + feats[:, None, :])
    order = np.argsort(block, axis=1, kind="stable")
    xs_s = block.take(order * k + (node * (m * k))[:, None, None] + np.arange(k))
    ys = y.take(rows.take(order + (node * m)[:, None, None]))
    last = (node, sizes - 1)
    n = sizes.astype(float)[:, None, None]
    n_left = np.arange(1.0, m)[:, None]
    n_right = n - n_left
    # Every cut is scored and the invalid ones masked afterwards, so
    # overflow and division by the pads' zero counts are expected there.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if task == CLASSIFICATION:
            # The (nodes, rows, candidates, classes) counts are the largest
            # arrays of a fit, so they are built, summed and turned into the
            # right side's counts in place.
            cum = np.zeros((b, m, k, n_classes))
            cum[node[:, None, None], np.arange(m)[:, None], np.arange(k), ys.astype(int)] = 1.0
            cum.cumsum(axis=1, out=cum)
            total = cum[last]
            parent_imp = _gini(total[:, 0], n[:, 0, 0])[:, None, None]
            left = cum[:, :-1]
            left_imp = n_left * _gini(left, n_left)
            right_counts = np.subtract(total[:, None], left, out=left)
            child_imp = (left_imp + n_right * _gini(right_counts, n_right)) / n
        else:
            # Each node's ys.var() spelled out. A sum's bits depend on its
            # length, so it runs over the node's own rows, not the padded ones.
            parent_imp = np.empty((b, 1, 1))
            for i, node_rows in enumerate(nodes):
                ys_node = y[node_rows]
                d = ys_node - ys_node.sum() / sizes[i]
                parent_imp[i] = (d * d).sum() / sizes[i]
            s1 = ys.cumsum(axis=1)
            s2 = (ys * ys).cumsum(axis=1)
            mean_l = s1[:, :-1] / n_left
            var_l = np.maximum(s2[:, :-1] / n_left - mean_l * mean_l, 0.0)
            mean_r = (s1[last][:, None] - s1[:, :-1]) / n_right
            var_r = np.maximum((s2[last][:, None] - s2[:, :-1]) / n_right - mean_r * mean_r, 0.0)
            child_imp = (n_left * var_l + n_right * var_r) / n
        gains = parent_imp - child_imp
    # X has no NaN, and the pads sort last as equal values, so only the cut
    # between a node's last real row and its first pad needs its own mask.
    gains[xs_s[:, 1:] <= xs_s[:, :-1]] = -np.inf
    gains[last] = -np.inf
    # argmax takes a feature's first NaN gain as its best, which then loses
    # to every feature, as the strict '>' does.
    cut = gains.argmax(axis=1)
    top = gains[node[:, None], cut, np.arange(k)]
    top[~(top > _MIN_GAIN)] = -np.inf
    j = top.argmax(axis=1)
    c = cut[node, j]
    thr = (xs_s[node, c, j] + xs_s[node, c + 1, j]) / 2.0
    found = top[node, j] != -np.inf
    return [
        (int(feats[i, j[i]]), float(thr[i])) if found[i] else None for i in range(b)
    ]


@dataclass(frozen=True)
class _Fold:
    """One cross-validation fold: its training rows and labels, its
    held-out rows and its model seed."""

    X: np.ndarray
    y: np.ndarray
    X_te: np.ndarray
    seed: int


@dataclass(frozen=True)
class _Stack:
    """The folds of one forest fit, with every fold's training rows stacked
    into one X, then one all-+inf row that pads nodes in _best_splits, and
    their labels into one y, then a 0 for the pad. Fold f owns rows
    starts[f]:starts[f + 1]; classes holds its class count (0 for
    regression)."""

    folds: list
    classes: list
    X: np.ndarray
    y: np.ndarray
    starts: np.ndarray
    X_te: np.ndarray
    te_starts: np.ndarray

    @classmethod
    def of(cls, folds: list, task: str) -> _Stack:
        p = folds[0].X.shape[1]
        return cls(
            folds,
            [int(fold.y.max()) + 1 if task == CLASSIFICATION else 0 for fold in folds],
            np.vstack([fold.X for fold in folds] + [np.full((1, p), np.inf)]),
            np.concatenate([fold.y for fold in folds] + [np.zeros(1)]),
            np.cumsum([0] + [fold.X.shape[0] for fold in folds]),
            np.vstack([fold.X_te for fold in folds]),
            np.cumsum([0] + [fold.X_te.shape[0] for fold in folds]),
        )


@dataclass(frozen=True)
class _Tree:
    """A tree being grown: the generator that draws its candidates, its
    fold, the row its predictions go to, and its open nodes, each (rows,
    held-out rows, depth, pure), the last one next."""

    rng: np.random.Generator
    fold: int
    out: np.ndarray
    nodes: list


def _runs(a: np.ndarray, sizes: np.ndarray) -> list:
    """a cut into consecutive runs of the given sizes."""
    ends = np.cumsum(sizes).tolist()
    return [a[s:e] for s, e in zip([0] + ends[:-1], ends)]


def _partition(stack: _Stack, rows: list, te: list, folds: list, feats: list, thrs: list) -> list:
    """Send each node's training rows rows[i] and held-out rows te[i], of
    fold folds[i], left where feature feats[i] is at most thrs[i] and right
    otherwise, all nodes at once. Returns per node its left and right child,
    each (rows, held-out rows, pure), pure when the side's labels are all
    equal, or None when a side is empty. Children keep their parent's row
    order."""
    p = stack.X.shape[1]
    sizes = np.array([r.shape[0] for r in rows])
    te_sizes = np.array([t.shape[0] for t in te])
    rows, te = np.concatenate(rows), np.concatenate(te)
    left = stack.X.take(rows * p + np.repeat(feats, sizes)) <= np.repeat(thrs, sizes)
    te_rows = te + np.repeat(stack.te_starts[folds], te_sizes)
    te_left = stack.X_te.take(te_rows * p + np.repeat(feats, te_sizes)) <= np.repeat(thrs, te_sizes)
    n_left = np.add.reduceat(left, np.cumsum(sizes) - sizes, dtype=np.intp)
    te_ends = np.cumsum(te_sizes)
    te_cum = np.concatenate([[0], np.cumsum(te_left)])
    te_n_left = te_cum[te_ends] - te_cum[te_ends - te_sizes]
    sides = []
    for side, te_side, n, n_te in (
        (left, te_left, n_left, te_n_left),
        (~left, ~te_left, sizes - n_left, te_sizes - te_n_left),
    ):
        # n[i] rows of node i go to this side; changes[j] counts the labels
        # among the side's first j that differ from the one before them.
        side_rows = rows[side]
        ys = stack.y.take(side_rows)
        changes = np.concatenate([[0, 0], np.cumsum(ys[1:] != ys[:-1])])
        ends = np.cumsum(n)
        pure = changes[ends] == changes[np.minimum(ends - n + 1, ends)]
        sides.append(zip(_runs(side_rows, n), _runs(te[te_side], n_te), pure.tolist()))
    # Midpoints of extreme adjacent values can overflow to inf or round onto
    # an endpoint, emptying one side; such a split carries no signal.
    return [
        (lt, rt) if lt[0].shape[0] and rt[0].shape[0] else None for lt, rt in zip(*sides)
    ]


def _fit_trees(stack: _Stack, share: list, task: str, max_depth: int, per_tree: list) -> None:
    """Grow tree t of fold f's forest for every (f, t) in share, each a CART
    tree on a bootstrap sample with sqrt(p) candidate features per node, and
    write its predictions for the fold's held-out rows into per_tree[f][t].

    Each tree grows depth first from its own generator, exactly as alone:
    it pops its nodes in preorder, writing the leaves, until it reaches a
    node that will try to split, whose candidates it draws. The trees grow
    in lockstep, so one round holds one such node per open tree, and
    _best_splits scores the round's nodes together, one call per size
    class (sizes within 4x of each other, so little of a block is padding)
    and class count; _partition then splits them all at once. A split sends
    the node's held-out rows left or right with the test it found on the
    training rows, and each leaf writes its value to the held-out rows that
    reach it. Growth reads only the training rows, so a tree and its draws
    depend only on its fold and t.
    """
    X, y = stack.X, stack.y
    p = X.shape[1]
    n_subset = math.isqrt(p)
    all_feats = np.arange(p)
    trees = []
    for f, t in share:
        fold, lo = stack.folds[f], stack.starts[f]
        n = fold.X.shape[0]
        rng = np.random.default_rng(np.random.SeedSequence([fold.seed, t]))
        sample = lo + np.sort(rng.integers(0, n, size=n))
        ys = y[sample]
        root = (sample, np.arange(fold.X_te.shape[0]), 0, bool((ys == ys[0]).all()))
        trees.append(_Tree(rng, f, per_tree[f][t], [root]))

    def leaf(tree: _Tree, rows, te) -> None:
        ys = y[rows]
        if task == CLASSIFICATION:
            classes = stack.classes[tree.fold]
            tree.out[te] = float(np.bincount(ys.astype(int), minlength=classes).argmax())
        else:
            tree.out[te] = float(ys.sum() / ys.shape[0])  # ys.mean() without the wrapper

    while trees:
        rounds: dict = {}  # (size class, class count) -> [(tree, rows, te, depth, feats)]
        for tree in trees:
            while tree.nodes:
                rows, te, depth, pure = tree.nodes.pop()
                if depth < max_depth and rows.shape[0] >= 2 and not pure:
                    if n_subset < p:
                        feats = tree.rng.choice(p, size=n_subset, replace=False)
                        feats.sort()
                    else:
                        feats = all_feats
                    key = (rows.shape[0].bit_length() // 2, stack.classes[tree.fold])
                    rounds.setdefault(key, []).append((tree, rows, te, depth, feats))
                    break
                leaf(tree, rows, te)
        splitting, found = [], []
        for (_, classes), batch in rounds.items():
            feats = np.array([node[4] for node in batch])
            splits = _best_splits(X, y, [node[1] for node in batch], feats, task, classes)
            for node, split in zip(batch, splits):
                if split is None:
                    leaf(*node[:3])
                else:
                    splitting.append(node)
                    found.append(split)
        if splitting:
            children = _partition(
                stack, [node[1] for node in splitting], [node[2] for node in splitting],
                [node[0].fold for node in splitting], *zip(*found),
            )
            for (tree, rows, te, depth, _), pair in zip(splitting, children):
                if pair is None:
                    leaf(tree, rows, te)
                else:
                    for child_rows, child_te, pure in reversed(pair):
                        tree.nodes.append((child_rows, child_te, depth + 1, pure))
        trees = [tree for tree in trees if tree.nodes]


def _combine(per_tree: np.ndarray, task: str, n_classes: int) -> np.ndarray:
    """A forest's prediction from its (trees, rows) predictions: the mean over
    trees for regression, the most-voted class (lowest on ties) otherwise."""
    if task == REGRESSION:
        return per_tree.mean(axis=0)
    votes = (per_tree[:, :, None] == np.arange(n_classes)).sum(axis=0)
    return votes.argmax(axis=1).astype(float)


# A forest fit forks only from this many tree-rows: trees times training
# rows, summed over folds. A fork costs its parent and child several ms of
# page faults besides the fork itself, and the parent keeps paying some
# after the call. On 2 shared vCPUs (Intel Xeon, BLAS at one thread),
# interleaved medians of evaluate with 3 folds x 10 trees, one child
# against none: 600 tree-rows (30 rows) took 1.9-2.1x as long, 900 1.12x,
# 1200 (60 rows) 0.88-1.19x over four runs, 1500 0.87-1.07x, 2000
# 0.81-0.88x and 6000 0.77x.
_FORK_MIN_WORK = 1500


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
    stack = _Stack.of(folds, task)
    units = [(f, t) for f in range(len(folds)) for t in range(cfg.trees)]

    def fit(share) -> None:
        _fit_trees(stack, share, task, cfg.max_depth, per_tree)

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
    return [_combine(pt, task, c) for pt, c in zip(per_tree, stack.classes)]


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


def _checked(X, y, task: str, cfg: EvalConfig) -> tuple:
    """X and y as float arrays, or DataError when they cannot be scored."""
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
    if _too_few_for_cv(X.shape[0], cfg.folds):
        raise DataError(f"{X.shape[0]} rows are too few for {cfg.folds}-fold CV")
    return X, y


def evaluate_pairs(pairs, task: str, cfg: EvalConfig) -> list:
    """The score evaluate gives each (X, y) of pairs, from one model call.

    Every pair's folds go to the model together, so a forest grows all of
    their trees in one lockstep fit. A tree depends only on its fold's rows
    and seed, so each score keeps its bits. Every X must have the same
    number of columns, which a forest's stacked rows need; ValueError
    otherwise.
    """
    checked = [_checked(X, y, task, cfg) for X, y in pairs]
    if len({X.shape[1] for X, _ in checked}) != 1:
        raise ValueError("evaluate_pairs needs one or more matrices of one column count")
    # Labels near the float limit overflow into a non-finite score, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        splits, folds = [], []
        for X, y in checked:
            n = X.shape[0]
            perm = np.random.default_rng(np.random.SeedSequence([cfg.seed, 977])).permutation(n)
            fold_of = np.empty(n, dtype=int)
            fold_of[perm] = np.arange(n) % cfg.folds
            unit = scaled_stat(lambda u: u @ u, y)[1] if task == REGRESSION else 1.0
            splits.append((y, fold_of, unit))
            for f in range(cfg.folds):
                te = fold_of == f
                fold_seed = np.random.SeedSequence([cfg.seed, 101, f]).generate_state(1)[0]
                folds.append(_Fold(X[~te], y[~te] / unit, X[te], int(fold_seed)))
        fold_preds = iter(_MODELS[cfg.model](folds, task, cfg))
        scores = []
        for y, fold_of, unit in splits:
            preds = np.empty(y.shape[0])
            for f in range(cfg.folds):
                preds[fold_of == f] = next(fold_preds) * unit
            scores.append(macro_f1(y, preds) if task == CLASSIFICATION else one_minus_rae(y, preds))
    for score in scores:
        if not math.isfinite(score):
            raise DataError(f"the {task} score is not finite; the labels may overflow")
    return scores


def evaluate(X, y, task: str, cfg: EvalConfig) -> float:
    """Pooled out-of-fold score under seeded k-fold cross validation.

    Regression labels whose sum of squares overflows are fitted in the
    power-of-two units of scaled_stat. Raises DataError when the score is
    not finite.
    """
    return evaluate_pairs([(X, y)], task, cfg)[0]


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
