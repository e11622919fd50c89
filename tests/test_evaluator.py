"""Downstream scoring: metrics, tree growth, cross validation and MI."""

import math
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_split_reference, grow_reference, plug_in_mi, tree_reference
from tcto import evaluator
from tcto.evaluator import (
    EvalConfig,
    _best_splits,
    _fit_trees,
    _Fold,
    _forest_folds,
    _Stack,
    evaluate,
    evaluate_pairs,
    macro_f1,
    mutual_information,
    one_minus_rae,
)
from tcto.tabular import CLASSIFICATION, REGRESSION, DataError


# -- metrics --------------------------------------------------------------------


def test_macro_f1_is_one_for_perfect_predictions():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert macro_f1(y, y) == 1.0


def test_macro_f1_is_zero_when_every_binary_label_is_flipped():
    y = np.array([0, 0, 1, 1])
    assert macro_f1(y, 1 - y) == 0.0


def test_macro_f1_hand_worked_value():
    assert macro_f1([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(11.0 / 15.0, abs=1e-12)


def test_macro_f1_averages_over_the_union_of_classes():
    assert macro_f1([0, 0], [1, 1]) == 0.0
    assert macro_f1([0, 1], [0, 2]) == pytest.approx((1.0 + 0.0 + 0.0) / 3.0)


def test_one_minus_rae_is_one_for_exact_predictions():
    y = np.array([1.0, 2.0, 5.0])
    assert one_minus_rae(y, y) == 1.0


def test_one_minus_rae_is_zero_for_the_mean_predictor():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    assert one_minus_rae(y, np.full(4, y.mean())) == 0.0


def test_one_minus_rae_hand_pair():
    assert one_minus_rae([0.0, 2.0], [1.0, 1.0]) == 0.0


def test_one_minus_rae_of_constant_targets_is_zero():
    y = np.full(5, 3.0)
    assert one_minus_rae(y, y) == 0.0
    assert one_minus_rae(y, y + 1.0) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_metrics_are_capped_at_one_and_reach_it_only_exactly(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=8)
    p = y + rng.normal(size=8) * 0.1
    score = one_minus_rae(y, p)
    assert score <= 1.0
    if not np.array_equal(y, p):
        assert score < 1.0
    labels = rng.integers(0, 3, size=12)
    preds = rng.integers(0, 3, size=12)
    f1 = macro_f1(labels, preds)
    assert f1 <= 1.0
    if np.array_equal(labels, preds):
        assert f1 == 1.0


# -- tree models -------------------------------------------------------------------


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(2, 40), min_size=1, max_size=6),
    p=st.integers(1, 6),
    values=st.sampled_from(["tied", "normal", "huge"]),
    constant=st.booleans(),
    bootstrap=st.booleans(),
    offset=st.sampled_from([0.0, 1e8]),
)
@settings(max_examples=150, deadline=None)
def test_split_search_matches_the_per_feature_reference(
    task, seed, sizes, p, values, constant, bootstrap, offset
):
    """One batch of nodes of mixed sizes, two-row nodes among them: tied
    values, duplicated bootstrap rows, constant columns, +-1e300
    magnitudes, where gains become inf or NaN, and labels offset by 1e8,
    where the running variances cancel below zero."""
    rng = np.random.default_rng(seed)
    n = 30
    # "huge" scales a random part of the rows by 1e300, so sums of squares
    # overflow part of the way along a sorted column.
    scale = np.where(rng.random(n) < 0.5, 1e300, 1.0) if values == "huge" else np.ones(n)
    if values == "tied":
        X = rng.integers(0, 3, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p)) * scale[:, None]
    if constant:
        X[:, int(rng.integers(p))] = 1.5
    if task == CLASSIFICATION:
        y = rng.integers(0, int(rng.integers(1, 11)), size=n).astype(float)
        n_classes = int(y.max()) + 1
    else:
        y = rng.normal(size=n) * scale + offset
        n_classes = 0
    # Without bootstrap a node has distinct rows, so at most n of them.
    nodes = [
        np.sort(rng.integers(0, n, size=size) if bootstrap else rng.permutation(n)[:size])
        for size in sizes
    ]
    k = int(rng.integers(1, p + 1))
    feats = np.array([np.sort(rng.choice(p, size=k, replace=False)) for _ in sizes])
    # _best_splits reads X and y with their all-+inf pad row below.
    padded_X = np.vstack([X, np.full((1, p), np.inf)])
    padded_y = np.append(y, 0.0)
    assert _best_splits(padded_X, padded_y, nodes, feats, task, n_classes) == [
        best_split_reference(X, y, rows, f, task, n_classes) for rows, f in zip(nodes, feats)
    ]


def _folds(X, y, n_folds, seed):
    """Each fold's training rows, labels and held-out rows, from a seeded
    permutation as evaluate makes them, and each fold's model seed."""
    fold_of = np.random.default_rng(seed).permutation(X.shape[0]) % n_folds
    return [
        _Fold(X[fold_of != f], y[fold_of != f], X[fold_of == f], seed + 101 * f)
        for f in range(n_folds)
    ]


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 40),
    p=st.integers(1, 6),
    max_depth=st.integers(0, 8),
    n_folds=st.integers(2, 3),
    trees=st.integers(1, 4),
    workers=st.integers(1, 3),
    lone_class=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_trees_match_the_reference_trees(
    task, seed, n, p, max_depth, n_folds, trees, workers, lone_class
):
    """Every tree of a share, grown in lockstep with the share's other
    trees, predicts what the depth-first reference tree predicts alone.
    With lone_class one row holds the top class, so a fold that holds it
    out lacks it and the share mixes class counts; p = 1 takes every
    feature at every node."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if task == CLASSIFICATION:
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
        if lone_class:
            y[0] = 2.0
    else:
        y = X[:, 0] - X[:, -1] ** 2 + 0.1 * rng.normal(size=n)
    folds = _folds(X, y, n_folds, seed % 1000)
    stack = _Stack.of(folds, task)
    per_tree = [np.full((trees, fold.X_te.shape[0]), np.nan) for fold in folds]
    units = [(f, t) for f in range(n_folds) for t in range(trees)]
    share = units[int(rng.integers(workers)) :: workers]
    _fit_trees(stack, share, task, max_depth, per_tree)
    for f, t in units:
        fold = folds[f]
        if (f, t) in share:
            want = tree_reference(
                fold.X, fold.y, fold.X_te, fold.seed, t, max_depth, task, stack.classes[f]
            )
            assert np.array_equal(per_tree[f][t], want)
        else:
            assert np.isnan(per_tree[f][t]).all()


def _one_forest(X, y, X_te, task, cfg):
    """One forest's predictions for X_te, trained on (X, y) with model seed cfg.seed."""
    return _forest_folds([_Fold(X, y, X_te, cfg.seed)], task, cfg)[0]


def _single_tree(X, y, task, max_depth):
    """One reference tree's predictions on X, grown on every row with every feature."""
    n = X.shape[0]
    n_classes = int(y.max()) + 1 if task == CLASSIFICATION else 0
    out = np.empty(n)
    rows = np.arange(n)
    grow_reference(X, y, rows, X, rows, out, 0, max_depth, None, X.shape[1], task, n_classes)
    return out


def test_single_threshold_feature_is_learned_perfectly():
    x = np.linspace(-1.0, 1.0, 30)
    y = (x > 0.15).astype(float)
    assert macro_f1(y, _single_tree(x[:, None], y, "classification", max_depth=8)) == 1.0


def test_depth_zero_tree_predicts_majority_or_mean():
    X = np.arange(10.0)[:, None]
    y_cls = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    assert np.all(_single_tree(X, y_cls, "classification", max_depth=0) == 0.0)

    y_reg = np.arange(10.0)
    assert np.all(_single_tree(X, y_reg, "regression", max_depth=0) == y_reg.mean())


def test_depth_zero_forest_is_a_constant_predictor():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    y = np.array([0.0] * 18 + [1.0] * 2)
    preds = _one_forest(X, y, X, "classification", EvalConfig(trees=10, max_depth=0))
    assert np.unique(preds).size == 1
    assert preds[0] == 0.0


def test_single_tree_overfits_the_identity_map():
    x = np.linspace(0.0, 1.0, 100)
    assert one_minus_rae(x, _single_tree(x[:, None], x, "regression", max_depth=8)) > 0.9


def test_forest_regression_averages_its_trees():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(25, 2))
    y = X[:, 0] * 2.0
    cfg = EvalConfig(trees=3, max_depth=4)
    per_tree = np.array(
        [
            tree_reference(X, y, X, cfg.seed, t, cfg.max_depth, REGRESSION, 0)
            for t in range(cfg.trees)
        ]
    )
    assert np.unique(per_tree, axis=0).shape[0] == cfg.trees
    assert np.array_equal(_one_forest(X, y, X, REGRESSION, cfg), per_tree.mean(axis=0))


def test_held_out_rows_do_not_change_the_tree():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = X[:, 0] - X[:, 1] ** 2
    X_te = rng.normal(size=(7, 4))
    cfg = EvalConfig(trees=4, max_depth=5, seed=3)
    both = _one_forest(X, y, np.vstack([X, X_te]), REGRESSION, cfg)
    assert np.array_equal(both[:30], _one_forest(X, y, X, REGRESSION, cfg))
    assert np.array_equal(both[30:], _one_forest(X, y, X_te, REGRESSION, cfg))
    assert _one_forest(X, y, X[:0], REGRESSION, cfg).shape == (0,)


# -- cross validation -----------------------------------------------------------------


def _separable(n=60, seed=2):
    rng = np.random.default_rng(seed)
    y = np.tile([0.0, 1.0], n // 2)
    x = y * 2.0 - 1.0 + 0.05 * rng.normal(size=n)
    return x[:, None], y


def test_separable_data_scores_a_perfect_cv_f1():
    X, y = _separable()
    assert evaluate(X, y, "classification", EvalConfig()) == 1.0


def test_pure_noise_scores_near_one_half_on_average():
    scores = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = np.tile([0.0, 1.0], 20)
        scores.append(evaluate(X, y, "classification", EvalConfig(seed=seed)))
    assert 0.4 <= float(np.mean(scores)) <= 0.6


def test_evaluate_is_deterministic_in_its_seed():
    X, y = _separable(seed=3)
    y = y + 0.1 * X[:, 0]
    a = evaluate(X, y, "regression", EvalConfig(seed=7))
    b = evaluate(X, y, "regression", EvalConfig(seed=7))
    assert a == b


def test_centroid_scores_ignore_column_order_exactly():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([1.0, -0.5, 0.25, 2.0])
    cfg = EvalConfig(model="nearest-centroid")
    perm = [2, 0, 3, 1]
    assert evaluate(X, y, "regression", cfg) == evaluate(X[:, perm], y, "regression", cfg)


def test_all_three_model_kinds_produce_bounded_scores():
    X, y = _separable(n=40, seed=5)
    for model in ("forest", "nearest-centroid"):
        score = evaluate(X, y, "classification", EvalConfig(model=model, folds=4))
        assert score <= 1.0


def test_huge_regression_labels_keep_their_score():
    # Past about 1e154 the split search's sums of squares would overflow.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = X[:, 0] * 2.0 + np.sin(X[:, 1]) + rng.normal(scale=0.1, size=60)
    cfg = EvalConfig(folds=3, trees=5, max_depth=4)
    scores = [evaluate(X, y * k, "regression", cfg) for k in (1.0, 1e150, 1e160, 1e200, 1e300)]
    assert scores[0] > 0.4
    assert max(scores) - min(scores) < 1e-12


def test_evaluate_input_validation():
    X = np.zeros((4, 2))
    y = np.zeros(4)
    with pytest.raises(DataError):
        evaluate(X, y, "classification", EvalConfig(folds=5))
    with pytest.raises(DataError):
        evaluate(X, y, "ranking", EvalConfig(folds=2))
    with pytest.raises(DataError):
        evaluate(X, np.zeros(5), "regression", EvalConfig(folds=2))
    with pytest.raises(DataError):
        evaluate(np.full((4, 2), np.nan), y, "regression", EvalConfig(folds=2))
    # Two folds of three rows leave one fold a single training row.
    with pytest.raises(DataError):
        evaluate(X[:3], y[:3], "regression", EvalConfig(folds=2))
    assert evaluate(X[:3], y[:3], "regression", EvalConfig(folds=3)) == 0.0


def _pairs(seed, task, sizes, p, lone_class):
    """One (X, y) per row count in sizes, all p wide; with lone_class the
    first pair's top class has one row, so the fold that holds it out
    lacks it."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in sizes:
        X = rng.normal(size=(n, p))
        if task == CLASSIFICATION:
            y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
        else:
            y = X[:, 0] - X[:, -1] ** 2 + 0.1 * rng.normal(size=n)
        pairs.append((X, y))
    if lone_class and task == CLASSIFICATION:
        pairs[0][1][0] = 2.0
    return pairs


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
@pytest.mark.parametrize("model", ["forest", "nearest-centroid"])
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(6, 40), min_size=2, max_size=3, unique=True),
    p=st.integers(1, 5),
    folds=st.integers(2, 3),
    trees=st.integers(1, 3),
    lone_class=st.booleans(),
    fork=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_pairs_scored_together_keep_the_bits_of_each_alone(
    task, model, seed, sizes, p, folds, trees, lone_class, fork
):
    """Pairs of one width and different row counts: each score equals
    evaluate on its pair alone, with the fit forked over 2 workers or not."""
    pairs = _pairs(seed, task, sizes, p, lone_class)
    cfg = EvalConfig(folds=folds, trees=trees, max_depth=4, seed=seed % 1000, model=model)
    alone = np.array([evaluate(X, y, task, cfg) for X, y in pairs])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_FORK_MIN_WORK", 0)
        mp.setattr(evaluator, "_cpu_count", lambda: 2 if fork else 1)
        together = np.array(evaluate_pairs(pairs, task, cfg))
    assert together.view(np.int64).tolist() == alone.view(np.int64).tolist()
    _assert_no_children()


def test_a_bad_pair_raises_what_evaluate_raises():
    good = (np.arange(12.0).reshape(6, 2), np.arange(6.0))
    cfg = EvalConfig(folds=2)
    bad_pairs = [
        (np.zeros(6), np.zeros(6)),
        (np.zeros((6, 2)), np.zeros(5)),
        (np.zeros((1, 2)), np.zeros(1)),
        (np.full((6, 2), np.inf), np.zeros(6)),
        (np.zeros((3, 2)), np.zeros(3)),
    ]
    for X, y in bad_pairs:
        with pytest.raises(DataError) as alone:
            evaluate(X, y, REGRESSION, cfg)
        with pytest.raises(DataError) as together:
            evaluate_pairs([good, (X, y)], REGRESSION, cfg)
        assert str(together.value) == str(alone.value)
    with pytest.raises(DataError, match="unknown task"):
        evaluate_pairs([good, good], "ranking", cfg)


def test_pairs_of_different_widths_are_refused():
    X = np.arange(24.0).reshape(12, 2)
    y = np.arange(12.0)
    with pytest.raises(ValueError):
        evaluate_pairs([(X, y), (X[:, :1], y)], REGRESSION, EvalConfig(folds=2))
    with pytest.raises(ValueError):
        evaluate_pairs([], REGRESSION, EvalConfig(folds=2))


def test_eval_config_validation():
    with pytest.raises(DataError):
        EvalConfig(folds=1)
    with pytest.raises(DataError):
        EvalConfig(trees=0)
    with pytest.raises(DataError):
        EvalConfig(max_depth=-1)
    with pytest.raises(DataError):
        EvalConfig(model="svm")
    with pytest.raises(DataError):
        EvalConfig(model="tree")
    assert EvalConfig(max_depth=0).max_depth == 0


# -- processes of a forest fit ---------------------------------------------------------


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children os.fork starts during the test."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started


@pytest.fixture()
def workers(monkeypatch, forks):
    """Sets the CPU count evaluate sees, with no size cut, so small fits fork too."""
    monkeypatch.setattr(evaluator, "_FORK_MIN_WORK", 0)
    return lambda n: monkeypatch.setattr(evaluator, "_cpu_count", lambda: n)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _three_class(n=30, seed=6):
    """Data whose top class has one row, so one fold's training rows lack it."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = np.where(np.arange(n) == 0, 2.0, (X[:, 0] > 0).astype(float))
    return X, y


@pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
@pytest.mark.parametrize("folds,trees", [(3, 4), (2, 1)])
def test_the_score_does_not_depend_on_the_worker_count(workers, forks, task, folds, trees):
    X, y = _three_class()
    if task == REGRESSION:
        y = X[:, 0] - X[:, 1] ** 2
    cfg = EvalConfig(folds=folds, trees=trees, max_depth=4)
    scores = []
    for n in (1, 2, 3):
        workers(n)
        before = len(forks)
        scores.append(evaluate(X, y, task, cfg))
        # One process per worker, and no more workers than (fold, tree) units.
        assert len(forks) - before == min(n, folds * trees) - 1
        _assert_no_children()
    assert scores[1] == scores[0] and scores[2] == scores[0]


def test_fits_below_the_cut_stay_in_process_and_one_above_it_forks(monkeypatch, forks):
    monkeypatch.setattr(evaluator, "_cpu_count", lambda: 2)
    cfg = EvalConfig(folds=3, trees=10, max_depth=5)
    X, y = _three_class(n=12)
    evaluate(X, y, CLASSIFICATION, EvalConfig(folds=2, trees=2, max_depth=3))
    # 10 trees x 3 folds x 48 training rows: 1440 tree-rows, under the cut.
    X, y = _three_class(n=72)
    evaluate(X, y, CLASSIFICATION, cfg)
    assert forks == []
    # 1560 tree-rows, over it.
    X, y = _three_class(n=78)
    evaluate(X, y, CLASSIFICATION, cfg)
    assert len(forks) == 1
    _assert_no_children()


def test_no_fork_while_another_thread_runs(forks):
    # 1800 tree-rows, a fit that forks when no other thread runs.
    X, y = _three_class(n=90)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        evaluate(X, y, CLASSIFICATION, EvalConfig(folds=3, trees=10, max_depth=5))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []


def test_a_fit_whose_children_succeed_grows_only_its_own_share(workers, forks, monkeypatch):
    X, y = _three_class()
    parent, fit_trees, in_parent = os.getpid(), evaluator._fit_trees, []

    def count_in_parent(stack, share, *args):
        if os.getpid() == parent:
            in_parent.extend(share)
        fit_trees(stack, share, *args)

    monkeypatch.setattr(evaluator, "_fit_trees", count_in_parent)
    workers(2)
    evaluate(X, y, CLASSIFICATION, EvalConfig(folds=3, trees=4, max_depth=4))
    assert len(forks) == 1
    assert len(in_parent) == 6  # half of the 3 x 4 units
    _assert_no_children()


@pytest.mark.parametrize(
    "die",
    [lambda: os._exit(3), lambda: os.kill(os.getpid(), signal.SIGKILL)],
    ids=["exit-3", "sigkill"],
)
def test_a_failed_child_has_its_trees_grown_in_the_parent(workers, forks, monkeypatch, die):
    X, y = _three_class()
    cfg = EvalConfig(folds=3, trees=4, max_depth=4)
    workers(1)
    expected = evaluate(X, y, CLASSIFICATION, cfg)
    parent, fit_trees, in_parent = os.getpid(), evaluator._fit_trees, []

    def fail_in_children(stack, share, *args):
        if os.getpid() != parent:
            die()
        in_parent.extend(share)
        fit_trees(stack, share, *args)

    monkeypatch.setattr(evaluator, "_fit_trees", fail_in_children)
    workers(2)
    assert evaluate(X, y, CLASSIFICATION, cfg) == expected
    assert len(forks) == 1
    # The parent grew its own 6 units and then the 6 of the child that died.
    assert sorted(in_parent) == sorted((f, t) for f in range(3) for t in range(4))
    _assert_no_children()


def test_no_child_outlives_an_exception_in_the_parents_share(workers, forks, monkeypatch):
    X, y = _three_class()
    parent, fit_trees = os.getpid(), evaluator._fit_trees

    def interrupt_the_parent(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        fit_trees(*args)

    monkeypatch.setattr(evaluator, "_fit_trees", interrupt_the_parent)
    workers(3)
    with pytest.raises(KeyboardInterrupt):
        evaluate(X, y, CLASSIFICATION, EvalConfig(folds=3, trees=4, max_depth=4))
    assert len(forks) == 2
    _assert_no_children()


# -- mutual information -----------------------------------------------------------------


def test_constant_feature_carries_no_information():
    y = np.tile([0.0, 1.0], 50)
    got = mutual_information(np.full(100, 3.7), y, "classification")
    assert got == pytest.approx(0.0, abs=1e-12)


def test_feature_equal_to_balanced_binary_labels_gives_ln_two():
    y = np.tile([0.0, 1.0], 50)
    assert mutual_information(y.copy(), y, "classification") == pytest.approx(
        math.log(2.0), abs=1e-9
    )


def test_mi_is_symmetric_under_class_relabeling():
    rng = np.random.default_rng(6)
    v = rng.normal(size=60)
    y = rng.integers(0, 3, size=60).astype(float)
    relabeled = np.select([y == 0, y == 1, y == 2], [2.0, 0.0, 1.0])
    a = mutual_information(v, y, "classification")
    b = mutual_information(v, relabeled, "classification")
    assert a == pytest.approx(b, abs=1e-12)


def test_mi_is_invariant_under_strictly_monotone_maps():
    rng = np.random.default_rng(7)
    v = rng.permutation(50).astype(float)
    y = rng.integers(0, 2, size=50).astype(float)
    assert mutual_information(v, y, "classification") == mutual_information(
        v**3, y, "classification"
    )
    t = rng.normal(size=50)
    assert mutual_information(v, t, "regression") == mutual_information(
        np.exp(v / 50.0), t, "regression"
    )


def test_mi_rejects_mismatched_lengths():
    with pytest.raises(DataError):
        mutual_information(np.zeros(4), np.zeros(5), "regression")


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("seed", range(10))
def test_mi_matches_the_independent_oracle(task, seed):
    rng = np.random.default_rng([seed, 11])
    n = int(rng.integers(5, 120))
    v = rng.normal(size=n)
    if task == "classification":
        y = rng.integers(0, 4, size=n).astype(float)
    else:
        y = rng.normal(size=n)
    got = mutual_information(v, y, task)
    want = plug_in_mi(v, y, task)
    assert got == pytest.approx(want, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_mi_is_never_negative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    v = rng.normal(size=n)
    y = rng.integers(0, 3, size=n).astype(float)
    assert mutual_information(v, y, "classification") >= 0.0
    assert mutual_information(v, rng.normal(size=n), "regression") >= 0.0
