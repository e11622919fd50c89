"""Downstream scoring: metrics, tree growth, cross validation and MI."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_split_reference, plug_in_mi
from tcto.evaluator import (
    EvalConfig,
    _best_split,
    _forest,
    _grow,
    evaluate,
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
    n=st.integers(2, 30),
    p=st.integers(1, 6),
    values=st.sampled_from(["tied", "normal", "huge"]),
    constant=st.booleans(),
    bootstrap=st.booleans(),
    offset=st.sampled_from([0.0, 1e8]),
)
@settings(max_examples=150, deadline=None)
def test_split_search_matches_the_per_feature_reference(
    task, seed, n, p, values, constant, bootstrap, offset
):
    """Tied values, duplicated bootstrap rows, constant columns, two-row
    nodes, +-1e300 magnitudes, where gains become inf or NaN, and labels
    offset by 1e8, where the running variances cancel below zero."""
    rng = np.random.default_rng(seed)
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
    idx = np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n)
    feats = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
    assert _best_split(X, y, idx, feats, task, n_classes) == best_split_reference(
        X, y, idx, feats, task, n_classes
    )


def _single_tree(X, y, task, max_depth):
    """One tree's predictions on X, grown by _grow on every row with every feature."""
    n = X.shape[0]
    n_classes = int(y.max()) + 1 if task == CLASSIFICATION else 0
    out = np.empty(n)
    rows = np.arange(n)
    _grow(X, y, rows, X, rows, out, 0, max_depth, None, X.shape[1], task, n_classes)
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
    preds = _forest(X, y, X, "classification", EvalConfig(trees=10, max_depth=0))
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
    per_tree = np.empty((cfg.trees, 25))
    for t, out in enumerate(per_tree):
        tree_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t]))
        sample = np.sort(tree_rng.integers(0, 25, size=25))
        _grow(X, y, sample, X, np.arange(25), out, 0, 4, tree_rng, math.isqrt(2), REGRESSION, 0)
    assert np.unique(per_tree, axis=0).shape[0] == cfg.trees
    assert np.array_equal(_forest(X, y, X, REGRESSION, cfg), per_tree.mean(axis=0))


def test_held_out_rows_do_not_change_the_tree():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = X[:, 0] - X[:, 1] ** 2
    X_te = rng.normal(size=(7, 4))
    cfg = EvalConfig(trees=4, max_depth=5, seed=3)
    both = _forest(X, y, np.vstack([X, X_te]), REGRESSION, cfg)
    assert np.array_equal(both[:30], _forest(X, y, X, REGRESSION, cfg))
    assert np.array_equal(both[30:], _forest(X, y, X_te, REGRESSION, cfg))
    assert _forest(X, y, X[:0], REGRESSION, cfg).shape == (0,)


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
