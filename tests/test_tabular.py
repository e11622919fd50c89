"""Column statistics, dataset validation, CSV ingestion and splitting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_classification_dataset
from oracles import stats7
from tcto.tabular import (
    CLASSIFICATION,
    REGRESSION,
    STAT_DIM,
    DataError,
    Dataset,
    column_stats,
    equal_width_bins,
    load_csv,
    stratified_split,
    stratified_split_indices,
)

finite_columns = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=50,
)


# -- column statistics -------------------------------------------------------


def test_constant_column_stats():
    s = column_stats([2.0, 2.0, 2.0])
    assert s.tolist() == [2.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0]


def test_mean_and_median_of_one_to_four():
    mean, _, vmin, vmax, q1, median, q3 = column_stats([1.0, 2.0, 3.0, 4.0])
    assert mean == 2.5
    assert median == 2.5
    assert q1 == 1.75
    assert q3 == 3.25
    assert (vmin, vmax) == (1.0, 4.0)


def test_std_is_population_std():
    _, std, *_ = column_stats([0.0, 10.0])
    assert std == 5.0


@given(finite_columns)
@settings(max_examples=100)
def test_column_stats_match_reference(values):
    got = column_stats(values)
    want = np.array(stats7(values))
    assert np.allclose(got, want, rtol=1e-10, atol=1e-9)


@given(finite_columns, st.randoms(use_true_random=False))
def test_column_stats_ignore_order(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    a_mean, a_std, *a_sorted = column_stats(shuffled)
    b_mean, b_std, *b_sorted = column_stats(values)
    # Sorting-based fields see the same multiset, so they are bit-exact.
    assert a_sorted == b_sorted
    # Summation order moves mean and std by at most a few ulps of the scale.
    scale = 1.0 + max(abs(v) for v in values)
    assert math.isclose(a_mean, b_mean, rel_tol=1e-9, abs_tol=1e-9 * scale)
    assert math.isclose(a_std, b_std, rel_tol=1e-9, abs_tol=1e-9 * scale)


@given(finite_columns)
def test_quartiles_are_sorted(values):
    _, std, vmin, vmax, q1, median, q3 = column_stats(values)
    assert vmin <= q1 <= median <= q3 <= vmax
    assert std >= 0.0


@pytest.mark.parametrize(
    "values", [[-1e308, 1e308], [-1e308, -1e308, 1e308, 1e308, 1e308]]
)
def test_stats_near_the_float_limit_are_finite_and_ordered(values):
    s = column_stats(values)
    assert np.all(np.isfinite(s))
    mean, std, vmin, vmax, q1, median, q3 = s
    assert (vmin, vmax) == (min(values), max(values))
    assert vmin <= q1 <= median <= q3 <= vmax
    assert vmin <= mean <= vmax
    assert std >= 0.0


def test_stats_that_do_not_overflow_keep_their_plain_values():
    v = np.array([1e150, -3e149, 7.0, 2.5e149])
    mean, std, _, _, q1, median, q3 = column_stats(v)
    want = (v.mean(), v.std(), *np.quantile(v, [0.25, 0.5, 0.75]))
    assert (mean, std, q1, median, q3) == want


def test_stats_reject_empty_and_non_finite():
    with pytest.raises(DataError):
        column_stats([])
    with pytest.raises(DataError):
        column_stats([1.0, np.nan])
    with pytest.raises(DataError):
        column_stats([np.inf])


def test_column_stats_is_one_read_only_float64_vector():
    s = column_stats([1.0, 2.0, 9.0])
    assert s.dtype == np.float64 and s.shape == (STAT_DIM,)
    with pytest.raises(ValueError):
        s[0] = 0.0


# -- dataset invariants --------------------------------------------------------


def test_dataset_columns_are_read_only():
    d = make_classification_dataset()
    with pytest.raises(ValueError):
        d.columns[0][0] = 99.0
    with pytest.raises(ValueError):
        d.labels[0] = 99.0


def test_dataset_rejects_bad_shapes_and_values():
    with pytest.raises(DataError):
        Dataset(("a",), (np.array([1.0]),), np.array([0.0]), CLASSIFICATION)
    with pytest.raises(DataError):
        Dataset(
            ("a", "b"),
            (np.array([1.0, 2.0]), np.array([1.0])),
            np.array([0.0, 1.0]),
            CLASSIFICATION,
        )
    with pytest.raises(DataError):
        Dataset(
            ("a",), (np.array([1.0, np.nan]),), np.array([0.0, 1.0]), CLASSIFICATION
        )
    with pytest.raises(DataError):
        Dataset(("a",), (np.array([1.0, 2.0]),), np.array([0.0]), REGRESSION)
    with pytest.raises(DataError):
        Dataset(("a",), (np.array([1.0, 2.0]),), np.array([0.0, 1.0]), "ranking")


def test_classification_labels_must_be_nonnegative_integers():
    col = (np.array([1.0, 2.0]),)
    with pytest.raises(DataError):
        Dataset(("a",), col, np.array([0.0, 0.5]), CLASSIFICATION)
    with pytest.raises(DataError):
        Dataset(("a",), col, np.array([-1.0, 0.0]), CLASSIFICATION)
    d = Dataset(("a",), col, np.array([0.0, 3.0]), CLASSIFICATION)
    assert d.n_classes == 4


def test_subset_selects_rows_in_order():
    d = make_classification_dataset(n=10)
    sub = d.subset([7, 1, 3])
    assert sub.n_rows == 3
    assert np.array_equal(sub.columns[0], d.columns[0][[7, 1, 3]])
    assert np.array_equal(sub.labels, d.labels[[7, 1, 3]])
    assert sub.task == d.task


def test_matrix_stacks_columns():
    d = make_classification_dataset(n=6, p=2)
    m = d.matrix()
    assert m.shape == (6, 2)
    assert np.array_equal(m[:, 1], d.columns[1])


# -- CSV ingestion -------------------------------------------------------------


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_classification(tmp_path):
    path = _write(tmp_path, "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
    d = load_csv(path, CLASSIFICATION, "label")
    assert d.column_names == ("a", "b")
    assert np.array_equal(d.columns[0], [1.0, 3.0, 5.0])
    assert np.array_equal(d.labels, [0.0, 1.0, 0.0])
    assert d.dropped_rows == 0


def test_load_csv_label_position_is_flexible(tmp_path):
    path = _write(tmp_path, "label,a\nx,1\ny,2\n")
    d = load_csv(path, CLASSIFICATION, "label")
    assert d.column_names == ("a",)
    assert np.array_equal(d.columns[0], [1.0, 2.0])


def test_load_csv_drops_bad_rows(tmp_path):
    path = _write(
        tmp_path,
        "a,label\n1,x\noops,y\ninf,y\n2,y\n3,\n4,x\n5\n",
    )
    d = load_csv(path, CLASSIFICATION, "label")
    assert d.n_rows == 3
    assert d.dropped_rows == 4
    assert np.array_equal(d.columns[0], [1.0, 2.0, 4.0])


def test_load_csv_regression_needs_numeric_labels(tmp_path):
    path = _write(tmp_path, "a,label\n1,0.5\n2,oops\n3,1.5\n")
    d = load_csv(path, REGRESSION, "label")
    assert d.n_rows == 2
    assert d.dropped_rows == 1
    assert np.array_equal(d.labels, [0.5, 1.5])


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv", REGRESSION, "label")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, ""), REGRESSION, "label")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "a,b\n1,2\n3,4\n"), REGRESSION, "label")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "label\nx\ny\n"), CLASSIFICATION, "label")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "a,label\n1,x\n2,x\n"), CLASSIFICATION, "label")
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "a,label\n1,x\n"), CLASSIFICATION, "label")


@pytest.mark.parametrize(
    "header,name,count",
    [
        ("x,label,label", "label", 2),
        ("a,a,label", "a", 2),
        ("a,label,a,a", "a", 3),
        (" a,label,a ", "a", 2),
    ],
    ids=["label-twice", "feature-twice", "feature-thrice", "spaced-feature-twice"],
)
def test_load_csv_refuses_a_header_that_names_a_column_twice(tmp_path, header, name, count):
    width = header.count(",") + 1
    rows = "".join(",".join(str(i + j) for j in range(width)) + "\n" for i in range(4))
    path = _write(tmp_path, header + "\n" + rows)
    with pytest.raises(DataError, match=f"column '{name}' appears {count} times"):
        load_csv(path, REGRESSION, "label")


# -- binning and splitting ------------------------------------------------------


def test_equal_width_bins_cover_the_range():
    assert equal_width_bins([3.0, 3.0, 3.0]).tolist() == [0, 0, 0]
    bins = equal_width_bins([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 5)
    assert bins.tolist() == [0, 1, 2, 3, 4, 4]


def test_equal_width_bins_past_the_float_limit():
    v = np.linspace(-1.0, 1.0, 60) * 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bins = equal_width_bins(v)
    assert np.bincount(bins).tolist() == [12] * 5


def test_split_counts_per_class():
    labels = np.array([0.0] * 10 + [1.0] * 10)
    d = Dataset(
        ("a",), (np.arange(20, dtype=float),), labels, CLASSIFICATION
    )
    train_idx, test_idx = stratified_split_indices(d, 0.2, seed=3)
    assert test_idx.size == 4
    assert np.sum(d.labels[test_idx] == 0.0) == 2
    assert np.sum(d.labels[test_idx] == 1.0) == 2
    assert train_idx.size == 16


def test_split_is_deterministic_in_seed():
    d = make_classification_dataset(n=50)
    a = stratified_split_indices(d, 0.25, seed=9)
    b = stratified_split_indices(d, 0.25, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_tiny_groups_stay_in_training_split():
    labels = np.array([0.0] * 9 + [2.0])
    d = Dataset(("a",), (np.arange(10, dtype=float),), labels, CLASSIFICATION)
    with pytest.warns(UserWarning):
        train_idx, test_idx = stratified_split_indices(d, 0.2, seed=0)
    assert 9 in train_idx
    assert np.all(d.labels[test_idx] == 0.0)


def test_split_fraction_bounds():
    d = make_classification_dataset()
    for frac in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DataError):
            stratified_split_indices(d, frac, seed=0)


@given(st.integers(0, 2**31 - 1), st.integers(12, 48), st.floats(0.1, 0.45))
@settings(max_examples=40, deadline=None)
def test_split_partitions_the_rows(seed, n, frac):
    rng = np.random.default_rng(seed)
    d = Dataset(
        ("a", "b"),
        (rng.normal(size=n), rng.normal(size=n)),
        np.arange(n, dtype=float) % 3,
        CLASSIFICATION,
    )
    train_idx, test_idx = stratified_split_indices(d, frac, seed)
    merged = np.sort(np.concatenate([train_idx, test_idx]))
    assert np.array_equal(merged, np.arange(n))
    # Tiny fractions can round a stratum's test draw down to nothing; the
    # dataset constructor rejects such degenerate sides, so only build the
    # splits when both carry enough rows.
    if train_idx.size >= 2 and test_idx.size >= 2:
        train, test = stratified_split(d, frac, seed)
        assert train.n_rows + test.n_rows == n
