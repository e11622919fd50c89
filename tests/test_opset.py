"""The seventeen feature-construction operations and their rejection rule."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import rankdata

from tcto.opset import (
    EPSILON,
    N_OPERATIONS,
    OP_BY_NAME,
    OPERATIONS,
    UNARY_OPERATIONS,
    apply_binary,
    apply_unary,
    binary_values,
    unary_values,
)

EXPECTED_TABLE = [
    (0, "square", 1, False),
    (1, "cube", 1, False),
    (2, "sqrt", 1, False),
    (3, "sin", 1, False),
    (4, "cos", 1, False),
    (5, "log", 1, False),
    (6, "exp", 1, False),
    (7, "tanh", 1, False),
    (8, "sigmoid", 1, False),
    (9, "reciprocal", 1, False),
    (10, "stand_scaler", 1, False),
    (11, "minmax_scaler", 1, False),
    (12, "quantile_transform", 1, False),
    (13, "add", 2, True),
    (14, "subtract", 2, False),
    (15, "multiply", 2, True),
    (16, "divide", 2, False),
]


def test_operation_table_is_stable():
    got = [(op.id, op.name, op.arity, op.commutative) for op in OPERATIONS]
    assert got == EXPECTED_TABLE
    assert N_OPERATIONS == 17
    assert len(UNARY_OPERATIONS) == 13
    assert sum(op.arity == 2 for op in OPERATIONS) == 4
    assert [op.id for op in OPERATIONS] == list(range(17))


# -- hand-checked values ---------------------------------------------------


def test_sqrt_uses_absolute_values():
    out = unary_values(OP_BY_NAME["sqrt"], [-4.0, 9.0])
    assert np.array_equal(out, [2.0, 3.0])


def test_minmax_scales_to_unit_interval():
    out = unary_values(OP_BY_NAME["minmax_scaler"], [1.0, 2.0, 3.0])
    assert np.allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


def test_sin_on_quarter_turn():
    out = unary_values(OP_BY_NAME["sin"], [0.0, math.pi / 2.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-12)


def test_square_and_cube():
    assert np.array_equal(unary_values(OP_BY_NAME["square"], [2.0, -3.0]), [4.0, 9.0])
    assert np.array_equal(unary_values(OP_BY_NAME["cube"], [2.0, -2.0]), [8.0, -8.0])


def test_log_is_guarded_near_zero():
    out = unary_values(OP_BY_NAME["log"], [0.0, 1.0, math.e])
    assert abs(out[0] - math.log(EPSILON)) < 1e-9
    assert abs(out[1]) < 1e-9
    assert abs(out[2] - 1.0) < 1e-9


def test_exp_is_clamped():
    out = unary_values(OP_BY_NAME["exp"], [1000.0, -1000.0])
    assert np.all(np.isfinite(out))
    assert out[0] == math.exp(50.0)
    assert out[1] == math.exp(-50.0)


def test_reciprocal_is_guarded_at_zero():
    out = unary_values(OP_BY_NAME["reciprocal"], [0.0, 2.0, -2.0])
    assert out[0] == 1.0 / EPSILON
    assert abs(out[1] - 0.5) < 1e-9
    assert abs(out[2] + 0.5) < 1e-9


def test_sigmoid_and_tanh_at_zero():
    assert unary_values(OP_BY_NAME["sigmoid"], [0.0])[0] == 0.5
    assert unary_values(OP_BY_NAME["tanh"], [0.0])[0] == 0.0


def test_standard_scaler_uses_population_std():
    out = unary_values(OP_BY_NAME["stand_scaler"], [1.0, 2.0, 3.0])
    r = math.sqrt(3.0 / 2.0)
    assert np.allclose(out, [-r, 0.0, r], atol=1e-12)


def test_standard_scaler_of_constant_column_is_zero():
    out = unary_values(OP_BY_NAME["stand_scaler"], [5.0, 5.0, 5.0])
    assert np.array_equal(out, [0.0, 0.0, 0.0])


def test_quantile_transform_ranks():
    out = unary_values(OP_BY_NAME["quantile_transform"], [30.0, 10.0, 20.0])
    assert np.array_equal(out, [1.0, 0.0, 0.5])
    tied = unary_values(OP_BY_NAME["quantile_transform"], [1.0, 1.0, 2.0])
    assert np.array_equal(tied, [0.25, 0.25, 1.0])


def test_divide_is_guarded_at_zero():
    out = binary_values(OP_BY_NAME["divide"], [1.0, 1.0, 1.0], [0.0, 2.0, -2.0])
    assert out[0] == 1.0 / EPSILON
    assert abs(out[1] - 0.5) < 1e-9
    assert abs(out[2] + 0.5) < 1e-9


def test_binary_arithmetic():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0])
    assert np.array_equal(binary_values(OP_BY_NAME["add"], a, b), [4.0, 7.0])
    assert np.array_equal(binary_values(OP_BY_NAME["subtract"], a, b), [-2.0, -3.0])
    assert np.array_equal(binary_values(OP_BY_NAME["multiply"], a, b), [3.0, 10.0])


# -- rejection rule ----------------------------------------------------------


def test_constant_output_is_rejected():
    assert apply_unary(OP_BY_NAME["square"], [3.0, 3.0, -3.0]) is None
    assert apply_binary(OP_BY_NAME["subtract"], [1.0, 2.0], [1.0, 2.0]) is None


def test_non_finite_output_is_rejected():
    assert apply_binary(OP_BY_NAME["multiply"], [1e200, 1.0], [1e200, 1.0]) is None


def test_constant_output_near_the_float_limit_is_rejected():
    half = np.full(60, 0.85e308)
    assert apply_binary(OP_BY_NAME["add"], half, half) is None


def test_spread_output_near_the_float_limit_is_accepted_quietly():
    v = np.tile([-1e308, 1e308], 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_binary(OP_BY_NAME["add"], v, np.zeros(60))
    assert np.array_equal(out, v)


def test_useful_output_is_passed_through_unchanged():
    v = np.array([1.0, 2.0, 3.0])
    out = apply_unary(OP_BY_NAME["square"], v)
    assert np.array_equal(out, unary_values(OP_BY_NAME["square"], v))


def test_arity_is_enforced():
    with pytest.raises(ValueError):
        apply_unary(OP_BY_NAME["add"], [1.0, 2.0])
    with pytest.raises(ValueError):
        apply_binary(OP_BY_NAME["sin"], [1.0], [2.0])
    with pytest.raises(ValueError):
        unary_values(OP_BY_NAME["divide"], [1.0])
    with pytest.raises(ValueError):
        binary_values(OP_BY_NAME["cos"], [1.0], [2.0])


vectors = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2,
    max_size=30,
).map(lambda xs: np.array(xs))


@given(vectors, st.sampled_from([op.name for op in UNARY_OPERATIONS]))
@settings(max_examples=200)
def test_unary_results_are_finite_or_rejected(v, name):
    op = OP_BY_NAME[name]
    out = apply_unary(op, v)
    if out is not None:
        assert np.all(np.isfinite(out))
        assert out.std() >= 1e-12
        assert np.array_equal(out, unary_values(op, v))


@given(vectors, vectors, st.sampled_from([op.name for op in OPERATIONS if op.arity == 2]))
@settings(max_examples=200)
def test_binary_results_are_finite_or_rejected(a, b, name):
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    op = OP_BY_NAME[name]
    out = apply_binary(op, a, b)
    if out is not None:
        assert np.all(np.isfinite(out))
        assert out.std() >= 1e-12


@given(vectors, vectors)
@settings(max_examples=100)
def test_commutative_operations_commute(a, b):
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    for name in ("add", "multiply"):
        op = OP_BY_NAME[name]
        assert np.array_equal(binary_values(op, a, b), binary_values(op, b, a))


# -- bit-exact against scipy ----------------------------------------------------

# exp(-t) overflows just below t = -709.78 and reaches the subnormals, then
# zero, near t = 745
_EDGES = [0.0, -0.0, 709.78, -709.78, 709.79, -709.79, 745.0, -745.0, 746.0, -746.0]
_EDGES += [math.log(sys.float_info.max) * s for s in (1.0, -1.0)]
_EDGES += [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]
_EDGES += [math.nextafter(e, d) for e in _EDGES for d in (-math.inf, math.inf)]

edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-800.0, max_value=800.0),
    st.sampled_from(_EDGES),
)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@given(st.lists(edge_floats, min_size=1, max_size=40).map(np.array))
@example(np.array(_EDGES))
@settings(max_examples=300)
def test_sigmoid_matches_expit_bit_for_bit(v):
    assert _same_bits(unary_values(OP_BY_NAME["sigmoid"], v), expit(v))


# a pool of at most four values, so most columns are full of ties
tie_heavy = st.lists(edge_floats, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=40)
)
columns = st.one_of(st.lists(edge_floats, min_size=2, max_size=40), tie_heavy).map(np.array)


@given(columns)
@example(np.array([0.0, -0.0]))
@example(np.array([1e300, -1e300]))
@example(np.array([-0.0, 0.0, 0.0, 5e-324, -0.0]))
@settings(max_examples=300)
def test_quantile_transform_matches_rankdata_bit_for_bit(v):
    want = (rankdata(v, method="average") - 1.0) / (v.size - 1.0)
    assert _same_bits(unary_values(OP_BY_NAME["quantile_transform"], v), want)
