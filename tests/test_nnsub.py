"""Dense network substrate: forward values, gradients and parameter plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import central_difference, fd_close
from tcto import nnsub
from tcto.nnsub import (
    DenseNet,
    GradBuffers,
    backprop,
    clone,
    copy_params,
    forward,
    forward_cache,
    glorot_uniform,
    matmul,
    matmul_t,
)


def _net(dims, seed=0):
    return DenseNet.create(dims, np.random.default_rng(seed))


def _mse(net, x, target):
    """Squared-error loss and parameter gradients via forward_cache and
    backprop, the way agents.train_step drives them."""
    y, cache = forward_cache(net, x)
    diff = y - np.asarray(target, dtype=float)
    grads, _ = backprop(net, cache, 2.0 * diff)
    return float(np.sum(diff * diff)), grads


def _sgd(params, grads, lr):
    acc = GradBuffers(params)
    for i, g in enumerate(grads):
        acc.add(i, g)
    acc.sgd_step(lr)


# -- forward values ----------------------------------------------------------------


def test_zero_weights_pass_only_the_output_bias_through():
    net = _net([3, 2])
    net.weights[0][:] = 0.0
    net.biases[0][:] = [4.0, -1.5]
    assert np.array_equal(forward(net, [9.0, 9.0, 9.0]), [4.0, -1.5])


def test_identity_single_layer_returns_the_input():
    net = _net([2, 2])
    net.weights[0][:] = np.eye(2)
    net.biases[0][:] = 0.0
    assert np.array_equal(forward(net, [3.0, -7.0]), [3.0, -7.0])


def test_hand_worked_two_layer_value():
    net = _net([2, 2, 1])
    net.weights[0][:] = [[1.0, -1.0], [2.0, 0.5]]
    net.biases[0][:] = [0.5, -1.0]
    net.weights[1][:] = [[1.0], [-2.0]]
    net.biases[1][:] = [0.25]
    assert forward(net, [1.0, 2.0])[0] == pytest.approx(5.75, abs=1e-12)


def test_relu_applies_to_hidden_layers_only():
    net = _net([1, 1, 1])
    net.weights[0][:] = [[1.0]]
    net.biases[0][:] = 0.0
    net.weights[1][:] = [[1.0]]
    net.biases[1][:] = 0.0
    assert forward(net, [-5.0])[0] == 0.0
    net.biases[1][:] = [-3.0]
    assert forward(net, [-5.0])[0] == -3.0


def test_input_dimension_mismatch_is_rejected():
    net = _net([3, 2])
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0])


def test_batch_forward_matches_stacked_single_rows():
    net = _net([4, 6, 3], seed=5)
    rng = np.random.default_rng(8)
    batch = rng.normal(size=(7, 4))
    got = forward(net, batch)
    want = np.stack([forward(net, row) for row in batch])
    assert got.shape == (7, 3)
    assert np.allclose(got, want, atol=1e-12)


def test_create_validates_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        DenseNet.create([3], rng)
    with pytest.raises(ValueError):
        DenseNet.create([3, 0], rng)


def test_dims_property_reports_the_layer_sizes():
    assert _net([5, 7, 2]).dims == (5, 7, 2)


def test_glorot_bounds():
    w = glorot_uniform(30, 20, np.random.default_rng(1))
    limit = np.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.all(np.abs(w) <= limit)


# -- losses and gradients -------------------------------------------------------------


def test_loss_is_zero_when_the_target_matches_the_output():
    net = _net([3, 4, 2], seed=2)
    x = np.array([0.3, -1.2, 0.7])
    y = forward(net, x)
    loss, grads = _mse(net, x, y)
    assert loss == 0.0
    for g in grads:
        assert np.all(g == 0.0)


def test_doubling_the_residual_quadruples_the_loss():
    net = _net([3, 4, 2], seed=3)
    x = np.array([1.0, 0.5, -0.5])
    y = forward(net, x)
    r = np.array([0.3, -0.8])
    loss1, _ = _mse(net, x, y - r)
    loss2, _ = _mse(net, x, y - 2.0 * r)
    assert loss1 == pytest.approx(float(r @ r), rel=1e-12)
    assert loss2 == pytest.approx(4.0 * loss1, rel=1e-12)


def _kink_free_instance(seed, dims=(3, 5, 2)):
    """Sample net and input until no hidden pre-activation sits near zero."""
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        net = DenseNet.create(dims, rng)
        for b in net.biases:
            b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
        x = rng.normal(size=dims[0])
        target = rng.normal(size=dims[-1])
        _, (_, pre, _) = forward_cache(net, x)
        margin = min(float(np.abs(z).min()) for z in pre[:-1]) if len(pre) > 1 else 1.0
        if margin > 1e-3:
            return net, x, target
    raise AssertionError("could not find a kink-free instance")


@pytest.mark.parametrize("seed", range(20))
def test_parameter_gradients_match_central_differences(seed):
    net, x, target = _kink_free_instance(seed)
    loss_fn = lambda: _mse(net, x, target)[0]
    _, grads = _mse(net, x, target)
    for g, p in zip(grads, net.params, strict=True):
        assert fd_close(g, central_difference(loss_fn, p), tol=1e-4)


def test_params_are_the_live_arrays_in_layer_order():
    net = _net([3, 4, 2], seed=11)
    params = net.params
    assert [p.shape for p in params] == [(3, 4), (4,), (4, 2), (2,)]
    assert params[0] is net.weights[0] and params[1] is net.biases[0]
    assert params[2] is net.weights[1] and params[3] is net.biases[1]
    params[3][0] = 42.0
    assert net.biases[1][0] == 42.0


def test_backprop_returns_one_gradient_per_param():
    net = _net([3, 5, 4, 2], seed=12)
    _, grads = _mse(net, [0.1, -0.4, 2.0], [1.0, -1.0])
    assert len(grads) == len(net.params)
    for g, p in zip(grads, net.params):
        assert g.shape == p.shape


@pytest.mark.parametrize("seed", range(5))
def test_input_gradient_matches_central_differences(seed):
    net, x, target = _kink_free_instance(seed + 100)
    y, cache = forward_cache(net, x)
    _, dx = backprop(net, cache, 2.0 * (y - np.asarray(target)))
    loss_fn = lambda: _mse(net, x, target)[0]
    assert fd_close(dx, central_difference(loss_fn, x), tol=1e-4)


# -- updates ---------------------------------------------------------------------------


def test_sgd_with_zero_learning_rate_changes_nothing():
    net = _net([2, 3, 1], seed=4)
    before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    loss, grads = _mse(net, [1.0, -1.0], [0.5])
    assert loss > 0.0
    _sgd(net.params, grads, lr=0.0)
    after = list(net.weights) + list(net.biases)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_single_bias_quadratic_takes_the_textbook_step():
    net = _net([1, 1])
    net.weights[0][:] = 0.0
    net.biases[0][:] = 0.0
    loss, grads = _mse(net, [0.0], [1.0])
    assert loss == 1.0
    _sgd(net.params, grads, lr=0.1)
    assert net.biases[0][0] == pytest.approx(0.2, abs=1e-15)
    assert net.weights[0][0, 0] == 0.0


def test_gradient_accumulation_scales_and_sums():
    net = _net([2, 2], seed=6)
    acc = GradBuffers(net.params)
    _, g = _mse(net, [1.0, 2.0], [0.0, 0.0])
    for _ in range(2):
        for i, gi in enumerate(g):
            acc.add(i, 0.5 * gi)
    dense = acc.dense()
    assert len(dense) == len(g) == 2
    for a, gi in zip(dense, g):
        assert np.allclose(a, gi)


def test_buffers_hold_only_the_params_that_got_a_gradient():
    net = _net([2, 3, 1], seed=6)
    before = [p.copy() for p in net.params]
    acc = GradBuffers(net.params)
    acc.add(1, 0.5 * np.ones(3))
    acc.add(1, 0.5 * np.ones(3))
    acc.add(2, 0.5 * np.array([2.0]), rows=1)
    assert sorted(acc.buffers) == [1, 2]
    dense = acc.dense()
    assert np.array_equal(dense[0], np.zeros((2, 3)))
    assert np.array_equal(dense[1], np.ones(3))
    assert np.array_equal(dense[2], [[0.0], [1.0], [0.0]])
    acc.sgd_step(lr=0.5)
    assert np.array_equal(net.params[1], before[1] - 0.5)
    assert np.array_equal(net.params[2], before[2] - [[0.0], [0.5], [0.0]])
    for i in (0, 3):
        assert net.params[i].tobytes() == before[i].tobytes()


def test_hundred_sgd_steps_monotonically_fit_a_linear_toy():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(6, 2))
    ys = (xs[:, 0] + 0.5 * xs[:, 1])[:, None]
    net = _net([2, 4, 1], seed=7)
    losses = []
    for _ in range(100):
        acc = GradBuffers(net.params)
        total = 0.0
        for x, y in zip(xs, ys):
            loss, grads = _mse(net, x, y)
            total += loss
            for i, g in enumerate(grads):
                acc.add(i, (1.0 / len(xs)) * g)
        losses.append(total / len(xs))
        acc.sgd_step(lr=0.01)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


# -- twin-network plumbing ----------------------------------------------------------------


def test_copy_params_overwrites_the_destination_in_place():
    src = _net([2, 3, 1], seed=8)
    dst = _net([2, 3, 1], seed=9)
    dst_weights = [id(w) for w in dst.weights]
    copy_params(src, dst)
    assert [id(w) for w in dst.weights] == dst_weights
    for ws, wd in zip(src.weights, dst.weights):
        assert np.array_equal(ws, wd)
    src.weights[0][0, 0] += 1.0
    assert src.weights[0][0, 0] != dst.weights[0][0, 0]


def test_copy_params_demands_matching_shapes():
    with pytest.raises(ValueError):
        copy_params(_net([2, 3, 1]), _net([2, 4, 1]))


def test_clone_is_independent_of_the_original():
    net = _net([3, 2], seed=10)
    twin = clone(net)
    assert twin.dims == net.dims
    net.weights[0][:] = 99.0
    net.biases[0][:] = 99.0
    assert not np.any(twin.weights[0] == 99.0)
    assert not np.any(twin.biases[0] == 99.0)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_batch_and_row_forwards_agree_for_random_nets(seed):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 4)))]
    net = DenseNet.create(dims, rng)
    batch = rng.normal(size=(int(rng.integers(1, 5)), dims[0]))
    got = forward(net, batch)
    want = np.stack([forward(net, row) for row in batch])
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 2, 127, 128, 129, 333, 900])
def test_row_blocked_products_match_the_plain_products(rows):
    rng = np.random.default_rng(rows)
    x, w, y = rng.normal(size=(rows, 32)), rng.normal(size=(32, 64)), rng.normal(size=(rows, 64))
    # Cutting rows apart leaves every row of x @ w with its bits; the
    # blocked x.T @ y sums its blocks, so it matches to rounding.
    assert matmul(x, w).tobytes() == (x @ w).tobytes()
    want = x.T @ y
    assert np.abs(matmul_t(x, y) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("width,rows", [(128, 100), (256, 40)])
def test_row_blocked_products_at_value_net_widths_match_to_rounding(width, rows):
    """At the value nets' 128 and 256 inputs, row blocks may round unlike
    the uncut product (OpenBLAS 0.3.31 does, at 1 and 2 threads), so the
    result is checked against it to rounding, and against itself exactly."""
    rng = np.random.default_rng(width + rows)
    x, w = rng.normal(size=(rows, width)), rng.normal(size=(width, 100))
    assert rows * width * 100 > nnsub._ONE_THREAD_MNK
    got, want = matmul(x, w), x @ w
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert matmul(x, w).tobytes() == got.tobytes()
