"""Minimal dense network substrate: Glorot init, ReLU hiddens, manual backprop.

Everything the value networks need and nothing more: forward, gradients
of a scalar loss, SGD updates, and parameter copies between twin networks.

Every trained object (a DenseNet here, the graph encoder in encoder.py)
exposes its live arrays as one flat, ordered ``params`` list, and its
backward pass returns one gradient per array, None for an array the loss
does not reach. sgd_step applies such a list, so one helper serves the
value networks and the encoder alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DenseNet:
    """Fully connected layers; ReLU between layers, linear final output."""

    weights: list
    biases: list

    @classmethod
    def create(cls, dims, rng: np.random.Generator) -> "DenseNet":
        dims = list(int(d) for d in dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"need at least input and output dims >= 1, got {dims}")
        weights, biases = [], []
        for d_in, d_out in zip(dims, dims[1:]):
            weights.append(glorot_uniform(d_in, d_out, rng))
            biases.append(np.zeros(d_out))
        return cls(weights=weights, biases=biases)

    @property
    def dims(self) -> tuple:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    @property
    def params(self) -> list:
        """The live arrays in the order W0, b0, W1, b1, ..."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]


def glorot_uniform(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_in, d_out))


# OpenBLAS spreads one gemm over all of its threads once m * n * k passes
# 4 * 65536, and its idle threads then spin for a while on CPUs that the
# evaluator's forked children need. Products over one transition mostly
# stay below that size, products over a whole minibatch do not, so batch
# products go through matmul and matmul_t, which cut them into row blocks
# that stay below it. matmul's result is deterministic and equals the uncut
# product to rounding; at some widths, such as the value nets' 128 or 256
# inputs, its last bits differ from the uncut product's.
_ONE_THREAD_MNK = 4 * 65536


def _row_blocks(rows: int, width: int) -> list:
    """Even (start, stop) row blocks with rows * width <= _ONE_THREAD_MNK."""
    count = -(-rows * width // _ONE_THREAD_MNK)
    bounds = [rows * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, taken over row blocks of x small enough for one BLAS thread."""
    width = x.shape[1] * w.shape[1]
    if x.shape[0] * width <= _ONE_THREAD_MNK:
        return x @ w
    return np.concatenate([x[a:b] @ w for a, b in _row_blocks(x.shape[0], width)])


def matmul_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x.T @ y, summed over row blocks small enough for one BLAS thread."""
    width = x.shape[1] * y.shape[1]
    if x.shape[0] * width <= _ONE_THREAD_MNK:
        return x.T @ y
    (a, b), *rest = _row_blocks(x.shape[0], width)
    out = x[a:b].T @ y[a:b]
    for a, b in rest:
        out += x[a:b].T @ y[a:b]
    return out


def forward(net: DenseNet, x) -> np.ndarray:
    y, _ = forward_cache(net, x)
    return y


def forward_cache(net: DenseNet, x):
    """Returns (output, cache); accepts a single vector or a (B, d) batch."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    if a.shape[1] != net.weights[0].shape[0]:
        raise ValueError(
            f"input dim {a.shape[1]} does not match net dim {net.weights[0].shape[0]}"
        )
    activations = [a]
    pre = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = matmul(a, w) + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    out = a[0] if squeeze else a
    return out, (activations, pre, squeeze)


def backprop(net: DenseNet, cache, dy):
    """Gradients of a scalar loss given d(loss)/d(output); returns (grads, dx).

    grads is aligned with net.params (dW0, db0, dW1, db1, ...); dx matches
    the input.
    """
    activations, pre, squeeze = cache
    dy = np.asarray(dy, dtype=float)
    da = dy[None, :] if squeeze else dy
    grads: list = [None] * (2 * len(net.weights))
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        dz = da if i == last else da * (pre[i] > 0.0)
        grads[2 * i] = matmul_t(activations[i], dz)
        grads[2 * i + 1] = dz.sum(axis=0)
        da = matmul(dz, net.weights[i].T)
    return grads, (da[0] if squeeze else da)


def sgd_step(params: list, grads: list, lr: float) -> None:
    """p -= lr * g for each array of params whose gradient g is not None.

    It has the bits of a dense step over gradient sums that start at +0.0.
    Skipping an array changes no bit against subtracting lr * +0.0, and a
    -0.0 entry of g none against a +0.0 one: p - lr * (+-0.0) equals p for
    every p but -0.0, and no trained entry is -0.0, since each starts as a
    Glorot draw or a +0.0 bias and x - y is -0.0 only when x is.
    """
    for p, g in zip(params, grads, strict=True):
        if g is not None:
            p -= lr * g


def copy_params(src: DenseNet, dst: DenseNet) -> None:
    if src.dims != dst.dims:
        raise ValueError(f"shape mismatch: {src.dims} vs {dst.dims}")
    for ps, pd in zip(src.params, dst.params):
        pd[...] = ps


def clone(net: DenseNet) -> DenseNet:
    return DenseNet(
        weights=[w.copy() for w in net.weights],
        biases=[b.copy() for b in net.biases],
    )
