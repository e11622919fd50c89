"""Feature construction operations.

Thirteen unary and four binary operations over float vectors, each guarded
against domain errors so that any finite input yields a finite output or an
explicit rejection. Operation ids are stable and index agent outputs.

Only numpy and the standard library are used. The sigmoid calls the C
library's exp and the quantile transform computes exact average ranks, so
both give the bits of the reference implementations that
tests/test_opset.py compares them with.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .tabular import scaled_stat

EPSILON = 1e-10
REJECT_STD = 1e-12
EXP_CLAMP = 50.0


@dataclass(frozen=True)
class Operation:
    id: int
    name: str
    arity: int
    commutative: bool
    compute: Callable = field(repr=False, compare=False)


def _signed_eps(v: np.ndarray) -> np.ndarray:
    # sign with sign(0) = +1, so the guard never cancels to zero
    return np.where(v >= 0.0, EPSILON, -EPSILON)


def _sigmoid(t: float) -> float:
    # The libm exp that expit calls too; np.exp can differ in the last bit.
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:  # exp(-t) is past the float maximum
        return 0.0


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Zero-based ranks, each run of tied values sharing the mean of its ranks."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(starts, append=v.shape[0])
    ranks = np.empty(v.shape[0])
    # every value is a multiple of 0.5 below 2**52, so exact
    ranks[order] = np.repeat(starts + (counts - 1) / 2.0, counts)
    return ranks


def _stand_scaler(v: np.ndarray) -> np.ndarray:
    sigma = float(v.std())
    if sigma < EPSILON:
        sigma = EPSILON
    return (v - v.mean()) / sigma


def _minmax_scaler(v: np.ndarray) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else EPSILON
    return (v - lo) / span


def _quantile_transform(v: np.ndarray) -> np.ndarray:
    n = v.shape[0]
    if n < 2:
        return np.zeros_like(v)
    return _average_ranks(v) / (n - 1.0)


# (name, arity, commutative, computation), in operation-id order.
_TABLE = (
    ("square", 1, False, lambda v: v * v),
    ("cube", 1, False, lambda v: v * v * v),
    ("sqrt", 1, False, lambda v: np.sqrt(np.abs(v))),
    ("sin", 1, False, np.sin),
    ("cos", 1, False, np.cos),
    ("log", 1, False, lambda v: np.log(np.abs(v) + EPSILON)),
    ("exp", 1, False, lambda v: np.exp(np.clip(v, -EXP_CLAMP, EXP_CLAMP))),
    ("tanh", 1, False, np.tanh),
    ("sigmoid", 1, False, lambda v: np.array([_sigmoid(t) for t in v.tolist()])),
    ("reciprocal", 1, False, lambda v: 1.0 / (v + _signed_eps(v))),
    ("stand_scaler", 1, False, _stand_scaler),
    ("minmax_scaler", 1, False, _minmax_scaler),
    ("quantile_transform", 1, False, _quantile_transform),
    ("add", 2, True, lambda a, b: a + b),
    ("subtract", 2, False, lambda a, b: a - b),
    ("multiply", 2, True, lambda a, b: a * b),
    ("divide", 2, False, lambda a, b: a / (b + _signed_eps(b))),
)

OPERATIONS: tuple[Operation, ...] = tuple(Operation(i, *row) for i, row in enumerate(_TABLE))
N_OPERATIONS = len(OPERATIONS)
UNARY_OPERATIONS = tuple(op for op in OPERATIONS if op.arity == 1)
OP_BY_NAME = {op.name: op for op in OPERATIONS}


def _values(op: Operation, kind: str, *cols) -> np.ndarray:
    cols = [np.asarray(c, dtype=float) for c in cols]
    if op.arity != len(cols):
        raise ValueError(f"{op.name!r} is not a {kind} operation")
    with np.errstate(all="ignore"):
        return op.compute(*cols)


def unary_values(op: Operation, v) -> np.ndarray:
    """Raw unary computation without the rejection filter."""
    return _values(op, "unary", v)


def binary_values(op: Operation, a, b) -> np.ndarray:
    """Raw binary computation without the rejection filter."""
    return _values(op, "binary", a, b)


def _accept(out: np.ndarray) -> np.ndarray | None:
    if not np.all(np.isfinite(out)):
        return None
    # Compared in units of the scale: near the float limit, rounding in the
    # mean alone gives a constant column a std of about 1e-16 times it.
    std, _ = scaled_stat(np.std, out)
    if float(std) < REJECT_STD:
        return None
    return out


def apply_unary(op: Operation, v) -> np.ndarray | None:
    """Apply a unary operation; None when the result is degenerate."""
    if op.arity != 1:
        raise ValueError(f"{op.name!r} is not unary")
    return _accept(unary_values(op, v))


def apply_binary(op: Operation, a, b) -> np.ndarray | None:
    """Apply a binary operation; None when the result is degenerate."""
    if op.arity != 2:
        raise ValueError(f"{op.name!r} is not binary")
    return _accept(binary_values(op, a, b))
