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
from dataclasses import dataclass

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
    commutative: bool = False


_UNARY_NAMES = (
    "square",
    "cube",
    "sqrt",
    "sin",
    "cos",
    "log",
    "exp",
    "tanh",
    "sigmoid",
    "reciprocal",
    "stand_scaler",
    "minmax_scaler",
    "quantile_transform",
)
_BINARY_NAMES = ("add", "subtract", "multiply", "divide")
_COMMUTATIVE = frozenset({"add", "multiply"})

OPERATIONS: tuple[Operation, ...] = tuple(
    Operation(i, name, 1) for i, name in enumerate(_UNARY_NAMES)
) + tuple(
    Operation(len(_UNARY_NAMES) + j, name, 2, name in _COMMUTATIVE)
    for j, name in enumerate(_BINARY_NAMES)
)

N_OPERATIONS = len(OPERATIONS)
UNARY_OPERATIONS = tuple(op for op in OPERATIONS if op.arity == 1)
OP_BY_NAME = {op.name: op for op in OPERATIONS}


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


def unary_values(op: Operation, v) -> np.ndarray:
    """Raw unary computation without the rejection filter."""
    v = np.asarray(v, dtype=float)
    name = op.name
    with np.errstate(all="ignore"):
        if name == "square":
            return v * v
        if name == "cube":
            return v * v * v
        if name == "sqrt":
            return np.sqrt(np.abs(v))
        if name == "sin":
            return np.sin(v)
        if name == "cos":
            return np.cos(v)
        if name == "log":
            return np.log(np.abs(v) + EPSILON)
        if name == "exp":
            return np.exp(np.clip(v, -EXP_CLAMP, EXP_CLAMP))
        if name == "tanh":
            return np.tanh(v)
        if name == "sigmoid":
            return np.array([_sigmoid(t) for t in v.tolist()])
        if name == "reciprocal":
            return 1.0 / (v + _signed_eps(v))
        if name == "stand_scaler":
            sigma = float(v.std())
            if sigma < EPSILON:
                sigma = EPSILON
            return (v - v.mean()) / sigma
        if name == "minmax_scaler":
            lo, hi = float(v.min()), float(v.max())
            span = hi - lo if hi > lo else EPSILON
            return (v - lo) / span
        if name == "quantile_transform":
            n = v.shape[0]
            if n < 2:
                return np.zeros_like(v)
            return _average_ranks(v) / (n - 1.0)
    raise ValueError(f"{name!r} is not a unary operation")


def binary_values(op: Operation, a, b) -> np.ndarray:
    """Raw binary computation without the rejection filter."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    name = op.name
    with np.errstate(all="ignore"):
        if name == "add":
            return a + b
        if name == "subtract":
            return a - b
        if name == "multiply":
            return a * b
        if name == "divide":
            return a / (b + _signed_eps(b))
    raise ValueError(f"{name!r} is not a binary operation")


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
