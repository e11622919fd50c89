"""Dataset ingestion, stratified splitting, and per-column statistics."""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

CLASSIFICATION = "classification"
REGRESSION = "regression"
TASKS = (CLASSIFICATION, REGRESSION)

STAT_DIM = 7


class DataError(ValueError):
    """Input data violates the ingestion or splitting contract."""


def column_stats(v) -> np.ndarray:
    """Mean, population std, min, max and the linearly interpolated
    quartiles q1, median and q3, in that order, as one read-only float64
    vector of STAT_DIM entries.

    Near the float limit the sums and the quantile interpolation overflow;
    see scaled_stat.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise DataError("cannot compute statistics of an empty column")
    if not np.all(np.isfinite(v)):
        raise DataError("column contains non-finite values")
    stats, s = scaled_stat(_plain_stats, v)
    return read_only(stats * s)


def scaled_stat(stat, v: np.ndarray):
    """(r, s) such that r * s is stat(v) computed without overflow.

    r is stat(v) itself and s is 1.0 unless that result is not all finite,
    which happens when sums or squares overflow near the float limit. Then
    r is stat(v / s), with s the power of two that brings max|v| into
    [1, 2), so the scaling itself is exact. stat must commute with scaling,
    as a mean, std, min, max or quantile does, or not depend on it, as
    equal-width bins do (then r alone is stat(v)); v must be finite and
    non-empty.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = stat(v)
    if np.all(np.isfinite(r)):
        return r, 1.0
    s = 2.0 ** (math.frexp(float(np.max(np.abs(v))))[1] - 1)
    return stat(v / s), s


def _plain_stats(v: np.ndarray) -> np.ndarray:
    """The seven statistics in column_stats order."""
    q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75])
    return np.array([v.mean(), v.std(), v.min(), v.max(), q1, med, q3])


@dataclass(frozen=True)
class Dataset:
    """Immutable column-major feature matrix plus labels.

    Classification labels are contiguous integers starting at 0; regression
    labels are arbitrary finite reals.
    """

    column_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    labels: np.ndarray
    task: str
    dropped_rows: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}")
        if len(self.column_names) != len(self.columns):
            raise DataError("column name/vector count mismatch")
        if not self.columns:
            raise DataError("dataset needs at least one feature column")
        cols = tuple(read_only(np.asarray(c, dtype=float)) for c in self.columns)
        labels = read_only(np.asarray(self.labels, dtype=float))
        n = cols[0].shape[0]
        if n < 2:
            raise DataError("dataset needs at least 2 rows")
        for name, c in zip(self.column_names, cols):
            if c.ndim != 1 or c.shape[0] != n:
                raise DataError(f"column {name!r} has inconsistent length")
            if not np.all(np.isfinite(c)):
                raise DataError(f"column {name!r} contains non-finite values")
        if labels.shape != (n,):
            raise DataError("label vector length mismatch")
        if self.task == CLASSIFICATION:
            if not np.all(np.isfinite(labels)):
                raise DataError("classification labels must be finite")
            if not np.all(labels == np.floor(labels)) or labels.min() < 0:
                raise DataError("classification labels must be integers >= 0")
        else:
            if not np.all(np.isfinite(labels)):
                raise DataError("regression labels must be finite")
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.columns[0].shape[0]

    @property
    def n_features(self) -> int:
        return len(self.columns)

    @property
    def n_classes(self) -> int:
        if self.task != CLASSIFICATION:
            raise DataError("n_classes is only defined for classification")
        return int(self.labels.max()) + 1

    def matrix(self) -> np.ndarray:
        return np.column_stack(self.columns)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            column_names=self.column_names,
            columns=tuple(c[idx] for c in self.columns),
            labels=self.labels[idx],
            task=self.task,
        )


def read_only(a: np.ndarray) -> np.ndarray:
    """a, or a copy of a view, flagged read-only."""
    a = a.copy() if not a.flags.owndata else a
    a.flags.writeable = False
    return a


def load_csv(path, task: str, label_column: str) -> Dataset:
    """Parse an RFC-4180 CSV with a header row into a Dataset.

    Rows with unparsable or non-finite cells are dropped; the count lands in
    ``Dataset.dropped_rows``. Classification labels are re-indexed to 0..C-1
    in first-appearance order.
    """
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV: missing header row") from None
        header = [h.strip() for h in header]
        for name, count in Counter(header).items():
            if count > 1:
                raise DataError(f"column {name!r} appears {count} times in the header")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        if not feat_idx:
            raise DataError("no feature columns besides the label")

        feat_rows: list[list[float]] = []
        raw_labels: list[str] = []
        dropped = 0
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                dropped += 1
                continue
            vals = []
            ok = True
            for i in feat_idx:
                x = _parse_float(row[i])
                if x is None:
                    ok = False
                    break
                vals.append(x)
            label_cell = row[label_idx].strip()
            if ok and task == REGRESSION:
                y = _parse_float(label_cell)
                if y is None:
                    ok = False
            elif ok and not label_cell:
                ok = False
            if not ok:
                dropped += 1
                continue
            feat_rows.append(vals)
            raw_labels.append(label_cell)

    if len(feat_rows) < 2:
        raise DataError(f"fewer than 2 surviving rows (dropped {dropped})")

    if task == CLASSIFICATION:
        mapping: dict[str, int] = {}
        labels = np.empty(len(raw_labels))
        for i, cell in enumerate(raw_labels):
            if cell not in mapping:
                mapping[cell] = len(mapping)
            labels[i] = mapping[cell]
        if len(mapping) < 2:
            raise DataError("classification labels contain a single class")
    else:
        labels = np.array([float(c) for c in raw_labels])

    matrix = np.array(feat_rows)
    return Dataset(
        column_names=tuple(header[i] for i in feat_idx),
        columns=tuple(matrix[:, j] for j in range(matrix.shape[1])),
        labels=labels,
        task=task,
        dropped_rows=dropped,
    )


def _parse_float(cell: str) -> float | None:
    try:
        x = float(cell)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def equal_width_bins(values, k: int = 5) -> np.ndarray:
    """Assign each value to one of k equal-width ranges over [min, max].

    A range wider than the float maximum is binned in the power-of-two
    units of scaled_stat; the bins do not depend on the unit.
    """
    v = np.asarray(values, dtype=float)
    if v.max() <= v.min():
        return np.zeros(v.shape, dtype=int)
    bins, _ = scaled_stat(lambda u: np.floor((u - u.min()) / (u.max() - u.min()) * k), v)
    return np.clip(bins.astype(int), 0, k - 1)


def stratified_split_indices(d: Dataset, test_fraction: float, seed: int):
    """Per-class (or per-label-range) test index draw; deterministic in seed."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    if d.task == CLASSIFICATION:
        groups = d.labels.astype(int)
    else:
        groups = equal_width_bins(d.labels)

    test_parts = []
    for g in np.unique(groups):
        members = np.flatnonzero(groups == g)
        if members.size < 2:
            warnings.warn(
                f"stratification group {g} has {members.size} member(s); "
                "placing them all in the training split"
            )
            continue
        n_test = int(math.floor(test_fraction * members.size + 0.5))
        picked = rng.permutation(members)[:n_test]
        test_parts.append(picked)

    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=int)
    mask = np.ones(d.n_rows, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    return train_idx, test_idx


def stratified_split(d: Dataset, test_fraction: float, seed: int):
    """(train, test) datasets of stratified_split_indices; DataError when
    either part has fewer than the 2 rows a dataset needs."""
    train_idx, test_idx = stratified_split_indices(d, test_fraction, seed)
    for part, idx in (("training", train_idx), ("test", test_idx)):
        if idx.size < 2:
            raise DataError(
                f"the {part} split of the {d.n_rows}-row dataset at test_fraction "
                f"{test_fraction} has {idx.size} row(s); each split needs at least 2"
            )
    return d.subset(train_idx), d.subset(test_idx)
