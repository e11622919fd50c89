"""Small builders shared across test modules."""

import numpy as np

from tcto.opset import OPERATIONS, apply_binary, apply_unary
from tcto.tabular import CLASSIFICATION, REGRESSION, Dataset


def make_classification_dataset(n=40, p=3, seed=0):
    rng = np.random.default_rng(seed)
    cols = tuple(rng.normal(size=n) for _ in range(p))
    labels = (cols[0] + 0.5 * cols[1] > 0.0).astype(float)
    if labels.min() == labels.max():
        labels = labels.copy()
        labels[0] = 1.0 - labels[0]
    return Dataset(
        column_names=tuple(f"f{i}" for i in range(p)),
        columns=cols,
        labels=labels,
        task=CLASSIFICATION,
    )


def make_regression_dataset(n=40, p=3, seed=0):
    rng = np.random.default_rng(seed)
    cols = tuple(rng.normal(size=n) for _ in range(p))
    labels = 2.0 * cols[0] - cols[1 % p] + 0.1 * rng.normal(size=n)
    return Dataset(
        column_names=tuple(f"f{i}" for i in range(p)),
        columns=cols,
        labels=labels,
        task=REGRESSION,
    )


def grow_random_roadmap(roadmap, columns, rng, steps, distinct_values=False):
    """Apply `steps` random operations, keeping `columns` in sync.

    Rejected results and duplicates are skipped. With distinct_values the
    growth also skips candidates whose column equals an existing one
    bit-for-bit, which keeps mutual-information rankings tie-free.
    """
    added = 0
    for _ in range(steps):
        op = OPERATIONS[int(rng.integers(len(OPERATIONS)))]
        alive = roadmap.alive_ids()
        if op.arity == 1:
            head = int(rng.choice(alive))
            vals = apply_unary(op, columns[head])
            parents = (head,)
        else:
            if len(alive) < 2:
                continue
            head, tail = (int(x) for x in rng.choice(alive, size=2, replace=False))
            vals = apply_binary(op, columns[head], columns[tail])
            parents = (head, tail)
        if vals is None:
            continue
        if distinct_values and any(
            np.array_equal(vals, columns[i]) for i in alive
        ):
            continue
        res = roadmap.add_node(op, parents, vals)
        if res.created or res.revived:
            columns[res.node_id] = vals
            added += 1
    return added


def alive_edge_matrix(roadmap):
    """0/1 parent-to-child matrix of roadmap.alive_edges() in alive-id order."""
    pos = {nid: k for k, nid in enumerate(roadmap.alive_ids())}
    a = np.zeros((len(pos), len(pos)))
    for p, c, _ in roadmap.alive_edges():
        a[pos[p], pos[c]] = 1.0
    return a
