"""Relational graph encoding of roadmap nodes.

A GraphSnapshot is the one description of a step's alive subgraph: the
clustering reads its adjacency and the encoder its message operator and
relation rows, each derived from the snapshot's parents on first use.
Two graph-convolution layers with one weight matrix per operation relation
plus an explicit self-loop relation. Messages flow along incoming edges
(alive parents), averaged per relation, ReLU between layers and a linear
second layer. Both passes take a batch of snapshots, encoded as one
block-diagonal graph. Backprop is manual so the value networks can train
the encoder end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nnsub import glorot_uniform, matmul, matmul_t
from .opset import N_OPERATIONS
from .tabular import STAT_DIM, read_only

DEFAULT_DIMS = (STAT_DIM, 32, 64)


@dataclass(frozen=True)
class GraphSnapshot:
    """Alive subgraph in node-id order: stats rows, incoming relation ids
    (-1 for roots), and alive-parent positions per node.

    The message operator and the rows of each relation are derived from
    parents and relations once, on first use, and kept read-only, so every
    encoder pass over one snapshot shares them; the clustering's adjacency
    is read off the operator.
    """

    stats: np.ndarray
    relations: np.ndarray
    parents: tuple

    @property
    def n_nodes(self) -> int:
        return self.stats.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """Directed 0/1 matrix with a[p, i] = 1 for each alive parent p of node i."""
        return (self.message_operator.T > 0.0).astype(float)

    @cached_property
    def message_operator(self) -> np.ndarray:
        """P with P[i, p] = 1/|parents(i)| for each alive parent p of node i."""
        p = np.zeros((self.n_nodes, self.n_nodes))
        for i, parents in enumerate(self.parents):
            if parents:
                p[i, list(parents)] = 1.0 / len(parents)
        return read_only(p)

    @cached_property
    def relation_rows(self) -> tuple:
        """(rows, relations) of the nodes with at least one alive parent,
        ordered by relation and ascending within one."""
        rows = np.array(
            [i for i, parents in enumerate(self.parents) if parents and self.relations[i] >= 0],
            dtype=int,
        )
        rels = np.asarray(self.relations, dtype=int)[rows]
        order = np.argsort(rels, kind="stable")
        return read_only(rows[order]), read_only(rels[order])


def squash_stats(stats) -> np.ndarray:
    """Bounded monotone compression, tanh(sign(x) * log1p(|x|) / 8).

    Derived columns can carry statistics of magnitude 1e20 and beyond;
    fed raw into the networks those overflow the backward pass, and at
    learning rate 0.01 anything much larger than O(1) diverges. The log
    keeps orders of magnitude distinguishable up to ~1e7 before the tanh
    saturates to +-1.
    """
    s = np.asarray(stats, dtype=float)
    return np.tanh(np.sign(s) * np.log1p(np.abs(s)) / 8.0)


def snapshot_from_roadmap(r) -> GraphSnapshot:
    alive = r.alive_nodes()
    pos = {n.id: k for k, n in enumerate(alive)}
    stats = squash_stats(np.stack([n.stats for n in alive]))
    relations = np.array(
        [-1 if n.is_root else n.op.id for n in alive], dtype=int
    )
    parents = tuple(
        tuple(pos[p] for p in n.parents if p in pos) for n in alive
    )
    return GraphSnapshot(
        stats=read_only(stats), relations=read_only(relations), parents=parents
    )


@dataclass
class RGCNParams:
    """layers[l][r]: weight for relation r at layer l; r == n_relations is
    the self-loop relation."""

    layers: list
    n_relations: int

    @classmethod
    def create(cls, rng: np.random.Generator, dims=DEFAULT_DIMS, n_relations=N_OPERATIONS):
        dims = list(dims)
        layers = []
        for d_in, d_out in zip(dims, dims[1:]):
            layers.append(
                [glorot_uniform(d_in, d_out, rng) for _ in range(n_relations + 1)]
            )
        return cls(layers=layers, n_relations=n_relations)

    @property
    def dims(self) -> tuple:
        return tuple(
            [self.layers[0][0].shape[0]] + [layer[0].shape[1] for layer in self.layers]
        )

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    @property
    def params(self) -> list:
        """The live weights, layer by layer, relations in order within a layer."""
        return [w for layer in self.layers for w in layer]


def rgcn_forward(graphs, params: RGCNParams):
    """Node embeddings of a batch of snapshots, and a cache for rgcn_backward.

    The batch is one block-diagonal graph: the snapshots' rows are stacked
    in batch order, each snapshot's message operator acts on its own row
    block, and each layer takes one product per relation present in the
    batch, over that relation's rows gathered into one contiguous span. A
    batch of one gives the bits of that snapshot encoded alone.
    """
    graphs = tuple(graphs)
    starts = _row_starts(graphs)
    order, spans = _relation_spans(graphs, starts)
    self_idx = params.n_relations
    h = np.concatenate([np.asarray(g.stats, dtype=float) for g in graphs])
    if h.shape[1] != params.dims[0]:
        raise ValueError(f"stat dim {h.shape[1]} does not match encoder {params.dims[0]}")
    last = len(params.layers) - 1
    inputs, msgs_all, pre = [], [], []
    for l, layer in enumerate(params.layers):
        msgs = _per_block(graphs, starts, h, transpose=False)[order]
        z = matmul(h, layer[self_idx])
        if spans:
            z[order] += np.concatenate([matmul(msgs[a:b], layer[rel]) for rel, a, b in spans])
        inputs.append(h)
        msgs_all.append(msgs)
        pre.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    cache = (graphs, starts, order, spans, inputs, msgs_all, pre)
    return h, cache


def rgcn_backward(params: RGCNParams, cache, d_out: np.ndarray) -> list:
    """Weight gradients of a scalar loss, given d(loss)/d(embeddings).

    Returns a list aligned with params.params. Each weight's gradient sums
    over every node of the batch; a relation the batch does not contain
    gets None.
    """
    grads: list = [None] * len(params.params)
    graphs, starts, order, spans, inputs, msgs_all, pre = cache
    width = params.n_relations + 1
    self_idx = params.n_relations
    last = len(params.layers) - 1
    da = np.asarray(d_out, dtype=float)
    for l in range(last, -1, -1):
        dz = da if l == last else da * (pre[l] > 0.0)
        layer = params.layers[l]
        h, msgs = inputs[l], msgs_all[l]
        dz_rel = dz[order]
        grads[l * width + self_idx] = matmul_t(h, dz)
        for rel, a, b in spans:
            grads[l * width + rel] = matmul_t(msgs[a:b], dz_rel[a:b])
        if l > 0:
            dmsgs = np.zeros((h.shape[0], layer[self_idx].shape[0]))
            if spans:
                dmsgs[order] = np.concatenate(
                    [matmul(dz_rel[a:b], layer[rel].T) for rel, a, b in spans]
                )
            da = matmul(dz, layer[self_idx].T) + _per_block(graphs, starts, dmsgs, transpose=True)
    return grads


def _row_starts(graphs) -> list:
    """Each snapshot's first row in the stacked batch, then the row count."""
    starts = [0]
    for g in graphs:
        starts.append(starts[-1] + g.n_nodes)
    return starts


def _relation_spans(graphs, starts):
    """The stacked rows that receive messages, grouped by relation, and
    (relation, start, stop) per relation present, relations ascending:
    order[start:stop] are that relation's rows, ascending."""
    rows = np.concatenate([g.relation_rows[0] + a for g, a in zip(graphs, starts)])
    rels = np.concatenate([g.relation_rows[1] for g in graphs])
    by_rel = np.argsort(rels, kind="stable")
    order, rels = rows[by_rel], rels[by_rel]
    first = np.flatnonzero(np.diff(rels, prepend=-1))
    bounds = [*first.tolist(), len(rels)]
    return order, list(zip(rels[first].tolist(), bounds, bounds[1:]))


def _per_block(graphs, starts, x, transpose):
    """Each snapshot's message operator P (or P.T) times its own row block of x."""
    return np.concatenate(
        [
            (g.message_operator.T if transpose else g.message_operator) @ x[a:b]
            for g, a, b in zip(graphs, starts, starts[1:])
        ]
    )


# -- composite agent states ----------------------------------------------


@dataclass
class Encoder:
    """RGCN parameters plus a learned per-operation embedding table."""

    rgcn: RGCNParams
    op_table: np.ndarray

    @classmethod
    def create(cls, rng: np.random.Generator, dims=DEFAULT_DIMS, n_relations=N_OPERATIONS):
        rgcn = RGCNParams.create(rng, dims=dims, n_relations=n_relations)
        out = dims[-1]
        return cls(rgcn=rgcn, op_table=glorot_uniform(n_relations, out, rng))

    @property
    def out_dim(self) -> int:
        return self.rgcn.out_dim

    @property
    def params(self) -> list:
        return self.rgcn.params + [self.op_table]


@dataclass(frozen=True)
class StateSpec:
    """Mean-pool each position group, concatenate, append an operation
    embedding when op_id is set. Groups use snapshot row positions."""

    groups: tuple
    op_id: int | None = None


def cluster_rep(embeddings: np.ndarray, positions) -> np.ndarray:
    positions = list(positions)
    if not positions:
        raise ValueError("cannot pool an empty group")
    return embeddings[positions].mean(axis=0)


def op_rep(encoder: Encoder | None, op_id: int) -> np.ndarray:
    """Learned op embedding, or the one-hot fallback without an encoder."""
    if encoder is None:
        return op_one_hot_by_id(op_id)
    return encoder.op_table[op_id].copy()


def op_one_hot_by_id(op_id: int) -> np.ndarray:
    v = np.zeros(N_OPERATIONS)
    v[op_id] = 1.0
    return v


def state_forward(encoder: Encoder, contexts):
    """States of a batch of (GraphSnapshot, StateSpec) pairs, one row each.

    One encoder pass covers every snapshot of the batch. The specs share
    one layout: the same number of groups, and an op_id on all or none.
    Returns the (batch, width) states and a cache for state_backward.
    """
    graphs = [g for g, _ in contexts]
    specs = [s for _, s in contexts]
    n_groups = len(specs[0].groups)
    with_op = specs[0].op_id is not None
    if any(len(s.groups) != n_groups or (s.op_id is not None) != with_op for s in specs):
        raise ValueError("the states of a batch must share one layout")
    members = [(a, g) for a, s in zip(_row_starts(graphs), specs) for g in s.groups]
    sizes = np.array([len(g) for _, g in members])
    if not sizes.all():
        raise ValueError("cannot pool an empty group")
    h, rcache = rgcn_forward(graphs, encoder.rgcn)
    # pool_t[:, k] averages group k's rows, so pooling and its backward
    # pass are one product each.
    pool_t = np.zeros((h.shape[0], len(members)))
    rows = [a + p for a, g in members for p in g]
    groups = np.repeat(np.arange(len(members)), sizes)
    np.add.at(pool_t, (rows, groups), np.repeat(1.0 / sizes, sizes))
    x = matmul_t(pool_t, h).reshape(len(specs), -1)
    op_ids = [s.op_id for s in specs] if with_op else None
    if with_op:
        x = np.concatenate([x, encoder.op_table[op_ids]], axis=1)
    return x, (pool_t, rcache, op_ids, x.shape)


def state_backward(encoder: Encoder, cache, dx: np.ndarray) -> list:
    """Split dx, one row per state, back onto the pooled groups and the
    op_table rows.

    Returns a list aligned with encoder.params: rgcn_backward's gradients,
    then the op_table's, where an op_id listed twice gets both of its rows
    of dx, or None when the states carry no op_id.
    """
    pool_t, rcache, op_ids, shape = cache
    dx = np.asarray(dx, dtype=float)
    if dx.shape != shape:
        raise ValueError("dx does not match the state layout")
    d = encoder.out_dim
    pooled_width = shape[1] - (0 if op_ids is None else d)
    dh = matmul(pool_t, dx[:, :pooled_width].reshape(-1, d))
    op_grad = None
    if op_ids is not None:
        op_grad = np.zeros_like(encoder.op_table)
        np.add.at(op_grad, op_ids, dx[:, pooled_width:])
    return rgcn_backward(encoder.rgcn, rcache, dh) + [op_grad]
