"""Relational graph encoding of roadmap nodes.

A GraphSnapshot is the one description of a step's alive subgraph: the
clustering reads its adjacency and the encoder its message operator and
relation rows, each derived from the snapshot's parents on first use.
Two graph-convolution layers with one weight matrix per operation relation
plus an explicit self-loop relation. Messages flow along incoming edges
(alive parents), averaged per relation, ReLU between layers and a linear
second layer. Backprop is manual so the value networks can train the
encoder end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nnsub import glorot_uniform
from .opset import N_OPERATIONS
from .tabular import STAT_DIM

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
        return _read_only(p)

    @cached_property
    def rows_by_relation(self) -> tuple:
        """(relation, rows) pairs, relations ascending, for the nodes with
        at least one alive parent."""
        out = {}
        for i, parents in enumerate(self.parents):
            rel = int(self.relations[i])
            if rel >= 0 and parents:
                out.setdefault(rel, []).append(i)
        return tuple((rel, _read_only(np.array(rows))) for rel, rows in sorted(out.items()))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        stats=_read_only(stats), relations=_read_only(relations), parents=parents
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


def rgcn_forward(graph: GraphSnapshot, params: RGCNParams):
    """Returns (node embeddings, cache) for the alive subgraph."""
    p = graph.message_operator
    rows_by_rel = graph.rows_by_relation
    self_idx = params.n_relations
    h = np.asarray(graph.stats, dtype=float)
    if h.shape[1] != params.dims[0]:
        raise ValueError(f"stat dim {h.shape[1]} does not match encoder {params.dims[0]}")
    last = len(params.layers) - 1
    inputs, msgs_all, pre = [], [], []
    for l, layer in enumerate(params.layers):
        msgs = p @ h
        z = h @ layer[self_idx]
        for rel, rows in rows_by_rel:
            z[rows] += msgs[rows] @ layer[rel]
        inputs.append(h)
        msgs_all.append(msgs)
        pre.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    cache = (graph, inputs, msgs_all, pre)
    return h, cache


def rgcn_backward(params: RGCNParams, cache, d_out: np.ndarray) -> list:
    """Gradients for a scalar loss, given d(loss)/d(embeddings); aligned
    with params.params."""
    graph, inputs, msgs_all, pre = cache
    p, rows_by_rel = graph.message_operator, graph.rows_by_relation
    width = params.n_relations + 1
    self_idx = params.n_relations
    grads = [np.zeros_like(w) for w in params.params]
    last = len(params.layers) - 1
    da = np.asarray(d_out, dtype=float)
    for l in range(last, -1, -1):
        dz = da if l == last else da * (pre[l] > 0.0)
        layer = params.layers[l]
        h, msgs = inputs[l], msgs_all[l]
        grads[l * width + self_idx] += h.T @ dz
        dmsgs = np.zeros_like(msgs)
        for rel, rows in rows_by_rel:
            grads[l * width + rel] += msgs[rows].T @ dz[rows]
            dmsgs[rows] = dz[rows] @ layer[rel].T
        da = dz @ layer[self_idx].T + p.T @ dmsgs
    return grads


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


def state_forward(encoder: Encoder, graph: GraphSnapshot, spec: StateSpec):
    h, rcache = rgcn_forward(graph, encoder.rgcn)
    parts = [cluster_rep(h, g) for g in spec.groups]
    if spec.op_id is not None:
        parts.append(encoder.op_table[spec.op_id])
    cache = (graph, spec, rcache, h.shape)
    return np.concatenate(parts), cache


def state_backward(encoder: Encoder, cache, dx: np.ndarray) -> list:
    """Split dx back onto the pooled groups; returns grads aligned with
    encoder.params."""
    graph, spec, rcache, h_shape = cache
    m, d = h_shape
    dh = np.zeros((m, d))
    offset = 0
    for g in spec.groups:
        seg = dx[offset : offset + d]
        dh[list(g)] += seg / len(g)
        offset += d
    op_grads = np.zeros_like(encoder.op_table)
    if spec.op_id is not None:
        op_grads[spec.op_id] = dx[offset : offset + d]
        offset += d
    if offset != dx.shape[0]:
        raise ValueError("dx length does not match the state layout")
    return rgcn_backward(encoder.rgcn, rcache, dh) + [op_grads]
