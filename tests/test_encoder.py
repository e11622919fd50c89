"""Relational graph encoder: snapshots, message passing, composite states."""

import numpy as np
import pytest

from helpers import make_regression_dataset
from oracles import (
    central_difference,
    dense_rgcn,
    fd_close,
    random_graph,
    rgcn_forward_reference,
    zeros_for_none,
)
from tcto.encoder import (
    Encoder,
    GraphSnapshot,
    RGCNParams,
    StateSpec,
    cluster_rep,
    op_one_hot_by_id,
    op_rep,
    rgcn_backward,
    rgcn_forward,
    snapshot_from_roadmap,
    squash_stats,
    state_backward,
    state_forward,
)
from tcto.nnsub import sgd_step
from tcto.opset import N_OPERATIONS, OP_BY_NAME, apply_unary
from tcto.roadmap import Roadmap

SMALL_DIMS = (7, 4, 3)
N_REL = 3


def _snapshot(seed, max_nodes=5):
    rng = np.random.default_rng(seed)
    stats, relations, parents = random_graph(rng, max_nodes=max_nodes, n_relations=N_REL)
    return GraphSnapshot(stats=stats, relations=relations, parents=parents)


# -- stat squashing ---------------------------------------------------------------


def test_squash_is_bounded_odd_and_monotone():
    x = np.array([-1e300, -1e20, -3.0, -1e-9, 0.0, 1e-9, 3.0, 1e20, 1e300])
    y = squash_stats(x)
    assert np.all(np.abs(y) <= 1.0)
    assert np.abs(y[np.abs(x) <= 1e20]).max() < 1.0
    assert y[4] == 0.0
    assert np.allclose(y, -y[::-1])
    assert np.all(np.diff(y) > 0.0)


def test_squash_matches_its_formula():
    x = np.array([0.5, -2.0, 100.0])
    want = np.tanh(np.sign(x) * np.log1p(np.abs(x)) / 8.0)
    assert np.array_equal(squash_stats(x), want)


# -- roadmap snapshots ---------------------------------------------------------------


def test_snapshot_reflects_alive_nodes_in_id_order():
    d = make_regression_dataset(n=10, p=2, seed=0)
    r = Roadmap.from_dataset(d, lineage="t")
    cols = {i: np.asarray(c) for i, c in enumerate(d.columns)}
    add = OP_BY_NAME["add"]
    square = OP_BY_NAME["square"]
    a = r.add_node(add, (0, 1), cols[0] + cols[1])
    b = r.add_node(square, (0,), apply_unary(square, cols[0]))
    snap = snapshot_from_roadmap(r)
    assert snap.n_nodes == 4
    raw = np.stack([n.stats for n in r.alive_nodes()])
    assert np.array_equal(snap.stats, squash_stats(raw))
    assert list(snap.relations) == [-1, -1, add.id, square.id]
    assert snap.parents == ((), (), (0, 1), (0,))
    assert not snap.stats.flags.writeable

    r.nodes[a.node_id].alive = False
    snap2 = snapshot_from_roadmap(r)
    assert snap2.n_nodes == 3
    assert list(snap2.relations) == [-1, -1, square.id]
    assert snap2.parents == ((), (), (0,))


def test_snapshot_drops_parent_links_to_dead_nodes():
    d = make_regression_dataset(n=10, p=2, seed=1)
    r = Roadmap.from_dataset(d, lineage="t")
    cols = {i: np.asarray(c) for i, c in enumerate(d.columns)}
    square = OP_BY_NAME["square"]
    sin = OP_BY_NAME["sin"]
    mid = r.add_node(square, (0,), apply_unary(square, cols[0]))
    r.add_node(sin, (mid.node_id,), np.sin(cols[0] ** 2))
    r.nodes[mid.node_id].alive = False
    snap = snapshot_from_roadmap(r)
    assert snap.parents == ((), (), ())
    assert list(snap.relations) == [-1, -1, sin.id]


# -- forward pass -----------------------------------------------------------------


def test_single_root_uses_only_the_self_loop_weights():
    params = RGCNParams.create(np.random.default_rng(0), dims=SMALL_DIMS, n_relations=N_REL)
    stats = np.random.default_rng(1).normal(size=(1, 7))
    graph = GraphSnapshot(stats=stats, relations=np.array([-1]), parents=((),))
    h, _ = rgcn_forward([graph], params)
    want = np.maximum(stats @ params.layers[0][N_REL], 0.0) @ params.layers[1][N_REL]
    assert np.allclose(h, want, atol=1e-12)


def test_two_parent_messages_are_averaged_single_layer():
    params = RGCNParams.create(np.random.default_rng(2), dims=(7, 3), n_relations=N_REL)
    stats = np.random.default_rng(3).normal(size=(3, 7))
    graph = GraphSnapshot(
        stats=stats, relations=np.array([-1, -1, 1]), parents=((), (), (0, 1))
    )
    h, _ = rgcn_forward([graph], params)
    want_child = stats[2] @ params.layers[0][N_REL] + (
        (stats[0] + stats[1]) / 2.0
    ) @ params.layers[0][1]
    assert np.allclose(h[2], want_child, atol=1e-12)
    assert np.allclose(h[0], stats[0] @ params.layers[0][N_REL], atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_forward_matches_the_dense_oracle(seed):
    params = RGCNParams.create(
        np.random.default_rng(1000 + seed), dims=SMALL_DIMS, n_relations=N_REL
    )
    graph = _snapshot(seed)
    h, _ = rgcn_forward([graph], params)
    want = dense_rgcn(graph.stats, graph.relations, graph.parents, params.layers, N_REL)
    assert np.abs(h - want).max() <= 1e-9


@pytest.mark.parametrize("dims", [SMALL_DIMS, (7, 32, 64)])
def test_a_batch_of_one_gives_the_bits_of_the_per_graph_pass(dims):
    for seed in range(40):
        rng = np.random.default_rng([seed, 61])
        params = RGCNParams.create(rng, dims=dims, n_relations=N_OPERATIONS)
        stats, relations, parents = random_graph(
            rng, max_nodes=12, n_relations=N_OPERATIONS
        )
        graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
        got, _ = rgcn_forward([graph], params)
        want, _ = rgcn_forward_reference(graph, params)
        assert got.tobytes() == want.tobytes()


def test_a_batch_stacks_the_embeddings_of_each_snapshot():
    params = RGCNParams.create(np.random.default_rng(22), dims=SMALL_DIMS, n_relations=N_REL)
    graphs = [_snapshot(seed, max_nodes=6) for seed in (3, 4, 5, 6)]
    h, _ = rgcn_forward(graphs, params)
    assert h.shape == (sum(g.n_nodes for g in graphs), SMALL_DIMS[-1])
    start = 0
    for g in graphs:
        alone, _ = rgcn_forward([g], params)
        assert np.abs(h[start : start + g.n_nodes] - alone).max() <= 1e-12
        start += g.n_nodes


def test_forward_is_equivariant_under_node_relabeling():
    params = RGCNParams.create(np.random.default_rng(4), dims=SMALL_DIMS, n_relations=N_REL)
    graph = _snapshot(9, max_nodes=5)
    m = graph.n_nodes
    if m < 2:
        pytest.skip("degenerate sample")
    perm = np.random.default_rng(5).permutation(m)
    inv = np.empty(m, dtype=int)
    inv[perm] = np.arange(m)
    shuffled = GraphSnapshot(
        stats=graph.stats[perm],
        relations=graph.relations[perm],
        parents=tuple(tuple(int(inv[p]) for p in graph.parents[i]) for i in perm),
    )
    h, _ = rgcn_forward([graph], params)
    hs, _ = rgcn_forward([shuffled], params)
    assert np.abs(hs - h[perm]).max() <= 1e-9


def test_forward_reuses_the_snapshots_read_only_structure():
    params = RGCNParams.create(np.random.default_rng(8), dims=SMALL_DIMS, n_relations=N_REL)
    graph = _snapshot(3, max_nodes=8)
    h1, _ = rgcn_forward([graph], params)
    operator, relation_rows = graph.message_operator, graph.relation_rows
    h2, _ = rgcn_forward([graph], params)
    assert h1.tobytes() == h2.tobytes()
    assert graph.message_operator is operator
    assert graph.relation_rows is relation_rows
    assert len(relation_rows[0])
    assert not operator.flags.writeable
    assert all(not a.flags.writeable for a in relation_rows)


def test_forward_rejects_wrong_stat_width():
    params = RGCNParams.create(np.random.default_rng(6), dims=SMALL_DIMS, n_relations=N_REL)
    graph = GraphSnapshot(
        stats=np.zeros((2, 5)), relations=np.array([-1, -1]), parents=((), ())
    )
    with pytest.raises(ValueError):
        rgcn_forward([graph], params)


# -- backward pass ------------------------------------------------------------------


def _kink_free_case(seed):
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        params = RGCNParams.create(rng, dims=SMALL_DIMS, n_relations=N_REL)
        stats, relations, parents = random_graph(rng, max_nodes=4, n_relations=N_REL)
        graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
        _, cache = rgcn_forward([graph], params)
        pre = cache[-1]
        if min(float(np.abs(z).min()) for z in pre[:-1]) > 1e-3:
            return params, graph
    raise AssertionError("could not find a kink-free case")


@pytest.mark.parametrize("seed", range(8))
def test_backward_matches_central_differences(seed):
    params, graph = _kink_free_case(seed)
    c = np.random.default_rng([seed, 777]).normal(size=(graph.n_nodes, SMALL_DIMS[-1]))

    def loss():
        h, _ = rgcn_forward([graph], params)
        return float(np.sum(h * c))

    _, cache = rgcn_forward([graph], params)
    grads = zeros_for_none(rgcn_backward(params, cache, c), params.params)
    for g, w in zip(grads, params.params, strict=True):
        assert fd_close(g, central_difference(loss, w), tol=1e-4)


def test_relation_weights_without_edges_get_zero_gradient():
    params = RGCNParams.create(np.random.default_rng(8), dims=SMALL_DIMS, n_relations=N_REL)
    stats = np.random.default_rng(9).normal(size=(2, 7))
    graph = GraphSnapshot(
        stats=stats, relations=np.array([-1, 0]), parents=((), (0,))
    )
    h, cache = rgcn_forward([graph], params)
    grads = rgcn_backward(params, cache, np.ones_like(h))
    width = N_REL + 1
    for l in range(2):
        assert np.any(grads[l * width + 0] != 0.0)
        assert grads[l * width + 1] is None
        assert grads[l * width + 2] is None
        assert grads[l * width + N_REL].shape == params.layers[l][N_REL].shape


def test_params_are_the_live_weights_layer_by_layer():
    params = RGCNParams.create(np.random.default_rng(17), dims=SMALL_DIMS, n_relations=N_REL)
    flat = params.params
    assert len(flat) == 2 * (N_REL + 1)
    assert flat[N_REL + 1] is params.layers[1][0]
    flat[-1][0, 0] = 42.0
    assert params.layers[1][N_REL][0, 0] == 42.0

    enc = Encoder.create(np.random.default_rng(18), dims=SMALL_DIMS, n_relations=N_REL)
    assert enc.params[-1] is enc.op_table
    enc.params[0][0, 0] = -7.0
    assert enc.rgcn.layers[0][0][0, 0] == -7.0


def test_backward_returns_one_gradient_per_param():
    enc = Encoder.create(np.random.default_rng(19), dims=SMALL_DIMS, n_relations=N_REL)
    graph = _snapshot(21, max_nodes=5)
    h, rcache = rgcn_forward([graph], enc.rgcn)
    rgrads = rgcn_backward(enc.rgcn, rcache, np.ones_like(h))
    assert len(rgrads) == len(enc.rgcn.params)
    assert all(g is None or g.shape == w.shape for g, w in zip(rgrads, enc.rgcn.params))

    x, cache = state_forward(enc, [(graph, StateSpec(groups=((0,),), op_id=1))])
    grads = state_backward(enc, cache, np.ones_like(x))
    assert len(grads) == len(enc.params)
    assert grads[-1].shape == enc.op_table.shape
    x, cache = state_forward(enc, [(graph, StateSpec(groups=((0,),)))])
    assert state_backward(enc, cache, np.ones_like(x))[-1] is None


def test_gradient_helpers_accumulate_and_step():
    params = RGCNParams.create(np.random.default_rng(10), dims=(7, 3), n_relations=N_REL)
    stats = np.random.default_rng(11).normal(size=(3, 7))
    graph = GraphSnapshot(stats=stats, relations=np.array([-1, 0, 0]), parents=((), (0,), (0,)))
    h, cache = rgcn_forward([graph], params)
    grads = rgcn_backward(params, cache, np.ones_like(h))
    assert [g is None for g in grads] == [False, True, True, False]
    before = [w.copy() for w in params.params]
    sgd_step(params.params, grads, lr=0.5)
    for w, b, g in zip(params.params, before, grads, strict=True):
        if g is None:
            assert w.tobytes() == b.tobytes()
        else:
            assert np.array_equal(w, b - 0.5 * g)


# -- composite states --------------------------------------------------------------


def test_cluster_rep_means_the_selected_rows():
    emb = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(cluster_rep(emb, [0, 2]), (emb[0] + emb[2]) / 2.0)
    with pytest.raises(ValueError):
        cluster_rep(emb, [])


def test_op_rep_copies_the_table_row_or_falls_back_to_one_hot():
    enc = Encoder.create(np.random.default_rng(11), dims=SMALL_DIMS, n_relations=N_REL)
    v = op_rep(enc, 2)
    assert np.array_equal(v, enc.op_table[2])
    v[0] += 99.0
    assert enc.op_table[2, 0] != v[0]

    hot = op_rep(None, 3)
    assert hot.shape == (N_OPERATIONS,)
    assert hot[3] == 1.0 and hot.sum() == 1.0
    assert np.array_equal(op_one_hot_by_id(3), hot)


def test_state_forward_concatenates_pooled_groups_and_op_row():
    enc = Encoder.create(np.random.default_rng(12), dims=SMALL_DIMS, n_relations=N_REL)
    graph = _snapshot(13, max_nodes=5)
    m = graph.n_nodes
    if m < 2:
        pytest.skip("degenerate sample")
    spec = StateSpec(groups=((0,), tuple(range(m))), op_id=1)
    x, _ = state_forward(enc, [(graph, spec)])
    h, _ = rgcn_forward([graph], enc.rgcn)
    d = enc.out_dim
    assert x.shape == (1, 3 * d)
    x = x[0]
    assert np.allclose(x[:d], h[0], atol=1e-12)
    assert np.allclose(x[d : 2 * d], h.mean(axis=0), atol=1e-12)
    assert np.array_equal(x[2 * d :], enc.op_table[1])


def test_state_backward_splits_dx_across_groups_and_op_table():
    enc = Encoder.create(np.random.default_rng(14), dims=SMALL_DIMS, n_relations=N_REL)
    graph = _snapshot(20, max_nodes=4)
    m = graph.n_nodes
    groups = ((0,),) if m == 1 else ((0,), tuple(range(m)))
    spec = StateSpec(groups=groups, op_id=0)
    x, cache = state_forward(enc, [(graph, spec)])
    v = np.random.default_rng(15).normal(size=x.shape)
    grads = state_backward(enc, cache, v)
    op_grads = grads[-1]
    d = enc.out_dim
    assert np.array_equal(op_grads[0], v[0, -d:])
    assert np.all(op_grads[1:] == 0.0)
    assert len(grads) == len(enc.params)

    with pytest.raises(ValueError):
        state_backward(enc, cache, v[:, :-1])


def test_a_batch_of_states_pools_each_snapshot_and_sums_repeated_op_rows():
    enc = Encoder.create(np.random.default_rng(23), dims=SMALL_DIMS, n_relations=N_REL)
    graphs = [_snapshot(seed, max_nodes=6) for seed in (7, 8, 9)]
    contexts = [
        (g, StateSpec(groups=((0,), tuple(range(g.n_nodes))), op_id=op))
        for g, op in zip(graphs, (1, 0, 1))
    ]
    x, cache = state_forward(enc, contexts)
    for row, ctx in zip(x, contexts):
        alone, _ = state_forward(enc, [ctx])
        assert np.abs(row - alone[0]).max() <= 1e-12
    v = np.random.default_rng(24).normal(size=x.shape)
    op_grads = state_backward(enc, cache, v)[-1]
    d = enc.out_dim
    assert np.array_equal(op_grads[1], v[0, -d:] + v[2, -d:])
    assert np.array_equal(op_grads[0], v[1, -d:])

    mixed = [contexts[0], (graphs[1], StateSpec(groups=((0,),), op_id=1))]
    with pytest.raises(ValueError):
        state_forward(enc, mixed)
    with pytest.raises(ValueError):
        state_forward(enc, [(graphs[0], StateSpec(groups=((),), op_id=1))])


@pytest.mark.parametrize("seed", range(4))
def test_state_gradients_match_central_differences(seed):
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt, 3])
        enc = Encoder.create(rng, dims=SMALL_DIMS, n_relations=N_REL)
        stats, relations, parents = random_graph(rng, max_nodes=4, n_relations=N_REL)
        graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
        _, rcache = rgcn_forward([graph], enc.rgcn)
        pre = rcache[-1]
        if min(float(np.abs(z).min()) for z in pre[:-1]) > 1e-3:
            break
    else:
        raise AssertionError("could not find a kink-free case")
    m = graph.n_nodes
    spec = StateSpec(groups=(tuple(range(m)),), op_id=2)
    v = np.random.default_rng([seed, 5]).normal(size=2 * enc.out_dim)

    def loss():
        x, _ = state_forward(enc, [(graph, spec)])
        return float(x[0] @ v)

    _, cache = state_forward(enc, [(graph, spec)])
    grads = zeros_for_none(state_backward(enc, cache, v[None, :]), enc.params)
    for g, w in zip(grads, enc.params, strict=True):
        assert fd_close(g, central_difference(loss, w), tol=1e-4)


def test_encoder_create_shapes_and_grad_plumbing():
    enc = Encoder.create(np.random.default_rng(16))
    assert enc.rgcn.dims == (7, 32, 64)
    assert enc.out_dim == 64
    assert enc.op_table.shape == (N_OPERATIONS, 64)

    before_w = enc.rgcn.layers[0][0].copy()
    before_t = enc.op_table.copy()
    sgd_step(enc.params, [2.0 * np.ones_like(w) for w in enc.params], lr=0.1)
    assert np.allclose(enc.rgcn.layers[0][0], before_w - 0.2)
    assert np.allclose(enc.op_table, before_t - 0.2)
