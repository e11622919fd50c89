"""Value agents: selection policy, replay buffer and TD training."""

import copy

import numpy as np
import pytest
from scipy import stats as scipy_stats

from oracles import dense_train_step_reference, random_graph, train_step_reference
from tcto.agents import (
    BUFFER_CAPACITY,
    HEAD,
    OPERAND,
    OPERATION,
    ROLES,
    Transition,
    candidate_q_values,
    epsilon_greedy,
    make_agent,
    operation_q_values,
    push_transition,
    select_candidate,
    sync_target,
    train_step,
)
from tcto.encoder import Encoder, GraphSnapshot, StateSpec, state_forward
from tcto.nnsub import forward
from tcto.opset import N_OPERATIONS

BATCH = 8


def _head_agent(input_dim=3, seed=0, hidden=8):
    return make_agent(HEAD, input_dim, 1, hidden, np.random.default_rng(seed))


def _terminal(x, r):
    return Transition(
        state_input=np.asarray(x, dtype=float),
        action=0,
        reward=float(r),
        next_candidates=[],
    )


# -- selection policy ---------------------------------------------------------------


def test_greedy_selection_takes_the_argmax():
    rng = np.random.default_rng(0)
    assert epsilon_greedy([0.1, 0.9], 0.0, rng) == 1
    assert epsilon_greedy([0.9, 0.1], 0.0, rng) == 0


def test_greedy_ties_resolve_to_the_first_maximum():
    rng = np.random.default_rng(0)
    assert epsilon_greedy([0.5, 0.5, 0.1], 0.0, rng) == 0


def test_greedy_selection_consumes_no_randomness():
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    for _ in range(5):
        epsilon_greedy([0.3, 0.2, 0.9], 0.0, rng)
    assert rng.bit_generator.state == before


def test_greedy_choice_is_invariant_to_a_constant_shift():
    rng = np.random.default_rng(1)
    q = np.array([0.2, -0.4, 0.7, 0.1])
    assert epsilon_greedy(q, 0.0, rng) == epsilon_greedy(q + 7.3, 0.0, rng)
    assert epsilon_greedy(q, 0.0, rng) == epsilon_greedy(q - 123.0, 0.0, rng)


def test_full_exploration_is_uniform_over_the_candidates():
    rng = np.random.default_rng(2)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[epsilon_greedy([9.0, 0.0, 0.0, 0.0], 1.0, rng)] += 1
    assert scipy_stats.chisquare(counts).pvalue > 0.01


def test_single_candidate_is_always_chosen():
    agent = _head_agent()
    rng = np.random.default_rng(3)
    for eps in (0.0, 0.5, 1.0):
        assert select_candidate(agent, [np.ones(3)], eps, rng) == 0


def test_selection_requires_candidates():
    with pytest.raises(ValueError):
        select_candidate(_head_agent(), [], 0.0, np.random.default_rng(0))


# -- q values ------------------------------------------------------------------------


def test_candidate_scores_come_from_the_prediction_net():
    agent = _head_agent(seed=4)
    cands = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    got = candidate_q_values(agent, cands)
    want = [float(forward(agent.prediction, c)[0]) for c in cands]
    assert got.shape == (2,)
    assert np.allclose(got, want)


def test_vector_output_agents_refuse_per_candidate_scoring():
    agent = make_agent(OPERATION, 4, N_OPERATIONS, 8, np.random.default_rng(5))
    with pytest.raises(ValueError):
        candidate_q_values(agent, [np.ones(4)])


def test_operation_agent_returns_one_q_value_per_operation():
    agent = make_agent(OPERATION, 4, N_OPERATIONS, 8, np.random.default_rng(6))
    q = operation_q_values(agent, np.ones(4))
    assert q.shape == (N_OPERATIONS,)
    assert q.shape == (17,)


def test_make_agent_validates_the_role():
    assert set(ROLES) == {HEAD, OPERATION, OPERAND}
    with pytest.raises(ValueError):
        make_agent("critic", 3, 1, 8, np.random.default_rng(0))


def test_fresh_agents_start_with_identical_twin_networks():
    agent = _head_agent(seed=8)
    for wp, wt in zip(agent.prediction.weights, agent.target.weights):
        assert np.array_equal(wp, wt)
    agent.prediction.weights[0][0, 0] += 1.0
    assert agent.prediction.weights[0][0, 0] != agent.target.weights[0][0, 0]


# -- replay buffer ----------------------------------------------------------------------


def test_buffer_keeps_the_freshest_sixteen():
    agent = _head_agent()
    for r in range(17):
        push_transition(agent, _terminal(np.zeros(3), r))
    assert BUFFER_CAPACITY == 16
    assert len(agent.buffer) == 16
    assert agent.buffer[0].reward == 1.0
    assert agent.buffer[-1].reward == 16.0


# -- training ----------------------------------------------------------------------------


def test_training_waits_for_a_full_batch():
    agent = _head_agent(seed=9)
    rng = np.random.default_rng(10)
    for r in range(BATCH - 1):
        push_transition(agent, _terminal(np.ones(3) * r, r))
        assert train_step(agent, rng, gamma=0.95, lr=0.01, batch_size=BATCH) is None
    push_transition(agent, _terminal(np.ones(3), 1.0))
    assert train_step(agent, rng, gamma=0.95, lr=0.01, batch_size=BATCH) is not None


def test_reported_loss_is_the_pre_update_batch_mean():
    agent = _head_agent(seed=11)
    rng_data = np.random.default_rng(12)
    for _ in range(10):
        push_transition(
            agent, _terminal(rng_data.normal(size=3), rng_data.normal())
        )
    twin = np.random.default_rng(13)
    picks = twin.choice(len(agent.buffer), size=BATCH, replace=False)
    expected = 0.0
    for i in picks:
        t = agent.buffer[int(i)]
        q = float(forward(agent.prediction, t.state_input)[0])
        expected += (q - t.reward) ** 2
    expected /= BATCH
    got = train_step(agent, np.random.default_rng(13), gamma=0.0, lr=0.01, batch_size=BATCH)
    assert got == pytest.approx(expected, rel=1e-12)


def test_vector_agents_index_the_loss_by_the_stored_action():
    agent = make_agent(OPERATION, 3, 4, 8, np.random.default_rng(14))
    rng_data = np.random.default_rng(15)
    for k in range(9):
        push_transition(
            agent,
            Transition(
                state_input=rng_data.normal(size=3),
                action=k % 4,
                reward=rng_data.normal(),
                next_candidates=[],
            ),
        )
    twin = np.random.default_rng(16)
    picks = twin.choice(len(agent.buffer), size=BATCH, replace=False)
    expected = 0.0
    for i in picks:
        t = agent.buffer[int(i)]
        q = float(forward(agent.prediction, t.state_input)[t.action])
        expected += (q - t.reward) ** 2
    expected /= BATCH
    got = train_step(agent, np.random.default_rng(16), gamma=0.0, lr=0.01, batch_size=BATCH)
    assert got == pytest.approx(expected, rel=1e-12)


def test_td_targets_flow_through_the_target_network():
    agent = _head_agent(seed=17)
    cand = np.array([0.4, -0.2, 0.9])
    base_q = float(forward(agent.target, cand)[0])
    for _ in range(8):
        push_transition(
            agent,
            Transition(
                state_input=np.zeros(3),
                action=0,
                reward=0.25,
                next_candidates=[cand],
            ),
        )
    agent.target.biases[-1][:] += 1.0
    agent.prediction.biases[-1][:] += 5.0

    q0 = float(forward(agent.prediction, np.zeros(3))[0])
    y = 0.25 + 1.0 * (base_q + 1.0)
    expected = (q0 - y) ** 2
    got = train_step(agent, np.random.default_rng(18), gamma=1.0, lr=0.0, batch_size=BATCH)
    assert got == pytest.approx(expected, rel=1e-10)


def test_terminal_transitions_ignore_the_target_network():
    agent = _head_agent(seed=19)
    for _ in range(8):
        push_transition(agent, _terminal(np.ones(3), 2.0))
    agent.target.biases[-1][:] += 100.0
    q0 = float(forward(agent.prediction, np.ones(3))[0])
    got = train_step(agent, np.random.default_rng(20), gamma=1.0, lr=0.0, batch_size=BATCH)
    assert got == pytest.approx((q0 - 2.0) ** 2, rel=1e-10)


def test_fifty_steps_on_a_frozen_buffer_reduce_the_loss():
    agent = _head_agent(seed=21, hidden=100)
    for _ in range(16):
        push_transition(agent, _terminal([0.5, -0.5, 1.0], 1.0))
    losses = [
        train_step(agent, np.random.default_rng(k), gamma=0.95, lr=0.01, batch_size=BATCH)
        for k in range(50)
    ]
    assert all(loss is not None for loss in losses)
    assert losses[-1] < losses[0]
    assert losses[-1] < 1e-3


def test_training_is_reproducible_under_the_same_seeds():
    def run():
        agent = _head_agent(seed=22)
        data = np.random.default_rng(23)
        for _ in range(12):
            push_transition(agent, _terminal(data.normal(size=3), data.normal()))
        losses = [
            train_step(agent, np.random.default_rng(k), gamma=0.95, lr=0.01, batch_size=BATCH)
            for k in range(5)
        ]
        return losses, [w.copy() for w in agent.prediction.weights]

    la, wa = run()
    lb, wb = run()
    assert la == lb
    for a, b in zip(wa, wb):
        assert np.array_equal(a, b)


def test_sync_copies_prediction_into_target():
    agent = _head_agent(seed=24)
    agent.prediction.weights[0][:] += 0.5
    assert not np.array_equal(agent.prediction.weights[0], agent.target.weights[0])
    sync_target(agent)
    for wp, wt in zip(agent.prediction.weights, agent.target.weights):
        assert np.array_equal(wp, wt)
    agent.prediction.weights[0][0, 0] += 1.0
    assert agent.prediction.weights[0][0, 0] != agent.target.weights[0][0, 0]


# -- joint encoder training ------------------------------------------------------------


def _encoded_setup(seed):
    rng = np.random.default_rng(seed)
    enc2 = Encoder.create(rng, dims=(7, 4, 3), n_relations=3)
    stats, relations, parents = random_graph(rng, max_nodes=4, n_relations=3)
    graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
    spec = StateSpec(groups=(tuple(range(graph.n_nodes)),), op_id=1)
    agent = make_agent(HEAD, 2 * enc2.out_dim, 1, 8, rng)
    return enc2, graph, spec, agent


def test_training_reencodes_states_through_the_live_encoder():
    enc2, graph, spec, agent = _encoded_setup(25)
    for _ in range(8):
        push_transition(
            agent,
            Transition(
                state_input=np.zeros(6),
                action=0,
                reward=0.5,
                next_candidates=[],
                state_ctx=(graph, spec),
            ),
        )
    x, _ = state_forward(enc2, [(graph, spec)])
    q = float(forward(agent.prediction, x[0])[0])
    got = train_step(
        agent, np.random.default_rng(26), gamma=0.0, lr=0.0, batch_size=BATCH, encoder=enc2
    )
    assert got == pytest.approx((q - 0.5) ** 2, rel=1e-10)


def test_training_updates_the_encoder_parameters():
    enc2, graph, spec, agent = _encoded_setup(27)
    for _ in range(8):
        push_transition(
            agent,
            Transition(
                state_input=np.zeros(6),
                action=0,
                reward=3.0,
                next_candidates=[],
                state_ctx=(graph, spec),
            ),
        )
    table_before = enc2.op_table.copy()
    w_before = enc2.rgcn.layers[0][enc2.rgcn.n_relations].copy()
    loss = train_step(
        agent, np.random.default_rng(28), gamma=0.95, lr=0.05, batch_size=BATCH, encoder=enc2
    )
    assert loss is not None and loss > 0.0
    assert np.any(enc2.op_table[1] != table_before[1])
    assert np.array_equal(enc2.op_table[0], table_before[0])
    assert np.any(enc2.rgcn.layers[0][enc2.rgcn.n_relations] != w_before)


def test_without_an_encoder_the_stored_inputs_are_used_and_it_stays_frozen():
    enc2, graph, spec, agent = _encoded_setup(29)
    for _ in range(8):
        push_transition(
            agent,
            Transition(
                state_input=np.zeros(6),
                action=0,
                reward=0.5,
                next_candidates=[],
                state_ctx=(graph, spec),
            ),
        )
    table_before = enc2.op_table.copy()
    q0 = float(forward(agent.prediction, np.zeros(6))[0])
    got = train_step(agent, np.random.default_rng(30), gamma=0.0, lr=0.0, batch_size=BATCH)
    assert got == pytest.approx((q0 - 0.5) ** 2, rel=1e-10)
    assert np.array_equal(enc2.op_table, table_before)


# -- sparse SGD steps and the target max-Q memo ----------------------------------------


def _random_transition(rng, role, state_dim, with_encoder):
    """A transition for role over a random graph that uses at most 3 of the
    encoder's 17 relations, or at most 5 of all 17, with a state_ctx
    exactly when the agent trains an encoder, and with or without next
    candidates."""
    n_rel = 3 if rng.random() < 0.5 else N_OPERATIONS
    stats, relations, parents = random_graph(rng, max_nodes=6, n_relations=n_rel)
    graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
    m = graph.n_nodes
    n_groups = {HEAD: 2, OPERATION: 2, OPERAND: 3}[role]
    groups = tuple(
        tuple(sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist()))
        for _ in range(n_groups)
    )
    op_id = int(rng.integers(N_OPERATIONS)) if role == OPERAND else None
    ctx = (graph, StateSpec(groups, op_id)) if with_encoder else None
    n_next = 0 if rng.random() < 0.3 else int(rng.integers(1, 4))
    return Transition(
        state_input=rng.normal(size=state_dim),
        action=int(rng.integers(N_OPERATIONS)) if role == OPERATION else 0,
        reward=float(rng.normal()),
        next_candidates=[rng.normal(size=state_dim) for _ in range(n_next)],
        state_ctx=ctx,
    )


def _bits(arrays):
    return [a.view(np.int64).copy() for a in arrays]


def _train_twins(role, with_encoder, reference, seed, check):
    """Train an agent and its deep copy for 24 steps, the copy by
    reference, with sync_target every third step; call check(got, want,
    arrays, ref_arrays) after each step and return the batches train_step
    drew."""
    rng = np.random.default_rng([seed, ROLES.index(role), with_encoder])
    dims = (7, 4, 3)
    encoder = Encoder.create(rng, dims=dims) if with_encoder else None
    d = dims[-1]
    state_dim = {HEAD: 2 * d, OPERATION: 2 * d, OPERAND: 4 * d}[role]
    n_out = N_OPERATIONS if role == OPERATION else 1
    agent = make_agent(role, state_dim, n_out, 8, rng)
    for _ in range(BATCH - 1):
        push_transition(agent, _random_transition(rng, role, state_dim, with_encoder))
    ref_agent, ref_encoder = copy.deepcopy((agent, encoder))
    replay, ref_replay = np.random.default_rng(35), np.random.default_rng(35)
    batches = []
    for step in range(24):
        t = _random_transition(rng, role, state_dim, with_encoder)
        push_transition(agent, t)
        push_transition(ref_agent, copy.deepcopy(t))
        picks = copy.deepcopy(replay).choice(len(agent.buffer), size=BATCH, replace=False)
        batches.append([agent.buffer[int(i)] for i in picks])
        kw = dict(gamma=0.9, lr=0.05, batch_size=BATCH)
        got = train_step(agent, replay, encoder=encoder, **kw)
        want = reference(ref_agent, ref_replay, encoder=ref_encoder, **kw)
        if step % 3 == 2:
            sync_target(agent)
            sync_target(ref_agent)
        arrays = agent.prediction.params + agent.target.params
        ref_arrays = ref_agent.prediction.params + ref_agent.target.params
        if with_encoder:
            arrays += encoder.params
            ref_arrays += ref_encoder.params
        check(got, want, arrays, ref_arrays)
    return batches


@pytest.mark.parametrize("with_encoder", [True, False])
@pytest.mark.parametrize("role", [HEAD, OPERATION, OPERAND])
def test_train_step_matches_the_dense_reference_bit_for_bit(role, with_encoder):
    def check(got, want, arrays, ref_arrays):
        assert got is not None
        assert np.array(got).view(np.int64) == np.array(want).view(np.int64)
        for a, b in zip(_bits(arrays), _bits(ref_arrays), strict=True):
            assert np.array_equal(a, b)

    _train_twins(role, with_encoder, dense_train_step_reference, 34, check)


@pytest.mark.parametrize("with_encoder", [True, False])
@pytest.mark.parametrize("role", [HEAD, OPERATION, OPERAND])
def test_batched_train_step_matches_the_per_transition_reference(role, with_encoder):
    def check(got, want, arrays, ref_arrays):
        assert abs(got - want) <= 1e-12 * abs(want)
        for a, b in zip(arrays, ref_arrays, strict=True):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    batches = _train_twins(role, with_encoder, train_step_reference, 36, check)
    if not with_encoder:
        return
    # The batches covered what the batched encoder pass must get right.
    encoded = [[t.state_ctx for t in b] for b in batches]
    assert any(len({g.n_nodes for g, _ in ctx}) > 1 for ctx in encoded)

    def relations(graph):
        return set(graph.relation_rows[1].tolist())

    assert any(
        any(
            sum(rel in relations(g) for g, _ in ctx) == 1
            for rel in set().union(*(relations(g) for g, _ in ctx))
        )
        for ctx in encoded
    )


def test_sync_target_clears_the_memoised_target_q():
    agent = _head_agent(seed=40)
    cand = np.array([0.4, -0.2, 0.9])
    for _ in range(BATCH):
        push_transition(agent, Transition(np.zeros(3), 0, 0.25, [cand]))
    train_step(agent, np.random.default_rng(41), gamma=0.9, lr=0.0, batch_size=BATCH)
    old = float(forward(agent.target, cand)[0])
    assert [t.max_target_q for t in agent.buffer] == [old] * BATCH

    agent.prediction.biases[-1][:] += 1.0
    sync_target(agent)
    assert [t.max_target_q for t in agent.buffer] == [None] * BATCH
    loss = train_step(agent, np.random.default_rng(42), gamma=0.9, lr=0.0, batch_size=BATCH)
    new = float(forward(agent.target, cand)[0])
    assert new == pytest.approx(old + 1.0, abs=1e-12)
    assert [t.max_target_q for t in agent.buffer] == [new] * BATCH
    q0 = float(forward(agent.prediction, np.zeros(3))[0])
    assert loss == pytest.approx((q0 - (0.25 + 0.9 * new)) ** 2, rel=1e-12)
