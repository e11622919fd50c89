"""Cascading value agents: head cluster, operation, operand cluster.

Each agent is a DQN-style pair of prediction and target networks over a
small replay buffer. Head and operand agents score one (state, candidate)
pair per forward pass with a scalar output; the operation agent maps its
state to one Q-value per operation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from .nnsub import DenseNet, GradBuffers, backprop, clone, copy_params, forward, forward_cache

HEAD = "head"
OPERATION = "operation"
OPERAND = "operand"
ROLES = (HEAD, OPERATION, OPERAND)

BUFFER_CAPACITY = 16


@dataclass
class Transition:
    """One replay entry.

    next_candidates holds the Q-network inputs available at the next
    decision point; a terminal transition leaves it empty. state_ctx
    optionally carries (GraphSnapshot, StateSpec) so training can recompute
    the state through the current encoder and push gradients into it.
    max_target_q memoises the target network's best Q-value over
    next_candidates: train_step fills it on first use, and sync_target,
    the only step that changes the target network, clears it.
    """

    state_input: np.ndarray
    action: int
    reward: float
    next_candidates: list
    state_ctx: tuple | None = None
    max_target_q: float | None = None


@dataclass
class Agent:
    role: str
    prediction: DenseNet
    target: DenseNet
    buffer: deque = field(default_factory=lambda: deque(maxlen=BUFFER_CAPACITY))

    @property
    def output_dim(self) -> int:
        return self.prediction.dims[-1]


def make_agent(role: str, input_dim: int, n_outputs: int, hidden: int, rng) -> Agent:
    if role not in ROLES:
        raise ValueError(f"unknown role {role!r}")
    net = DenseNet.create((input_dim, hidden, n_outputs), rng)
    return Agent(role=role, prediction=net, target=clone(net))


def epsilon_greedy(q_values, epsilon: float, rng: np.random.Generator) -> int:
    """Argmax with probability 1-epsilon (ties to the first maximum).

    Raises FloatingPointError, before any draw, when a Q-value is not finite.
    """
    q_values = np.asarray(q_values, dtype=float)
    if not np.isfinite(q_values).all():
        raise FloatingPointError("a Q-value is not finite")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q_values.shape[0]))
    return int(np.argmax(q_values))


def candidate_q_values(agent: Agent, candidates) -> np.ndarray:
    """Scalar prediction-net score per candidate input vector."""
    if agent.output_dim != 1:
        raise ValueError(f"{agent.role} agent does not score per-candidate inputs")
    return np.array([float(forward(agent.prediction, x)[0]) for x in candidates])


def select_candidate(agent: Agent, candidates, epsilon: float, rng) -> int:
    """Index of the chosen candidate under epsilon-greedy."""
    if not candidates:
        raise ValueError("no candidates to select from")
    return epsilon_greedy(candidate_q_values(agent, candidates), epsilon, rng)


def operation_q_values(agent: Agent, state_input) -> np.ndarray:
    return np.asarray(forward(agent.prediction, state_input), dtype=float)


def push_transition(agent: Agent, t: Transition) -> None:
    agent.buffer.append(t)


def _fill_target_q(agent: Agent, batch) -> None:
    """Memoise max_target_q for the transitions of batch that have next
    candidates and no memo yet, in one target-network pass over all of
    their candidates."""
    todo = [t for t in batch if t.next_candidates and t.max_target_q is None]
    if not todo:
        return
    best = forward(agent.target, np.stack([x for t in todo for x in t.next_candidates]))
    sizes = [len(t.next_candidates) for t in todo]
    starts = np.cumsum(sizes) - sizes
    for t, q in zip(todo, np.maximum.reduceat(best.max(axis=1), starts)):
        t.max_target_q = float(q)


def train_step(
    agent: Agent,
    rng: np.random.Generator,
    *,
    gamma: float,
    lr: float,
    batch_size: int,
    encoder: "enc.Encoder | None" = None,
) -> float | None:
    """One squared-TD-error SGD step over a without-replacement minibatch.

    Returns the pre-update mean loss, or None while the buffer is short.
    When an encoder is given, transitions carrying state_ctx are re-encoded
    through it, all in one encoder pass, and the loss gradient also updates
    the encoder parameters; transitions without state_ctx add nothing to
    the encoder's gradient. The minibatch goes through the value network
    as one (batch_size, d) array, and each array's gradient of the mean
    loss goes into the step's GradBuffers at once, so SGD touches only the
    arrays the batch reached. A transition's target max-Q is computed once
    per target network and kept in max_target_q until the next
    sync_target.
    """
    if len(agent.buffer) < batch_size:
        return None
    picks = rng.choice(len(agent.buffer), size=batch_size, replace=False)
    batch = [agent.buffer[int(i)] for i in picks]

    x = np.stack([t.state_input for t in batch])
    encoded = []
    if encoder is not None:
        encoded = [k for k, t in enumerate(batch) if t.state_ctx is not None]
    if encoded:
        contexts = [batch[k].state_ctx for k in encoded]
        x[encoded], state_cache = enc.state_forward(encoder, contexts)
    out, cache = forward_cache(agent.prediction, x)
    _fill_target_q(agent, batch)
    y = np.array(
        [t.reward + gamma * t.max_target_q if t.next_candidates else t.reward for t in batch]
    )
    rows = np.arange(batch_size)
    actions = [t.action for t in batch] if agent.output_dim > 1 else 0
    diff = out[rows, actions] - y
    dy = np.zeros_like(out)
    dy[rows, actions] = (2.0 / batch_size) * diff
    grads, dx = backprop(agent.prediction, cache, dy)
    net_grads = GradBuffers(agent.prediction.params)
    for i, g in enumerate(grads):
        net_grads.add(i, g)
    net_grads.sgd_step(lr)
    if encoded:
        enc_grads = GradBuffers(encoder.params)
        enc.state_backward(encoder, state_cache, dx[encoded], enc_grads)
        enc_grads.sgd_step(lr)
    return float(diff @ diff) / batch_size


def forget_target_q(agent: Agent) -> None:
    """Clear the max_target_q memo of every buffered transition."""
    for t in agent.buffer:
        t.max_target_q = None


def sync_target(agent: Agent) -> None:
    copy_params(agent.prediction, agent.target)
    forget_target_q(agent)
