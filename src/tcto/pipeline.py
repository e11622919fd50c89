"""Search driver.

Pipeline._step runs the six stages of one step in order:

- _cluster encodes the alive roadmap nodes once (one snapshot, one RGCN
  pass) and clusters them;
- _decide asks the three agents for a head cluster, an operation and (for
  binary operations) an operand cluster;
- _grow grows the roadmap by group-wise crossing;
- _score scores the new feature set with cross validation and rewards the
  agents;
- _learn trains the agents from replay;
- _prune keeps the node count inside budget by node-wise pruning early in
  training and by backtracking to the episode's best snapshot later on.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import agents as ag
from . import encoder as enc
from .clustering import cluster_nodes
from .evaluator import EvalConfig, cv_split, evaluate
from .opset import (
    N_OPERATIONS,
    OPERATIONS,
    UNARY_OPERATIONS,
    Operation,
    apply_binary,
    apply_unary,
)
from .reward import StepReward, step_reward
from .roadmap import Roadmap
from .tabular import STAT_DIM, DataError, Dataset


class PipelineError(ValueError):
    """Pipeline misuse: missing policy, bad configuration, wrong order."""


class ConfigError(PipelineError):
    """A configuration value or key is not acceptable."""


@dataclass(frozen=True)
class RunConfig:
    episodes: int = 50
    steps_per_episode: int = 100
    application_episodes: int = 10
    seed: int = 0
    test_fraction: float = 0.2
    node_budget_factor: int = 4
    node_wise_fraction: float = 0.30
    candidate_cap: int = 64
    epsilon_start: float = 0.9
    epsilon_end: float = 0.05
    gamma: float = 0.95
    learning_rate: float = 0.01
    hidden_size: int = 100
    batch_size: int = 8
    target_sync_every: int = 10
    w_performance: float = 1.0
    w_complexity: float = 1.0
    use_rgcn: bool = True
    use_structure: bool = True
    use_similarity: bool = True
    random_policy: bool = False
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        # json reads NaN and Infinity, and NaN passes a bound like learning_rate's.
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
        if self.episodes < 0 or self.steps_per_episode < 1:
            raise ConfigError("episodes must be >= 0 and steps_per_episode >= 1")
        if self.application_episodes < 0:
            raise ConfigError("application_episodes must be >= 0")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie strictly between 0 and 1")
        if self.node_budget_factor < 1:
            raise ConfigError("node_budget_factor must be >= 1")
        if not 0.0 <= self.node_wise_fraction <= 1.0:
            raise ConfigError("node_wise_fraction must lie in [0, 1]")
        if self.candidate_cap < 1:
            raise ConfigError("candidate_cap must be >= 1")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ConfigError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.hidden_size < 1 or self.batch_size < 1 or self.target_sync_every < 1:
            raise ConfigError("hidden_size, batch_size, target_sync_every must be >= 1")
        if self.batch_size > ag.BUFFER_CAPACITY:
            raise ConfigError(
                f"batch_size must be <= {ag.BUFFER_CAPACITY}, the replay buffer's "
                f"capacity, or no agent ever trains; got {self.batch_size}"
            )


# The evaluator's keys are EvalConfig's fields, its seed named apart from the run's.
_EVAL_KEYS = {"eval_seed" if f.name == "seed" else f.name: f.name for f in fields(EvalConfig)}
_RUN_KEYS = {f.name for f in fields(RunConfig)} - {"eval"}


def config_from_dict(obj) -> RunConfig:
    """Build a RunConfig from a flat mapping; unknown keys are rejected, and
    so is a value of another JSON type than its default (an int is a float)."""
    if not isinstance(obj, dict):
        raise ConfigError("configuration must be a JSON object")
    defaults = RunConfig()
    base, eval_kw = {}, {}
    for key, value in obj.items():
        if key in _EVAL_KEYS:
            into, name, default = eval_kw, _EVAL_KEYS[key], defaults.eval
        elif key in _RUN_KEYS:
            into, name, default = base, key, defaults
        else:
            raise ConfigError(f"unknown config key {key!r}")
        kind = type(getattr(default, name))
        kinds = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
            article = "an" if kind is int else "a"
            raise ConfigError(
                f"config key {key!r} must be {article} {kind.__name__}, got {value!r}"
            )
        into[name] = value
    try:
        return replace(defaults, **base, eval=replace(defaults.eval, **eval_kw))
    except DataError as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


def config_to_dict(cfg: RunConfig) -> dict:
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "eval"}
    inverse = {v: k for k, v in _EVAL_KEYS.items()}
    for f in fields(cfg.eval):
        out[inverse[f.name]] = getattr(cfg.eval, f.name)
    return out


@dataclass
class StepRecord:
    episode: int
    step: int
    phase: str
    epsilon: float
    clusters: int
    head_cluster: int
    operation: str
    operand_cluster: int | None
    fallback: bool
    attempts: int
    created: int
    revived: int
    duplicates: int
    rejected: int
    alive: int
    score: float
    best_score: float
    reward_performance: float
    reward_complexity: float
    reward_total: float
    shares: dict
    losses: dict
    prune: str
    alive_after: int


@dataclass
class RunReport:
    phase: str
    task: str
    baseline_score: float
    best_score: float
    best_episode: int
    best_step: int
    test_baseline: float
    test_score: float
    best_roadmap_json: bytes
    records: list
    timings: dict


_TIMING_KEYS = (
    "clustering",
    "decision",
    "roadmap_update",
    "reward_estimation",
    "learning",
    "pruning",
)

EXPLORE = "explore"
APPLY = "apply"

_ALL_IDS = [op.id for op in OPERATIONS]
_UNARY_IDS = [op.id for op in UNARY_OPERATIONS]


@dataclass
class _Episode:
    """One episode's roadmap. pending holds each agent's last transition,
    without next candidates, until the next decision gives them."""

    roadmap: Roadmap
    prev_score: float
    episode_best: object
    pending: dict


@dataclass
class _Clusters:
    """The alive subgraph, its node embeddings h and their clustering.

    groups holds each cluster as ascending node ids, group_pos the same
    clusters as graph row positions, all_pos every row.
    """

    graph: enc.GraphSnapshot
    h: np.ndarray
    groups: list
    group_pos: list
    all_pos: tuple


@dataclass
class _Decision:
    head_idx: int
    head_input: np.ndarray
    op: Operation
    fallback: bool = False
    operand_idx: int | None = None
    operand_input: np.ndarray | None = None

    @property
    def acting(self) -> tuple:
        if self.operand_idx is None:
            return (ag.HEAD, ag.OPERATION)
        return (ag.HEAD, ag.OPERATION, ag.OPERAND)


@dataclass
class _Growth:
    """The growth counters of a StepRecord, under the same names."""

    attempts: int
    created: int = 0
    revived: int = 0
    duplicates: int = 0
    rejected: int = 0
    alive: int = 0


@dataclass
class _Scored:
    score: float
    reward: StepReward
    improved: tuple | None


def _timed(timings: dict, key: str, stage, *args):
    t0 = time.perf_counter()
    out = stage(*args)
    timings[key] += time.perf_counter() - t0
    return out


class Pipeline:
    """Holds the dataset split, the agents and the encoder across episodes."""

    def __init__(self, dataset: Dataset, cfg: RunConfig):
        self.cfg = cfg
        self.dataset = dataset
        self.train_data, self.test_data = cv_split(
            dataset, cfg.test_fraction, cfg.seed, cfg.eval.folds
        )
        ss = np.random.SeedSequence([cfg.seed, 7])
        seed_params, seed_policy, seed_replay = ss.spawn(3)
        rng_params = np.random.default_rng(seed_params)
        self.rng_policy = np.random.default_rng(seed_policy)
        self.rng_replay = np.random.default_rng(seed_replay)

        if cfg.use_rgcn:
            self.encoder = enc.Encoder.create(rng_params)
            d_state = self.encoder.out_dim
            d_op = self.encoder.out_dim
        else:
            self.encoder = None
            d_state = STAT_DIM
            d_op = N_OPERATIONS
        self.agents = {
            ag.HEAD: ag.make_agent(ag.HEAD, 2 * d_state, 1, cfg.hidden_size, rng_params),
            ag.OPERATION: ag.make_agent(
                ag.OPERATION, 2 * d_state, N_OPERATIONS, cfg.hidden_size, rng_params
            ),
            ag.OPERAND: ag.make_agent(
                ag.OPERAND, 3 * d_state + d_op, 1, cfg.hidden_size, rng_params
            ),
        }
        self.global_step = 0
        self._explore_budget = cfg.episodes * cfg.steps_per_episode
        self.trained = False
        self._scores: dict = {}

    # -- public entry points -------------------------------------------------

    def train(self) -> RunReport:
        report = self._run(EXPLORE, self.cfg.episodes)
        self.trained = True
        return report

    def apply_policy(self) -> RunReport:
        if not self.trained:
            raise PipelineError(
                "no trained policy available: run train() or load a checkpoint"
            )
        if self.cfg.application_episodes == 0:
            raise PipelineError("application_episodes is 0 in this configuration")
        return self._run(APPLY, self.cfg.application_episodes)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> dict:
        """Every trained array, as a version 2 checkpoint object.

        agents holds each agent's prediction and target nets and encoder
        the encoder (None without the RGCN), each as a list in params order
        of one string per array: the base64 text of its little-endian
        float64 bytes, so loading restores every bit.
        """
        return {
            "version": 2,
            "use_rgcn": self.cfg.use_rgcn,
            "agents": {
                role: {
                    "prediction": _encode(a.prediction.params),
                    "target": _encode(a.target.params),
                }
                for role, a in self.agents.items()
            },
            "encoder": None if self.encoder is None else _encode(self.encoder.params),
        }

    def load_checkpoint(self, source) -> None:
        """Overwrite every trained array from a version 2 checkpoint.

        source is the object checkpoint() returns or the path of its JSON
        file. Any other version, a use_rgcn that is not a JSON boolean or
        does not match, a wrong number of arrays, text that is not base64,
        a wrong byte length or a value that is not finite raises
        PipelineError and changes no array.
        """
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    source = json.load(fh)
            except OSError as exc:
                raise PipelineError(f"cannot read checkpoint: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise PipelineError(f"malformed checkpoint JSON: {exc}") from exc
        if not isinstance(source, dict) or source.get("version") != 2:
            raise PipelineError("unsupported checkpoint format")
        mode = source.get("use_rgcn")
        if not isinstance(mode, bool):
            raise PipelineError(f"checkpoint use_rgcn must be true or false, got {mode!r}")
        if mode != self.cfg.use_rgcn:
            raise PipelineError("checkpoint encoder mode does not match use_rgcn")
        try:
            pairs = []
            for role, a in self.agents.items():
                for key in ("prediction", "target"):
                    pairs += _decode(getattr(a, key).params, source["agents"][role][key])
            if self.encoder is not None:
                pairs += _decode(self.encoder.params, source["encoder"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError(f"checkpoint does not fit this pipeline: {exc}") from exc
        for live, stored in pairs:
            live[...] = stored
        for a in self.agents.values():
            ag.forget_target_q(a)
        self.trained = True

    # -- internals ---------------------------------------------------------

    def _epsilon(self, phase: str) -> float:
        if phase == APPLY:
            return 0.0
        if self._explore_budget <= 1:
            return self.cfg.epsilon_start
        frac = min(self.global_step / (self._explore_budget - 1), 1.0)
        return self.cfg.epsilon_start + (self.cfg.epsilon_end - self.cfg.epsilon_start) * frac

    def _node_wise_episodes(self) -> int:
        return int(math.floor(self.cfg.episodes * self.cfg.node_wise_fraction))

    def _run(self, phase: str, episodes: int) -> RunReport:
        cfg = self.cfg
        timings = {k: 0.0 for k in _TIMING_KEYS}
        t_total = time.perf_counter()

        t0 = time.perf_counter()
        baseline = self._evaluate(self.train_data.matrix(), self.train_data)
        timings["reward_estimation"] += time.perf_counter() - t0

        best_score = baseline
        best_episode, best_step = -1, -1
        best_bytes = Roadmap.from_dataset(self.train_data, lineage="init").export_json()
        records: list[StepRecord] = []

        for e in range(episodes):
            roadmap = Roadmap.from_dataset(self.train_data, lineage=f"{phase}{e}")
            episode = _Episode(
                roadmap=roadmap,
                prev_score=baseline,
                episode_best=roadmap.take_snapshot(baseline),
                pending={},
            )
            for s in range(cfg.steps_per_episode):
                rec, improved = self._step(episode, e, s, phase, best_score, timings)
                if improved is not None:
                    best_score, best_bytes = improved
                    best_episode, best_step = e, s
                records.append(rec)
            for role, t in episode.pending.items():
                ag.push_transition(self.agents[role], t)

        t0 = time.perf_counter()
        test_baseline = self._evaluate(self.test_data.matrix(), self.test_data)
        test_matrix = Roadmap.import_json(best_bytes).materialize(self.test_data)
        test_score = self._evaluate(test_matrix, self.test_data)
        timings["reward_estimation"] += time.perf_counter() - t0

        timings["total"] = time.perf_counter() - t_total
        return RunReport(
            phase=phase,
            task=self.train_data.task,
            baseline_score=baseline,
            best_score=best_score,
            best_episode=best_episode,
            best_step=best_step,
            test_baseline=test_baseline,
            test_score=test_score,
            best_roadmap_json=best_bytes,
            records=records,
            timings=timings,
        )

    def _evaluate(self, matrix: np.ndarray, data: Dataset) -> float:
        """Score matrix against data's labels, once per distinct matrix.

        The split and the evaluation config are fixed for a Pipeline, so a
        score depends only on which split it is and on the matrix bits.
        """
        matrix = np.ascontiguousarray(matrix, dtype=float)
        key = (data is self.train_data, matrix.shape, hashlib.sha256(matrix).digest())
        score = self._scores.get(key)
        if score is None:
            score = evaluate(matrix, data.labels, data.task, self.cfg.eval)
            self._scores[key] = score
        return score

    def _pick_index(self, agent_role: str, inputs: list, epsilon: float) -> int:
        if self.cfg.random_policy:
            return int(self.rng_policy.integers(len(inputs)))
        with self._finite_q(agent_role):
            return ag.select_candidate(
                self.agents[agent_role], inputs, epsilon, self.rng_policy
            )

    def _pick_operation(self, state_input: np.ndarray, epsilon: float, ids) -> int:
        """The id of an operation among ids: every id, or the unary ids at
        epsilon 0 when a binary pick meets a single cluster."""
        if self.cfg.random_policy:
            return ids[int(self.rng_policy.integers(len(ids)))]
        with self._finite_q(ag.OPERATION):
            q = ag.operation_q_values(self.agents[ag.OPERATION], state_input)
            return ids[ag.epsilon_greedy(q[ids], epsilon, self.rng_policy)]

    @contextmanager
    def _finite_q(self, role: str):
        """Report a decision's refusal of a non-finite Q-value as _learn does."""
        try:
            yield
        except FloatingPointError as exc:
            raise self._diverged(f"the {role} agent's Q-values") from exc

    def _step(self, ep: _Episode, e: int, s: int, phase: str, best_score: float, timings):
        learning = phase == EXPLORE and not self.cfg.random_policy
        epsilon = self._epsilon(phase)
        # Diverged weights overflow here; _cluster and _learn refuse them.
        with np.errstate(over="ignore", invalid="ignore"):
            cl = _timed(timings, "clustering", self._cluster, ep.roadmap, s == 0)
            dec = _timed(timings, "decision", self._decide, ep, cl, epsilon)
        grown = _timed(timings, "roadmap_update", self._grow, ep, cl, dec)
        scored = _timed(timings, "reward_estimation", self._score, ep, dec, grown, best_score)
        losses = _timed(timings, "learning", self._learn, ep, cl, dec, scored, learning)
        prune_kind = _timed(timings, "pruning", self._prune, ep, e, phase)
        rew = scored.reward
        rec = StepRecord(
            episode=e,
            step=s,
            phase=phase,
            epsilon=epsilon,
            clusters=len(cl.groups),
            head_cluster=dec.head_idx,
            operation=dec.op.name,
            operand_cluster=dec.operand_idx,
            fallback=dec.fallback,
            **asdict(grown),
            score=scored.score,
            best_score=max(best_score, scored.score),
            reward_performance=rew.performance,
            reward_complexity=rew.complexity,
            reward_total=rew.total,
            shares=dict(rew.shares),
            losses=losses,
            prune=prune_kind,
            alive_after=ep.roadmap.alive_count,
        )
        return rec, scored.improved

    def _cluster(self, roadmap: Roadmap, first_step: bool) -> _Clusters:
        """One snapshot and one encoder pass; the agents see the same h.

        An episode's first step clusters on the squashed column statistics,
        every later step on the embeddings h.
        """
        alive_ids = roadmap.alive_ids()
        graph = enc.snapshot_from_roadmap(roadmap)
        h = graph.stats
        if self.cfg.use_rgcn:
            h, _ = enc.rgcn_forward([graph], self.encoder)
            # Clustering squares h, so its squares must be finite too.
            self._refuse_non_finite("the node embeddings", [(h * h).sum()])
        groups = cluster_nodes(
            graph.adjacency,
            graph.stats if first_step else h,
            alive_ids,
            use_structure=self.cfg.use_structure,
            use_similarity=self.cfg.use_similarity,
        )
        pos = {nid: k for k, nid in enumerate(alive_ids)}
        return _Clusters(
            graph=graph,
            h=h,
            groups=groups,
            group_pos=[tuple(pos[i] for i in g) for g in groups],
            all_pos=tuple(range(len(alive_ids))),
        )

    def _decide(self, ep: _Episode, cl: _Clusters, epsilon: float) -> _Decision:
        reps = [enc.cluster_rep(cl.h, g) for g in cl.group_pos]
        g_rep = enc.cluster_rep(cl.h, cl.all_pos)
        head_inputs = [np.concatenate([r, g_rep]) for r in reps]
        self._complete_pending(ep, ag.HEAD, head_inputs)
        head_idx = self._pick_index(ag.HEAD, head_inputs, epsilon)
        head_input = head_inputs[head_idx]
        self._complete_pending(ep, ag.OPERATION, [head_input])
        op = OPERATIONS[self._pick_operation(head_input, epsilon, _ALL_IDS)]
        if op.arity == 1:
            return _Decision(head_idx, head_input, op)
        if len(cl.groups) < 2:
            fallback = OPERATIONS[self._pick_operation(head_input, 0.0, _UNARY_IDS)]
            return _Decision(head_idx, head_input, fallback, fallback=True)
        o_rep = enc.op_rep(self.encoder, op.id)
        tail_indices = [j for j in range(len(cl.groups)) if j != head_idx]
        operand_inputs = [
            np.concatenate([reps[head_idx], g_rep, reps[j], o_rep]) for j in tail_indices
        ]
        self._complete_pending(ep, ag.OPERAND, operand_inputs)
        choice = self._pick_index(ag.OPERAND, operand_inputs, epsilon)
        return _Decision(
            head_idx,
            head_input,
            op,
            operand_idx=tail_indices[choice],
            operand_input=operand_inputs[choice],
        )

    def _grow(self, ep: _Episode, cl: _Clusters, dec: _Decision) -> _Growth:
        """Group-wise crossing of the chosen clusters, capped at candidate_cap.
        A known signature keeps its column, so only new ones are computed."""
        op = dec.op
        heads = cl.groups[dec.head_idx]
        if op.arity == 1:
            pairs = [(nid,) for nid in heads]
        else:
            tails = cl.groups[dec.operand_idx]
            pairs = [(h_id, t_id) for h_id in heads for t_id in tails]
        nodes = ep.roadmap.nodes
        out = _Growth(attempts=len(pairs))
        for parents in pairs:
            if out.created + out.revived >= self.cfg.candidate_cap:
                break
            vals = None
            if ep.roadmap.find(op, parents) is None:
                cols = [nodes[p].values for p in parents]
                vals = apply_unary(op, *cols) if op.arity == 1 else apply_binary(op, *cols)
                if vals is None:
                    out.rejected += 1
                    continue
            res = ep.roadmap.add_node(op, parents, vals)
            if res.created:
                out.created += 1
            elif res.revived:
                out.revived += 1
            else:
                out.duplicates += 1
        out.alive = ep.roadmap.alive_count
        return out

    def _score(self, ep: _Episode, dec: _Decision, grown: _Growth, best_score: float):
        cfg = self.cfg
        roadmap = ep.roadmap
        if grown.created + grown.revived > 0:
            matrix = np.column_stack([n.values for n in roadmap.alive_nodes()])
            score = self._evaluate(matrix, self.train_data)
        else:
            score = ep.prev_score
        reward = step_reward(
            ep.prev_score,
            score,
            roadmap,
            dec.acting,
            w_performance=cfg.w_performance,
            w_complexity=cfg.w_complexity,
        )
        improved = (score, roadmap.export_json()) if score > best_score else None
        if score > ep.episode_best.score:
            ep.episode_best = roadmap.take_snapshot(score)
        ep.prev_score = score
        return _Scored(score, reward, improved)

    def _learn(self, ep: _Episode, cl: _Clusters, dec: _Decision, scored: _Scored, learning):
        """Park this step's transitions until the next step completes them, then
        take one SGD step per acting agent; returns the losses by role."""
        losses: dict = {role: None for role in dec.acting}
        if not learning:
            return losses
        cfg = self.cfg
        head_groups = (cl.group_pos[dec.head_idx], cl.all_pos)
        chosen = {
            ag.HEAD: (dec.head_input, 0, head_groups, None),
            ag.OPERATION: (dec.head_input, dec.op.id, head_groups, None),
        }
        if dec.operand_idx is not None:
            operand_groups = head_groups + (cl.group_pos[dec.operand_idx],)
            chosen[ag.OPERAND] = (dec.operand_input, 0, operand_groups, dec.op.id)
        for role, (state_input, action, groups, op_id) in chosen.items():
            ctx = (cl.graph, enc.StateSpec(groups, op_id)) if cfg.use_rgcn else None
            share = scored.reward.shares[role]
            ep.pending[role] = ag.Transition(state_input, action, share, [], ctx)
        with np.errstate(over="ignore", invalid="ignore"):
            for role in dec.acting:
                agent = self.agents[role]
                losses[role] = ag.train_step(
                    agent,
                    self.rng_replay,
                    gamma=cfg.gamma,
                    lr=cfg.learning_rate,
                    batch_size=cfg.batch_size,
                    encoder=self.encoder,
                )
                if losses[role] is not None:
                    trained = [losses[role], *agent.prediction.params]
                    self._refuse_non_finite(f"the {role} agent's loss and weights", trained)
            if self.encoder is not None:
                self._refuse_non_finite("the encoder weights", self.encoder.params)
        self.global_step += 1
        if self.global_step % cfg.target_sync_every == 0:
            for a in self.agents.values():
                ag.sync_target(a)
        return losses

    def _prune(self, ep: _Episode, e: int, phase: str) -> str:
        """Keep the roadmap inside budget: node-wise MI pruning in the early
        explore episodes, backtracking to the episode's best snapshot after."""
        roadmap = ep.roadmap
        budget = self.cfg.node_budget_factor * roadmap.root_count
        if roadmap.alive_count <= budget:
            return "none"
        if phase == EXPLORE and e < self._node_wise_episodes():
            data = self.train_data
            roadmap.prune_node_wise(data.labels, data.task, budget)
            return "node_wise"
        roadmap.restore(ep.episode_best)
        return "backtrack"

    def _refuse_non_finite(self, what: str, values: list) -> None:
        if not all(np.isfinite(v).all() for v in values):
            raise self._diverged(what)

    def _diverged(self, what: str) -> PipelineError:
        return PipelineError(
            f"training diverged: {what} are not all finite; "
            f"try a learning_rate below {self.cfg.learning_rate}"
        )

    def _complete_pending(self, ep: _Episode, role: str, next_candidates: list) -> None:
        """Push the role's parked transition, if any, with its next candidates."""
        t = ep.pending.pop(role, None)
        if t is not None:
            t = replace(t, next_candidates=list(next_candidates))
            ag.push_transition(self.agents[role], t)


def _encode(params: list) -> list:
    return [base64.b64encode(p.astype("<f8").tobytes()).decode("ascii") for p in params]


def _decode(params: list, stored) -> list:
    """(live, stored) array pairs; ValueError or TypeError when stored does
    not hold one finite float64 array of the right size per live array."""
    if not isinstance(stored, list):
        raise TypeError("an array list is not a JSON list")
    pairs = []
    for live, text in zip(params, stored, strict=True):
        raw = base64.b64decode(text, validate=True)
        if len(raw) != 8 * live.size:
            raise ValueError(f"an array of {live.size} floats has {len(raw)} bytes")
        arr = np.frombuffer(raw, dtype="<f8").reshape(live.shape)
        if not np.isfinite(arr).all():
            raise ValueError("an array holds a non-finite value")
        pairs.append((live, arr))
    return pairs


def record_to_json(rec: StepRecord) -> str:
    return json.dumps(asdict(rec), sort_keys=True)
