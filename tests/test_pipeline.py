"""End-to-end search driver: configuration, determinism, budgets, replay."""

import base64
import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tcto.encoder
import tcto.pipeline
from helpers import alive_edge_matrix
from tcto.agents import BUFFER_CAPACITY, HEAD, OPERAND, OPERATION
from tcto.encoder import squash_stats
from tcto.evaluator import _MODELS, EvalConfig, evaluate
from tcto.opset import OP_BY_NAME, OPERATIONS, UNARY_OPERATIONS
from tcto.pipeline import (
    APPLY,
    ConfigError,
    Pipeline,
    PipelineError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    record_to_json,
)
from tcto.roadmap import Roadmap
from tcto.tabular import DataError, Dataset

FAST_EVAL = EvalConfig(folds=2, trees=2, max_depth=3)


def _product_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, size=n)
    x1 = rng.uniform(-2.0, 2.0, size=n)
    x2 = rng.normal(size=n)
    y = x0 * x1 + 0.05 * rng.normal(size=n)
    return Dataset(
        column_names=("a", "b", "c"),
        columns=(x0, x1, x2),
        labels=y,
        task="regression",
    )


def _tiny_cfg(**overrides):
    base = dict(
        episodes=2,
        steps_per_episode=5,
        application_episodes=1,
        seed=1,
        hidden_size=8,
        batch_size=4,
        candidate_cap=8,
        eval=FAST_EVAL,
    )
    base.update(overrides)
    return RunConfig(**base)


# -- configuration ---------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"episodes": 3, "warp_speed": 9})


def test_config_rejects_non_mappings():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


def test_config_routes_evaluator_keys():
    cfg = config_from_dict({"folds": 3, "trees": 5, "eval_seed": 9, "episodes": 4})
    assert cfg.eval.folds == 3
    assert cfg.eval.trees == 5
    assert cfg.eval.seed == 9
    assert cfg.episodes == 4
    assert cfg.seed == 0


def test_config_dict_roundtrip():
    cfg = RunConfig(episodes=7, gamma=0.5, eval=EvalConfig(folds=3, seed=2))
    d = config_to_dict(cfg)
    assert d["episodes"] == 7
    assert d["eval_seed"] == 2
    assert "eval" not in d
    assert config_from_dict(d) == cfg

    full = config_to_dict(config_from_dict({}))
    assert full == config_to_dict(RunConfig())


def test_config_surfaces_bad_values_as_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"episodes": -1})
    with pytest.raises(ConfigError, match="'episodes' must be an int"):
        config_from_dict({"episodes": "many"})
    with pytest.raises(ConfigError, match="'use_rgcn' must be a bool"):
        config_from_dict({"use_rgcn": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"folds": 1})


def test_readme_configuration_table_matches_the_program():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    keys = [key for cell, _ in rows for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(config_to_dict(RunConfig()))
    (model_row,) = [meaning for cell, meaning in rows if "`model`" in cell]
    assert re.findall(r'`"([^"`]+)"`', model_row) == list(_MODELS)


@pytest.mark.parametrize(
    "kw",
    [
        {"episodes": -1},
        {"steps_per_episode": 0},
        {"application_episodes": -1},
        {"test_fraction": 0.0},
        {"test_fraction": 1.0},
        {"node_budget_factor": 0},
        {"node_wise_fraction": 1.5},
        {"candidate_cap": 0},
        {"epsilon_start": 0.1, "epsilon_end": 0.2},
        {"gamma": 1.0},
        {"learning_rate": 0.0},
        {"hidden_size": 0},
        {"batch_size": 0},
        {"target_sync_every": 0},
    ],
)
def test_run_config_bounds(kw):
    with pytest.raises(ConfigError):
        RunConfig(**kw)


FLOAT_KEYS = [k for k, v in config_to_dict(RunConfig()).items() if isinstance(v, float)]


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        pytest.param(10**400, id="1e400"),
        pytest.param(-(10**400), id="-1e400"),
    ],
)
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_float_value_is_refused_by_its_key(key, value):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be finite"):
        config_from_dict({key: value})


def test_a_batch_larger_than_the_replay_buffer_is_refused():
    assert RunConfig(batch_size=BUFFER_CAPACITY).batch_size == BUFFER_CAPACITY
    with pytest.raises(ConfigError, match=f"batch_size must be <= {BUFFER_CAPACITY}"):
        RunConfig(batch_size=BUFFER_CAPACITY + 1)
    with pytest.raises(ConfigError, match="replay buffer"):
        config_from_dict({"batch_size": 17})


def test_zero_episodes_is_a_valid_baseline_only_config():
    assert RunConfig(episodes=0).episodes == 0


# -- determinism -------------------------------------------------------------------


def test_two_identical_pipelines_log_identical_steps():
    data = _product_dataset()
    cfg = _tiny_cfg()
    a = Pipeline(data, cfg).train()
    b = Pipeline(data, cfg).train()
    assert [record_to_json(r) for r in a.records] == [record_to_json(r) for r in b.records]
    assert a.best_score == b.best_score
    assert a.best_roadmap_json == b.best_roadmap_json
    assert (a.best_episode, a.best_step) == (b.best_episode, b.best_step)


def test_step_records_serialize_with_sorted_keys_and_no_timings():
    data = _product_dataset()
    report = Pipeline(data, _tiny_cfg(episodes=1, steps_per_episode=2)).train()
    rec = json.loads(record_to_json(report.records[0]))
    assert list(rec) == sorted(rec)
    assert "total" not in rec and "clustering" not in rec
    assert set(report.timings) == {
        "clustering",
        "decision",
        "roadmap_update",
        "reward_estimation",
        "learning",
        "pruning",
        "total",
    }


# -- the search itself ----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    data = _product_dataset()
    pipe = Pipeline(data, _tiny_cfg(episodes=3, steps_per_episode=6))
    report = pipe.train()
    return data, pipe, report


def test_training_improves_on_the_baseline_here(trained):
    _, _, report = trained
    assert report.best_episode >= 0
    assert report.best_score > report.baseline_score


def test_best_roadmap_bytes_replay_to_the_best_score(trained):
    _, pipe, report = trained
    roadmap = Roadmap.import_json(report.best_roadmap_json)
    matrix = roadmap.materialize(pipe.train_data)
    replayed = evaluate(
        matrix, pipe.train_data.labels, pipe.train_data.task, pipe.cfg.eval
    )
    assert replayed == report.best_score


def test_prune_fires_exactly_when_the_budget_is_exceeded(trained):
    _, pipe, report = trained
    budget = pipe.cfg.node_budget_factor * len(pipe.train_data.column_names)
    cut = pipe._node_wise_episodes()
    for rec in report.records:
        assert (rec.prune != "none") == (rec.alive > budget)
        if rec.prune == "none":
            assert rec.alive_after == rec.alive
        if rec.prune == "node_wise":
            assert rec.episode < cut
            assert rec.alive_after <= budget + len(pipe.train_data.column_names)
        if rec.prune == "backtrack":
            assert rec.episode >= cut


def test_epsilon_decays_linearly_over_the_explore_budget(trained):
    _, pipe, report = trained
    cfg = pipe.cfg
    first, last = report.records[0], report.records[-1]
    assert first.epsilon == cfg.epsilon_start
    assert last.epsilon == pytest.approx(cfg.epsilon_end, abs=1e-12)
    budget = cfg.episodes * cfg.steps_per_episode
    for k, rec in enumerate(report.records):
        frac = min(k / (budget - 1), 1.0)
        want = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac
        assert rec.epsilon == pytest.approx(want, abs=1e-12)


def test_rewards_and_shares_are_consistent_in_every_record(trained):
    _, pipe, report = trained
    for rec in report.records:
        want_total = (
            pipe.cfg.w_performance * rec.reward_performance
            + pipe.cfg.w_complexity * rec.reward_complexity
        )
        assert rec.reward_total == pytest.approx(want_total, abs=1e-12)
        assert sum(rec.shares.values()) == rec.reward_total
        if rec.operand_cluster is None:
            assert set(rec.shares) == {HEAD, OPERATION}
        else:
            assert set(rec.shares) == {HEAD, OPERATION, OPERAND}


def test_losses_eventually_flow_for_the_always_acting_agents(trained):
    _, _, report = trained
    head_losses = [r.losses[HEAD] for r in report.records if r.losses[HEAD] is not None]
    assert head_losses
    assert all(isinstance(x, float) for x in head_losses)


def test_apply_phase_is_greedy_and_does_not_learn(trained):
    _, pipe, _ = trained
    report = pipe.apply_policy()
    assert report.phase == APPLY
    assert len(report.records) == pipe.cfg.application_episodes * pipe.cfg.steps_per_episode
    for rec in report.records:
        assert rec.epsilon == 0.0
        assert all(v is None for v in rec.losses.values())


def test_scores_track_the_evaluator_when_nothing_changed(trained):
    _, _, report = trained
    for prev, rec in zip(report.records, report.records[1:]):
        if rec.episode == prev.episode and rec.created + rec.revived == 0:
            assert rec.score == prev.score or rec.prune != "none"


# -- edge modes -----------------------------------------------------------------------


def test_zero_episode_training_reports_the_baseline_only():
    data = _product_dataset(seed=3)
    report = Pipeline(data, _tiny_cfg(episodes=0)).train()
    assert report.records == []
    assert report.best_episode == -1 and report.best_step == -1
    assert report.best_score == report.baseline_score
    imported = Roadmap.import_json(report.best_roadmap_json)
    assert imported.alive_count == imported.root_count


def test_apply_requires_a_trained_policy():
    data = _product_dataset(seed=4)
    pipe = Pipeline(data, _tiny_cfg())
    with pytest.raises(PipelineError):
        pipe.apply_policy()


def test_apply_requires_a_nonzero_episode_allowance():
    data = _product_dataset(seed=5)
    pipe = Pipeline(data, _tiny_cfg(episodes=1, steps_per_episode=2, application_episodes=0))
    pipe.train()
    with pytest.raises(PipelineError):
        pipe.apply_policy()


def test_random_policy_runs_without_training_the_agents():
    data = _product_dataset(seed=6)
    pipe = Pipeline(data, _tiny_cfg(random_policy=True, episodes=1, steps_per_episode=4))
    report = pipe.train()
    assert len(report.records) == 4
    for rec in report.records:
        assert all(v is None for v in rec.losses.values())
    assert all(len(a.buffer) == 0 for a in pipe.agents.values())


def test_stat_only_mode_runs_without_an_encoder():
    data = _product_dataset(seed=7)
    cfg = _tiny_cfg(use_rgcn=False, episodes=1, steps_per_episode=4)
    pipe = Pipeline(data, cfg)
    assert pipe.encoder is None
    report = pipe.train()
    assert len(report.records) == 4
    again = Pipeline(data, cfg).train()
    assert [record_to_json(r) for r in report.records] == [
        record_to_json(r) for r in again.records
    ]


@pytest.mark.parametrize("use_rgcn", [True, False])
def test_transitions_carry_a_state_ctx_exactly_when_an_encoder_trains(use_rgcn):
    cfg = _tiny_cfg(use_rgcn=use_rgcn, episodes=1, steps_per_episode=8)
    pipe = Pipeline(_product_dataset(seed=13), cfg)
    report = pipe.train()
    assert (pipe.encoder is not None) == use_rgcn
    assert any(rec.losses.get(HEAD) is not None for rec in report.records)
    transitions = [t for a in pipe.agents.values() for t in a.buffer]
    assert all((t.state_ctx is not None) == use_rgcn for t in transitions)


def test_ablation_flags_reach_the_clustering(trained):
    data = _product_dataset(seed=8)
    cfg = _tiny_cfg(use_structure=False, use_similarity=False, episodes=1, steps_per_episode=3)
    report = Pipeline(data, cfg).train()
    assert len(report.records) == 3


def test_each_step_runs_one_encoder_pass_and_clusters_on_it(monkeypatch):
    forwards, clustered, edges, adjacencies = [], [], [], []
    real_snapshot = tcto.encoder.snapshot_from_roadmap
    real_forward = tcto.encoder.rgcn_forward
    real_cluster = tcto.pipeline.cluster_nodes

    def capturing_snapshot(roadmap):
        edges.append(alive_edge_matrix(roadmap))
        return real_snapshot(roadmap)

    def counting_forward(graph, params):
        h, cache = real_forward(graph, params)
        forwards.append(h.copy())
        return h, cache

    def capturing_cluster(adjacency, embeddings, node_ids, **kw):
        adjacencies.append(np.array(adjacency, dtype=float))
        clustered.append(np.array(embeddings, dtype=float))
        return real_cluster(adjacency, embeddings, node_ids, **kw)

    monkeypatch.setattr(tcto.encoder, "snapshot_from_roadmap", capturing_snapshot)
    monkeypatch.setattr(tcto.encoder, "rgcn_forward", counting_forward)
    monkeypatch.setattr(tcto.pipeline, "cluster_nodes", capturing_cluster)
    data = _product_dataset(seed=14)
    # A random policy never calls train_step, so every forward is the step's own.
    pipe = Pipeline(data, _tiny_cfg(random_policy=True, use_rgcn=True, episodes=2))
    report = pipe.train()
    assert len(forwards) == len(clustered) == len(report.records) == 10
    roots = Roadmap.from_dataset(pipe.train_data, lineage="t").alive_nodes()
    first = squash_stats(np.stack([n.stats for n in roots]))
    for rec, h, emb in zip(report.records, forwards, clustered):
        assert np.array_equal(emb, first if rec.step == 0 else h)
    assert len(edges) == len(adjacencies) == 10
    assert any(a.any() for a in adjacencies)
    for want, got in zip(edges, adjacencies):
        assert np.array_equal(got, want)


def test_roadmap_columns_replay_bit_for_bit_after_every_step(monkeypatch):
    checked = []
    real_prune = Pipeline._prune

    def checking_prune(self, ep, e, phase):
        kind = real_prune(self, ep, e, phase)
        stored = np.column_stack([n.values for n in ep.roadmap.alive_nodes()])
        replayed = ep.roadmap.materialize(self.train_data)
        assert stored.tobytes() == replayed.tobytes()
        checked.append(kind)
        return kind

    monkeypatch.setattr(Pipeline, "_prune", checking_prune)
    cfg = _tiny_cfg(
        episodes=4, steps_per_episode=8, node_budget_factor=2, node_wise_fraction=0.5
    )
    pipe = Pipeline(_product_dataset(seed=0), cfg)
    records = pipe.train().records + pipe.apply_policy().records
    assert len(checked) == len(records)
    assert {"none", "node_wise", "backtrack"} <= set(checked)
    assert sum(r.revived for r in records) > 0


def test_only_new_signatures_compute_a_column(monkeypatch):
    calls = []
    for name in ("apply_unary", "apply_binary"):
        real = getattr(tcto.pipeline, name)

        def counting(*args, _real=real):
            calls.append(args[0])
            return _real(*args)

        monkeypatch.setattr(tcto.pipeline, name, counting)
    cfg = _tiny_cfg(
        episodes=4, steps_per_episode=8, node_budget_factor=2, node_wise_fraction=0.5
    )
    pipe = Pipeline(_product_dataset(seed=0), cfg)
    records = pipe.train().records + pipe.apply_policy().records
    assert sum(r.revived for r in records) > 0
    assert sum(r.duplicates for r in records) > 0
    assert len(calls) == sum(r.created + r.rejected for r in records)


# -- score memo ------------------------------------------------------------------------


def _count_evaluate_calls(monkeypatch):
    calls = []
    real = tcto.pipeline.evaluate

    def counting(X, y, task, cfg):
        calls.append(X.shape)
        return real(X, y, task, cfg)

    monkeypatch.setattr(tcto.pipeline, "evaluate", counting)
    return calls


def test_a_repeated_greedy_episode_scores_nothing_again(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    data = _product_dataset(seed=15)
    per_apply = []
    for episodes in (1, 2):
        pipe = Pipeline(data, _tiny_cfg(application_episodes=episodes))
        pipe.train()
        before = len(calls)
        report = pipe.apply_policy()
        per_apply.append(len(calls) - before)
    second = [r for r in report.records if r.episode == 1]
    assert sum(r.created + r.revived for r in second) > 0
    assert per_apply[0] == per_apply[1]


def test_memoised_scores_equal_direct_evaluation(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    served = []
    real = Pipeline._evaluate

    def recording(self, matrix, data):
        score = real(self, matrix, data)
        served.append((np.array(matrix), data, score))
        return score

    monkeypatch.setattr(Pipeline, "_evaluate", recording)
    pipe = Pipeline(_product_dataset(seed=16), _tiny_cfg(application_episodes=2))
    pipe.train()
    pipe.apply_policy()
    assert len(calls) < len(served)
    for matrix, data, score in served:
        assert score == evaluate(matrix, data.labels, data.task, FAST_EVAL)


def test_train_and_test_scores_of_one_matrix_are_kept_apart(monkeypatch):
    calls = _count_evaluate_calls(monkeypatch)
    with pytest.warns(UserWarning, match="stratification group"):
        pipe = Pipeline(_product_dataset(n=40), _tiny_cfg(test_fraction=0.5))
    train, test = pipe.train_data, pipe.test_data
    assert train.n_rows == test.n_rows
    matrix = np.random.default_rng(0).normal(size=(train.n_rows, 2))
    for data in (train, test, train, test):
        assert pipe._evaluate(matrix, data) == evaluate(
            matrix, data.labels, data.task, FAST_EVAL
        )
    assert len(calls) == 2
    assert evaluate(matrix, train.labels, "regression", FAST_EVAL) != evaluate(
        matrix, test.labels, "regression", FAST_EVAL
    )


def test_split_partitions_the_dataset():
    data = _product_dataset(seed=9)
    pipe = Pipeline(data, _tiny_cfg())
    assert pipe.train_data.n_rows + pipe.test_data.n_rows == data.n_rows
    assert pipe.train_data.column_names == data.column_names


# -- checkpoints -------------------------------------------------------------------------


def test_checkpoint_roundtrip_reproduces_the_application_run(tmp_path):
    data = _product_dataset(seed=10)
    cfg = _tiny_cfg(episodes=1, steps_per_episode=4)
    first = Pipeline(data, cfg)
    first.train()
    want = first.apply_policy()

    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(first.checkpoint()))
    second = Pipeline(data, cfg)
    second.load_checkpoint(str(path))
    got = second.apply_policy()
    assert [record_to_json(r) for r in got.records] == [
        record_to_json(r) for r in want.records
    ]
    assert got.best_roadmap_json == want.best_roadmap_json


def _trained_pipe(use_rgcn=True):
    pipe = Pipeline(_product_dataset(seed=12), _tiny_cfg(use_rgcn=use_rgcn, episodes=1))
    pipe.train()
    return pipe


def _live_arrays(pipe):
    nets = [net for a in pipe.agents.values() for net in (a.prediction, a.target)]
    arrays = [p for net in nets for p in net.params]
    return arrays + ([] if pipe.encoder is None else pipe.encoder.params)


def _b64(arr):
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _unb64(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


@pytest.mark.parametrize("use_rgcn", [True, False])
def test_checkpoint_restores_every_array_bit_for_bit(tmp_path, use_rgcn):
    first = _trained_pipe(use_rgcn)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(first.checkpoint()))
    second = Pipeline(first.dataset, first.cfg)
    fresh = [p.copy() for p in _live_arrays(second)]
    want = _live_arrays(first)
    assert any(not np.array_equal(f, w) for f, w in zip(fresh, want))

    second.load_checkpoint(path)
    got = _live_arrays(second)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_checkpoint_mode_mismatch_is_rejected():
    data = _product_dataset(seed=12)
    cfg = _tiny_cfg(episodes=1, steps_per_episode=2)
    trained_pipe = Pipeline(data, cfg)
    trained_pipe.train()
    cp = trained_pipe.checkpoint()

    other = Pipeline(data, _tiny_cfg(use_rgcn=False, episodes=1, steps_per_episode=2))
    with pytest.raises(PipelineError):
        other.load_checkpoint(cp)

    bad = dict(cp)
    bad["version"] = 1
    with pytest.raises(PipelineError):
        Pipeline(data, cfg).load_checkpoint(bad)

    # Only a JSON true or false names the encoder mode, for either pipeline.
    no_mode = {k: v for k, v in cp.items() if k != "use_rgcn"}
    for target in (Pipeline(data, cfg), other):
        for bad_mode in ("true", "false", 1, 0, "yes", [1], None):
            with pytest.raises(PipelineError):
                target.load_checkpoint(dict(cp, use_rgcn=bad_mode))
        with pytest.raises(PipelineError):
            target.load_checkpoint(no_mode)

    per_layer = trained_pipe.encoder.n_relations + 1
    one_layer = copy.deepcopy(cp)
    del one_layer["encoder"][per_layer:]
    three_relations = copy.deepcopy(cp)
    del three_relations["encoder"][3:]
    for truncated in (one_layer, three_relations):
        with pytest.raises(PipelineError):
            Pipeline(data, cfg).load_checkpoint(truncated)


def _v1_layout(pipe):
    def net(n):
        return {
            "weights": [w.tolist() for w in n.weights],
            "biases": [b.tolist() for b in n.biases],
        }

    encoder = pipe.encoder
    return {
        "version": 1,
        "use_rgcn": True,
        "agents": {
            role: {"prediction": net(a.prediction), "target": net(a.target)}
            for role, a in pipe.agents.items()
        },
        "encoder": {
            "n_relations": encoder.n_relations,
            "layers": [[w.tolist() for w in layer] for layer in encoder.layers],
            "op_table": encoder.op_table.tolist(),
        },
    }


@pytest.fixture(scope="module")
def checkpointed():
    pipe = _trained_pipe()
    return pipe, pipe.checkpoint()


def test_checkpoints_of_other_versions_are_unsupported(checkpointed):
    pipe, cp = checkpointed
    target = Pipeline(pipe.dataset, pipe.cfg)
    for other in (_v1_layout(pipe), dict(cp, version=3)):
        with pytest.raises(PipelineError, match="unsupported checkpoint format"):
            target.load_checkpoint(other)
    with pytest.raises(PipelineError):
        target.load_checkpoint(dict(_v1_layout(pipe), version=2))
    assert not target.trained


def _corrupt(arrays: list, kind: str) -> None:
    if kind == "array_missing":
        arrays.pop()
    elif kind == "array_extra":
        arrays.append(arrays[-1])
    elif kind == "not_base64":
        arrays[0] = "not base64!"
    elif kind == "wrong_byte_length":
        arrays[0] = _b64(_unb64(arrays[0])[:-1])
    elif kind == "floats_not_text":
        arrays[0] = _unb64(arrays[0]).tolist()
    else:
        values = _unb64(arrays[0])
        values[len(values) // 2] = float(kind)
        arrays[0] = _b64(values)


@pytest.mark.parametrize("part", ["agent", "encoder"])
@pytest.mark.parametrize(
    "kind",
    [
        "array_missing",
        "array_extra",
        "not_base64",
        "wrong_byte_length",
        "floats_not_text",
        "nan",
        "-inf",
    ],
)
def test_a_corrupt_checkpoint_is_rejected_and_changes_no_array(checkpointed, part, kind):
    pipe, cp = checkpointed
    bad = copy.deepcopy(cp)
    _corrupt(bad["encoder"] if part == "encoder" else bad["agents"][OPERAND]["target"], kind)
    target = Pipeline(pipe.dataset, pipe.cfg)
    before = [p.copy() for p in _live_arrays(target)]
    with pytest.raises(PipelineError, match="does not fit"):
        target.load_checkpoint(bad)
    assert not target.trained
    for was, now in zip(before, _live_arrays(target), strict=True):
        assert was.tobytes() == now.tobytes()


@pytest.mark.parametrize("phase", ["explore", "apply"])
def test_decisions_refuse_non_finite_q_values(phase):
    """Finite weights scaled by 1e200 load, and their Q-values overflow."""
    cfg = _tiny_cfg(use_rgcn=False)
    source = Pipeline(_product_dataset(), cfg)
    for a in source.agents.values():
        for w in a.prediction.params + a.target.params:
            w *= 1e200
    target = Pipeline(source.dataset, cfg)
    target.load_checkpoint(source.checkpoint())
    run = target.train if phase == "explore" else target.apply_policy
    with pytest.raises(
        PipelineError,
        match=r"the head agent's Q-values are not all finite; try a learning_rate below 0\.01",
    ):
        run()


# -- whole-pipeline properties ------------------------------------------------------


@st.composite
def _awkward_runs(draw):
    """A 5-12 row dataset with 1-3 features, some constant, duplicate or
    scaled by 1e300, and a config for either model. Both splits need 4 rows
    for 2-fold CV, so only the larger ones train."""
    n = draw(st.integers(5, 12))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cols = [rng.normal(size=n) for _ in range(p)]
    shape = draw(st.sampled_from(["plain", "constant", "duplicate"]))
    if shape == "constant":
        cols[0] = np.full(n, 3.0)
    elif shape == "duplicate":
        cols[-1] = cols[0].copy()
    scale = draw(st.sampled_from([1.0, 1e300]))
    if draw(st.booleans()):
        task, labels = "regression", rng.normal(size=n) * scale
    else:
        # the minority class has only one or two rows
        task, labels = "classification", np.zeros(n)
        labels[: draw(st.integers(1, 2))] = 1.0
        labels = rng.permutation(labels)
    d = Dataset(tuple(f"f{i}" for i in range(p)), tuple(c * scale for c in cols), labels, task)
    model = draw(st.sampled_from(sorted(_MODELS)))
    cfg = _tiny_cfg(
        test_fraction=draw(st.sampled_from([0.2, 0.5])),
        eval=EvalConfig(folds=2, trees=2, max_depth=3, model=model),
    )
    return d, cfg


@given(_awkward_runs())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.filterwarnings("ignore:stratification group")
def test_awkward_data_trains_and_applies_or_is_refused(run):
    d, cfg = run
    try:
        pipe = Pipeline(d, cfg)
        reports = [pipe.train(), pipe.apply_policy()]
    except (DataError, PipelineError):
        return
    for report in reports:
        assert np.isfinite([report.best_score, report.test_score]).all()


# -- unary fallback ----------------------------------------------------------------


def _one_column_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-3.0, 3.0, size=n)
    y = np.sin(x0) + 0.05 * rng.normal(size=n)
    return Dataset(column_names=("a",), columns=(x0,), labels=y, task="regression")


@pytest.mark.parametrize("use_rgcn", [True, False])
@pytest.mark.parametrize("random_policy", [False, True])
def test_a_binary_pick_on_one_cluster_falls_back_to_a_unary_one(
    monkeypatch, use_rgcn, random_policy
):
    """Only one column gives a single cluster, so only it reaches the fallback.
    Its pick draws integers(13) under the random policy and nothing under
    the learned one."""
    unary_ids = [op.id for op in UNARY_OPERATIONS]
    picks = []
    real_pick = Pipeline._pick_operation

    def recording_pick(self, state_input, epsilon, ids):
        before = copy.deepcopy(self.rng_policy.bit_generator.state)
        chosen = real_pick(self, state_input, epsilon, ids)
        if list(ids) == unary_ids:
            picks.append((epsilon, before, self.rng_policy.bit_generator.state, chosen))
        return chosen

    monkeypatch.setattr(Pipeline, "_pick_operation", recording_pick)
    cfg = _tiny_cfg(use_rgcn=use_rgcn, random_policy=random_policy, episodes=4)
    pipe = Pipeline(_one_column_dataset(), cfg)
    records = pipe.train().records + pipe.apply_policy().records
    fallbacks = [rec for rec in records if rec.fallback]
    assert fallbacks and len(fallbacks) == len(picks)
    assert all(OP_BY_NAME[rec.operation].arity == 1 for rec in fallbacks)
    for (epsilon, before, after, chosen), rec in zip(picks, fallbacks):
        assert epsilon == 0.0 and rec.operation == OPERATIONS[chosen].name
        if random_policy:
            replay = np.random.default_rng()
            replay.bit_generator.state = before
            assert unary_ids[int(replay.integers(len(unary_ids)))] == chosen
            assert replay.bit_generator.state == after
        else:
            assert after == before


def test_each_parked_transition_re_encodes_to_the_state_its_agent_acted_on(monkeypatch):
    """With an encoder, state_forward of a parked transition's state_ctx, at
    the weights of the step that parked it, gives back its state_input: for
    every role, on binary, unary and one-column fallback steps."""
    seen = set()
    real_learn = Pipeline._learn

    def checking_learn(self, ep, cl, dec, scored, learning):
        weights = copy.deepcopy(self.encoder)
        losses = real_learn(self, ep, cl, dec, scored, learning)
        kind = "fallback" if dec.fallback else ("unary", "binary")[dec.op.arity - 1]
        for role in dec.acting:
            t = ep.pending[role]
            x, _ = tcto.encoder.state_forward(weights, [t.state_ctx])
            assert np.abs(x[0] - t.state_input).max() <= 1e-12
            seen.add((kind, role))
        return losses

    monkeypatch.setattr(Pipeline, "_learn", checking_learn)
    for data in (_product_dataset(seed=3), _one_column_dataset()):
        Pipeline(data, _tiny_cfg(use_rgcn=True, episodes=3)).train()
    assert seen == {
        ("binary", HEAD),
        ("binary", OPERATION),
        ("binary", OPERAND),
        ("unary", HEAD),
        ("unary", OPERATION),
        ("fallback", HEAD),
        ("fallback", OPERATION),
    }
