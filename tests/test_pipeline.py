"""End-to-end search driver: configuration, determinism, budgets, replay."""

import copy
import json
import math

import numpy as np
import pytest

import tcto.encoder
import tcto.pipeline
from helpers import alive_edge_matrix
from tcto.agents import HEAD, OPERAND, OPERATION
from tcto.encoder import squash_stats
from tcto.evaluator import EvalConfig, evaluate
from tcto.pipeline import (
    APPLY,
    EXPLORE,
    ConfigError,
    Pipeline,
    PipelineError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    record_to_json,
)
from tcto.roadmap import Roadmap
from tcto.tabular import Dataset

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
    with pytest.raises(ConfigError):
        config_from_dict({"episodes": "many"})
    with pytest.raises(ConfigError):
        config_from_dict({"folds": 1})


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
    budget = pipe.cfg.node_budget_factor * pipe.train_data.n_features
    cut = pipe._node_wise_episodes()
    for rec in report.records:
        assert (rec.prune != "none") == (rec.alive > budget)
        if rec.prune == "none":
            assert rec.alive_after == rec.alive
        if rec.prune == "node_wise":
            assert rec.episode < cut
            assert rec.alive_after <= budget + pipe.train_data.n_features
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
    roots = Roadmap.from_dataset(pipe.train_data).alive_nodes()
    first = squash_stats(np.stack([n.stats.as_vector() for n in roots]))
    for rec, h, emb in zip(report.records, forwards, clustered):
        assert np.array_equal(emb, first if rec.step == 0 else h)
    assert len(edges) == len(adjacencies) == 10
    assert any(a.any() for a in adjacencies)
    for want, got in zip(edges, adjacencies):
        assert np.array_equal(got, want)


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
    bad["version"] = 2
    with pytest.raises(PipelineError):
        Pipeline(data, cfg).load_checkpoint(bad)

    one_layer = copy.deepcopy(cp)
    del one_layer["encoder"]["layers"][1:]
    three_relations = copy.deepcopy(cp)
    del three_relations["encoder"]["layers"][0][3:]
    for truncated in (one_layer, three_relations):
        with pytest.raises(PipelineError):
            Pipeline(data, cfg).load_checkpoint(truncated)
