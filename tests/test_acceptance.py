"""Acceptance gate: nine end-to-end checks with one verdict line each.

Every test prints `[PASS] A<n> <name> (details)` or the matching FAIL
line before asserting, so `pytest tests/test_acceptance.py -s` reads as
a checklist. The tolerances and runtime budgets are asserted exactly as
printed; the details carry the measured numbers.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from tcto.agents import (
    HEAD,
    ROLES,
    Transition,
    candidate_q_values,
    epsilon_greedy,
    make_agent,
    push_transition,
    select_candidate,
    train_step,
)
from tcto.cli import main as cli_main
from tcto.clustering import (
    cosine_similarity_matrix,
    enhanced_laplacian,
    hierarchical_cluster,
    spectral_embed,
)
from tcto.encoder import (
    Encoder,
    GraphSnapshot,
    StateSpec,
    rgcn_forward,
    state_backward,
    state_forward,
)
from tcto.evaluator import EvalConfig, mutual_information
from tcto.opset import N_OPERATIONS, OP_BY_NAME, apply_unary
from tcto.pipeline import Pipeline, RunConfig
from tcto.reward import complexity_reward, performance_reward, split_equally
from tcto.roadmap import Roadmap
from tcto.synth import synthetic_regression, write_csv
from tcto.tabular import CLASSIFICATION, REGRESSION, Dataset

from helpers import grow_random_roadmap
from oracles import (
    as_partition,
    best_partition,
    blob_points,
    central_difference,
    dense_rgcn,
    fd_close,
    plug_in_mi,
    random_graph,
    zeros_for_none,
)


def _verdict(tag, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag} ({detail})"
    print(line)
    assert ok, line


# -- A1: replay determinism ------------------------------------------------


def test_a1_replay_determinism():
    started = time.perf_counter()
    data = synthetic_regression(n=120, seed=3)
    drift = 0.0
    roundtrip_ok = True
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        roadmap = Roadmap.from_dataset(data, lineage="t")
        columns = {
            i: np.asarray(data.columns[i], dtype=float)
            for i in range(len(data.column_names))
        }
        grow_random_roadmap(roadmap, columns, rng, steps=10)
        incremental = np.column_stack([columns[i] for i in roadmap.alive_ids()])
        replayed = roadmap.materialize(data)
        drift = max(drift, float(np.max(np.abs(replayed - incremental))))
        imported = Roadmap.import_json(roadmap.export_json())
        if not np.array_equal(imported.materialize(data), replayed):
            roundtrip_ok = False
    elapsed = time.perf_counter() - started
    ok = drift <= 1e-9 and roundtrip_ok and elapsed < 10.0
    _verdict(
        "A1 replay determinism",
        ok,
        f"max cell drift {drift:.1e}, import roundtrip bit-identical "
        f"{roundtrip_ok}, {elapsed:.1f}s",
    )


# -- A2: laplacian, spectral residuals and exhaustive clustering -----------


def test_a2_laplacian_spectral_and_exhaustive_clustering():
    started = time.perf_counter()
    worst_row_sum = 0.0
    worst_residual = 0.0
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
        m = int(rng.integers(3, 13))
        adjacency = (rng.random((m, m)) < 0.35) * rng.random((m, m))
        np.fill_diagonal(adjacency, 0.0)
        similarity = cosine_similarity_matrix(rng.normal(size=(m, 5)))
        lap = enhanced_laplacian(adjacency, similarity)
        worst_row_sum = max(worst_row_sum, float(np.max(np.abs(lap.sum(axis=1)))))
        embedding = spectral_embed(lap, min(m, 4))
        for col in embedding.T:
            lam = float(col @ lap @ col)
            residual = float(np.linalg.norm(lap @ col - lam * col))
            worst_residual = max(worst_residual, residual)

    mismatches = 0
    cases = 0
    for k in (2, 3):
        for m in range(k, 9):
            for seed in range(5):
                rng = np.random.default_rng(np.random.SeedSequence([m, k, seed, 31]))
                points, _ = blob_points(rng, m, k)
                got = hierarchical_cluster(points, k)
                cases += 1
                if as_partition(got) != best_partition(points, k):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = (
        worst_row_sum <= 1e-9
        and worst_residual < 1e-6
        and mismatches == 0
        and elapsed < 30.0
    )
    _verdict(
        "A2 laplacian and clustering",
        ok,
        f"row sum {worst_row_sum:.1e}, eigen residual {worst_residual:.1e}, "
        f"{cases - mismatches}/{cases} partitions optimal, {elapsed:.1f}s",
    )


# -- A3: encoder against a dense oracle and finite differences -------------


def _kink_free_state(seed):
    """Sample encoder, graph and probe with all hidden units off the hinge."""
    for attempt in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt, 43]))
        encoder = Encoder.create(rng, dims=(7, 5, 4))
        stats, relations, parents = random_graph(
            rng, max_nodes=5, n_relations=N_OPERATIONS
        )
        graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
        spec = StateSpec(groups=(tuple(range(graph.n_nodes)), (0,)), op_id=3)
        _, cache = state_forward(encoder, [(graph, spec)])
        pre = cache[1][-1]
        margin = min(float(np.min(np.abs(p))) for p in pre[:-1])
        if margin > 1e-3:
            return encoder, graph, spec, rng.normal(size=3 * 4)
    raise AssertionError("no kink-free sample found")


def _graphs_of_different_sizes(rng, count, n_relations):
    """count random snapshots, no two with the same number of nodes."""
    by_size = {}
    while len(by_size) < count:
        stats, relations, parents = random_graph(
            rng, max_nodes=count + 3, n_relations=n_relations
        )
        by_size.setdefault(
            len(stats), GraphSnapshot(stats=stats, relations=relations, parents=parents)
        )
    return list(by_size.values())


def _kink_free_batch(seed):
    """Sample an encoder, a batch of three states over snapshots of
    different sizes, and a probe per state, with all hidden units off the
    hinge."""
    for attempt in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt, 47]))
        encoder = Encoder.create(rng, dims=(7, 5, 4))
        contexts = [
            (g, StateSpec(groups=(tuple(range(g.n_nodes)), (0,)), op_id=int(op)))
            for g, op in zip(
                _graphs_of_different_sizes(rng, 3, N_OPERATIONS),
                rng.integers(N_OPERATIONS, size=3),
            )
        ]
        _, cache = state_forward(encoder, contexts)
        pre = cache[1][-1]
        margin = min(float(np.min(np.abs(p))) for p in pre[:-1])
        if margin > 1e-3:
            return encoder, contexts, rng.normal(size=(3, 3 * 4))
    raise AssertionError("no kink-free sample found")


def test_a3_encoder_matches_dense_oracle_and_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
        stats, relations, parents = random_graph(rng, max_nodes=5, n_relations=3)
        params = Encoder.create(rng, dims=(7, 4, 6), n_relations=3)
        graph = GraphSnapshot(stats=stats, relations=relations, parents=parents)
        got, _ = rgcn_forward([graph], params)
        want = dense_rgcn(stats, relations, parents, params.layers, 3)
        worst = max(worst, float(np.max(np.abs(got - want))))

    worst_batch = 0.0
    for seed in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 45]))
        graphs = _graphs_of_different_sizes(rng, 3 + seed % 3, 3)
        params = Encoder.create(rng, dims=(7, 4, 6), n_relations=3)
        got, _ = rgcn_forward(graphs, params)
        start = 0
        for g in graphs:
            want = dense_rgcn(g.stats, g.relations, g.parents, params.layers, 3)
            gap = np.max(np.abs(got[start : start + g.n_nodes] - want))
            worst_batch = max(worst_batch, float(gap))
            start += g.n_nodes

    fd_ok = True
    for seed in (0, 1):
        encoder, graph, spec, probe = _kink_free_state(seed)

        def loss():
            return float(state_forward(encoder, [(graph, spec)])[0][0] @ probe)

        _, cache = state_forward(encoder, [(graph, spec)])
        grads = zeros_for_none(state_backward(encoder, cache, probe[None, :]), encoder.params)
        for analytic, weight in zip(grads, encoder.params, strict=True):
            if not fd_close(analytic, central_difference(loss, weight)):
                fd_ok = False

    batch_fd_ok = True
    for seed in (0, 1):
        encoder, contexts, probes = _kink_free_batch(seed)

        def batch_loss():
            return float(np.sum(state_forward(encoder, contexts)[0] * probes))

        _, cache = state_forward(encoder, contexts)
        grads = zeros_for_none(state_backward(encoder, cache, probes), encoder.params)
        for analytic, weight in zip(grads, encoder.params, strict=True):
            if not fd_close(analytic, central_difference(batch_loss, weight)):
                batch_fd_ok = False
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and worst_batch <= 1e-9 and fd_ok and batch_fd_ok and elapsed < 60.0
    _verdict(
        "A3 encoder oracle",
        ok,
        f"max forward gap {worst:.1e} over 50 graphs and {worst_batch:.1e} over 50 "
        f"batches of 3-5, gradients within 1e-4 of central differences {fd_ok}, "
        f"over batches of 3 {batch_fd_ok}, {elapsed:.1f}s",
    )


# -- A4: node-wise pruning against an exhaustive top-K oracle --------------


def test_a4_pruning_keeps_the_exhaustive_top_mi_set():
    started = time.perf_counter()
    mismatches = []
    worst_mi_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 55]))
        n = 200
        cols = [rng.normal(size=n) for _ in range(4)]
        if seed % 2:
            task = CLASSIFICATION
            labels = (cols[0] + 0.7 * cols[1] + 0.3 * rng.normal(size=n) > 0.0)
            labels = labels.astype(float)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
        else:
            task = REGRESSION
            labels = cols[0] * cols[1] + 0.5 * cols[2] + 0.1 * rng.normal(size=n)
        data = Dataset(
            column_names=("a", "b", "c", "d"),
            columns=tuple(cols),
            labels=labels,
            task=task,
        )
        roadmap = Roadmap.from_dataset(data, lineage="t")
        columns = {i: np.asarray(cols[i]) for i in range(4)}
        grow_random_roadmap(roadmap, columns, rng, steps=8, distinct_values=True)
        budget = int(rng.integers(4, 9))
        mi = {}
        for i in roadmap.alive_ids():
            mi[i] = plug_in_mi(columns[i], labels, task)
            gap = abs(mutual_information(columns[i], labels, task) - mi[i])
            worst_mi_gap = max(worst_mi_gap, gap)
        ranked = sorted(mi, key=lambda i: (-mi[i], i))
        expected = set(range(4)) | set(ranked[:budget])
        roadmap.prune_node_wise(labels, task, budget)
        if set(roadmap.alive_ids()) != expected:
            mismatches.append(seed)

    y = np.repeat([0.0, 1.0], 100)
    ln2_gap = abs(mutual_information(y, y, CLASSIFICATION) - math.log(2.0))
    elapsed = time.perf_counter() - started
    ok = not mismatches and worst_mi_gap <= 1e-9 and ln2_gap <= 1e-9
    _verdict(
        "A4 mutual-information pruning",
        ok,
        f"{100 - len(mismatches)}/100 kept sets exact, mi gap "
        f"{worst_mi_gap:.1e}, ln2 gap {ln2_gap:.1e}, {elapsed:.1f}s",
    )


# -- A5: reward closed forms and exact bookkeeping -------------------------


def test_a5_reward_closed_forms_and_conservation():
    flat = Dataset(
        column_names=("a", "b", "c", "d", "e"),
        columns=tuple(np.linspace(-1.0, 1.0, 8) * s for s in (1.0, 2.0, 3.0, 4.0, 5.0)),
        labels=np.linspace(0.0, 1.0, 8),
        task=REGRESSION,
    )
    all_root_exact = complexity_reward(Roadmap.from_dataset(flat, lineage="t")) == 1.0

    single = Dataset(
        column_names=("a",),
        columns=(np.array([1.0, 2.0, 3.0, 4.0]),),
        labels=np.array([0.0, 1.0, 0.0, 1.0]),
        task=REGRESSION,
    )
    deep = Roadmap.from_dataset(single, lineage="t")
    op = OP_BY_NAME["square"]
    deep.add_node(op, (0,), apply_unary(op, np.asarray(single.columns[0], dtype=float)))
    depth_gap = abs(complexity_reward(deep) - (1.0 + math.exp(-1.0)) / 2.0)

    rng = np.random.default_rng(np.random.SeedSequence([5, 65]))
    conserved = True
    for _ in range(200):
        total = float(rng.uniform(-1e6, 1e6))
        size = int(rng.integers(1, len(ROLES) + 1))
        roles = [str(r) for r in rng.choice(ROLES, size=size, replace=False)]
        shares = split_equally(total, roles)
        if sum(shares[r] for r in roles) != total:
            conserved = False

    scores = [int(v) / 64.0 for v in rng.integers(-640, 640, size=41)]
    deltas = [performance_reward(a, b) for a, b in zip(scores, scores[1:])]
    span = scores[-1] - scores[0]
    telescoped = sum(deltas) == span and math.fsum(deltas) == span

    ok = all_root_exact and depth_gap <= 1e-12 and conserved and telescoped
    _verdict(
        "A5 reward suite",
        ok,
        f"all-root exact {all_root_exact}, depth mix gap {depth_gap:.1e}, "
        f"shares conserved {conserved}, telescoping exact {telescoped}",
    )


# -- A6: agent learning sanity on a two-armed bandit ------------------------


_ARMS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def _bandit_prefers_the_rewarding_arm(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    agent = make_agent(HEAD, 2, 1, 100, rng)
    if agent.buffer.maxlen != 16:
        return False
    for step in range(200):
        epsilon = 0.9 * (1.0 - step / 199.0)
        arm = select_candidate(agent, list(_ARMS), epsilon, rng)
        push_transition(agent, Transition(_ARMS[arm].copy(), 0, float(arm == 1), []))
        train_step(agent, rng, gamma=0.0, lr=0.01, batch_size=8)
    return epsilon_greedy(candidate_q_values(agent, list(_ARMS)), 0.0, rng) == 1


def test_a6_bandit_learning_sanity():
    started = time.perf_counter()
    wins = sum(_bandit_prefers_the_rewarding_arm(seed) for seed in range(20))

    drops = True
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 79]))
        agent = make_agent(HEAD, 2, 1, 100, rng)
        for i in range(16):
            arm = i % 2
            push_transition(
                agent, Transition(_ARMS[arm].copy(), 0, float(arm == 1), [])
            )
        losses = [
            train_step(agent, rng, gamma=0.0, lr=0.01, batch_size=8)
            for _ in range(50)
        ]
        if not losses[-1] < losses[0]:
            drops = False
    elapsed = time.perf_counter() - started
    ok = wins >= 19 and drops
    _verdict(
        "A6 bandit learning",
        ok,
        f"{wins}/20 seeds pick the rewarding arm, frozen-buffer loss drops "
        f"in all seeds {drops}, {elapsed:.1f}s",
    )


# -- A7: directional improvement over baseline and a random policy ---------


@pytest.mark.slow
def test_a7_directional_improvement_over_baseline_and_random_policy():
    started = time.perf_counter()
    data = synthetic_regression(n=500, noise=0.05, seed=0)
    shared = dict(
        episodes=8,
        steps_per_episode=30,
        application_episodes=0,
        eval=EvalConfig(folds=3, trees=10, max_depth=5),
    )
    learned = []
    randomized = []
    for seed in range(5):
        learned.append(Pipeline(data, RunConfig(seed=seed, **shared)).train())
        randomized.append(
            Pipeline(data, RunConfig(seed=seed, random_policy=True, **shared)).train()
        )
    train_wins = sum(r.best_score >= r.baseline_score + 0.03 for r in learned)
    test_wins = sum(r.test_score >= r.test_baseline for r in learned)
    learned_median = statistics.median(r.best_score for r in learned)
    random_median = statistics.median(r.best_score for r in randomized)
    elapsed = time.perf_counter() - started
    ok = (
        train_wins >= 4
        and test_wins >= 4
        and learned_median > random_median
        and elapsed < 600.0
    )
    _verdict(
        "A7 directional improvement",
        ok,
        f"train +0.03 in {train_wins}/5 seeds, test >= baseline in "
        f"{test_wins}/5, median best {learned_median:.3f} vs random "
        f"{random_median:.3f}, {elapsed:.0f}s",
    )


# -- A8: identical invocations write identical step logs --------------------


def test_a8_identical_runs_write_identical_step_logs(tmp_path):
    data_path = tmp_path / "data.csv"
    write_csv(synthetic_regression(n=120, seed=1), data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "episodes": 2,
                "steps_per_episode": 5,
                "application_episodes": 1,
                "hidden_size": 8,
                "batch_size": 4,
                "candidate_cap": 8,
                "folds": 2,
                "trees": 2,
                "max_depth": 3,
            }
        )
    )
    codes = []
    logs = []
    for name in ("first", "second"):
        out = tmp_path / name
        codes.append(
            cli_main(
                [
                    "train",
                    "--data",
                    str(data_path),
                    "--task",
                    "reg",
                    "--label",
                    "label",
                    "--out",
                    str(out),
                    "--config",
                    str(config_path),
                    "--seed",
                    "9",
                ]
            )
        )
        logs.append((out / "steps.jsonl").read_bytes())
    identical = logs[0] == logs[1] and len(logs[0]) > 0
    ok = codes == [0, 0] and identical
    _verdict(
        "A8 full-run determinism",
        ok,
        f"exit codes {codes}, {len(logs[0])} bytes of step logs, "
        f"byte-identical {identical}",
    )


# -- A9: pruning schedule conformance ---------------------------------------


def test_a9_pruning_schedule_conformance(tmp_path):
    data_path = tmp_path / "data.csv"
    data = synthetic_regression(n=150, seed=2)
    write_csv(data, data_path)
    config_path = tmp_path / "config.json"
    episodes = 4
    config_path.write_text(
        json.dumps(
            {
                "episodes": episodes,
                "steps_per_episode": 20,
                "application_episodes": 1,
                "hidden_size": 16,
                "batch_size": 4,
                "candidate_cap": 16,
                "folds": 2,
                "trees": 2,
                "max_depth": 3,
            }
        )
    )
    out = tmp_path / "run"
    code = cli_main(
        [
            "train",
            "--data",
            str(data_path),
            "--task",
            "reg",
            "--label",
            "label",
            "--out",
            str(out),
            "--config",
            str(config_path),
            "--seed",
            "0",
        ]
    )
    records = [
        json.loads(line) for line in (out / "steps.jsonl").read_text().splitlines()
    ]
    budget = 4 * len(data.column_names)
    cut = math.floor(episodes * 0.30)
    node_wise = [r for r in records if r["prune"] == "node_wise"]
    backtracks = [r for r in records if r["prune"] == "backtrack"]
    trigger_exact = all(
        (r["prune"] != "none") == (r["alive"] > budget) for r in records
    )
    early_only = all(
        r["phase"] == "explore" and r["episode"] < cut for r in node_wise
    )
    late_only = all(
        not (r["phase"] == "explore" and r["episode"] < cut) for r in backtracks
    )
    ok = (
        code == 0
        and trigger_exact
        and early_only
        and late_only
        and bool(node_wise)
        and bool(backtracks)
    )
    _verdict(
        "A9 pruning schedule",
        ok,
        f"{len(node_wise)} node-wise and {len(backtracks)} backtrack events, "
        f"trigger matches alive > {budget} exactly {trigger_exact}",
    )
