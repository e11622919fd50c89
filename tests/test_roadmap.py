"""Roadmap growth, dedup and revival, replay, pruning and serialization."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import alive_edge_matrix, grow_random_roadmap, make_regression_dataset
from tcto.encoder import snapshot_from_roadmap
from tcto.evaluator import mutual_information
from tcto.opset import OP_BY_NAME, apply_unary
from tcto.roadmap import (
    Roadmap,
    RoadmapError,
    SchemaError,
    node_signature,
)

ADD = OP_BY_NAME["add"]
SUB = OP_BY_NAME["subtract"]
MUL = OP_BY_NAME["multiply"]
SQUARE = OP_BY_NAME["square"]
SIN = OP_BY_NAME["sin"]


def _fresh(n=12, p=3, seed=0):
    d = make_regression_dataset(n=n, p=p, seed=seed)
    r = Roadmap.from_dataset(d, lineage="t")
    cols = {i: np.asarray(c) for i, c in enumerate(d.columns)}
    return d, r, cols


# -- signatures ---------------------------------------------------------------


def test_commutative_signatures_sort_parents():
    assert node_signature(ADD, (5, 3)) == node_signature(ADD, (3, 5))
    assert node_signature(MUL, (2, 7)) == node_signature(MUL, (7, 2))


def test_ordered_signatures_keep_parent_order():
    assert node_signature(SUB, (5, 3)) != node_signature(SUB, (3, 5))


def test_root_signature_uses_the_column_name():
    assert node_signature(None, (), "age") == "root:age"


# -- construction and growth ----------------------------------------------------


def test_roots_mirror_the_dataset_columns():
    d, r, _ = _fresh()
    assert r.root_count == 3
    assert [n.id for n in r.nodes] == [0, 1, 2]
    for node, name, col in zip(r.nodes, d.column_names, d.columns):
        assert node.is_root
        assert node.depth == 0
        assert node.origin_name == name
        assert node.values is col
        mean, *_ = node.stats
        assert mean == pytest.approx(float(np.mean(col)))


def test_add_node_assigns_sequential_ids_and_depths():
    _, r, cols = _fresh()
    res = r.add_node(SQUARE, (0,), apply_unary(SQUARE, cols[0]))
    assert res.node_id == 3 and res.created and not res.revived
    assert np.array_equal(r.nodes[3].values, apply_unary(SQUARE, cols[0]))
    deep = r.add_node(ADD, (3, 1), cols[0] ** 2 + cols[1])
    assert deep.node_id == 4
    assert r.nodes[4].depth == 2


def test_live_duplicates_are_deduplicated():
    _, r, cols = _fresh()
    assert r.find(ADD, (0, 1)) is None
    first = r.add_node(ADD, (0, 1), cols[0] + cols[1])
    assert r.find(ADD, (1, 0)) is r.nodes[first.node_id]
    assert r.find(SUB, (1, 0)) is None
    again = r.add_node(ADD, (1, 0), None)
    assert again.node_id == first.node_id
    assert not again.created and not again.revived
    assert r.alive_count == 4


def test_dead_duplicates_are_revived_in_place():
    _, r, cols = _fresh()
    snap = r.take_snapshot(0.0)
    created = r.add_node(ADD, (0, 1), cols[0] + cols[1])
    r.restore(snap)
    assert not r.nodes[created.node_id].alive
    assert r.find(ADD, (0, 1)) is r.nodes[created.node_id]
    revived = r.add_node(ADD, (0, 1), None)
    assert revived.node_id == created.node_id
    assert revived.revived and not revived.created
    assert r.nodes[created.node_id].alive
    assert np.array_equal(r.nodes[created.node_id].values, cols[0] + cols[1])


def test_growth_contract_violations():
    _, r, cols = _fresh()
    with pytest.raises(RoadmapError):
        r.add_node(ADD, (0,), cols[0])
    with pytest.raises(RoadmapError):
        r.add_node(SQUARE, (9,), cols[0])
    with pytest.raises(RoadmapError):
        r.add_node(SQUARE, (0,), cols[0][:-1])
    snap = r.take_snapshot(0.0)
    dead = r.add_node(SQUARE, (0,), apply_unary(SQUARE, cols[0]))
    r.restore(snap)
    with pytest.raises(RoadmapError):
        r.add_node(SIN, (dead.node_id,), np.sin(cols[0] ** 2))


def test_roadmap_requires_unique_column_names():
    with pytest.raises(RoadmapError):
        Roadmap(("a", "a"), lineage="t")
    with pytest.raises(RoadmapError):
        Roadmap((), lineage="t")


# -- graph views -----------------------------------------------------------------


def test_edges_and_adjacency_follow_alive_nodes():
    _, r, cols = _fresh()
    a = r.add_node(ADD, (0, 1), cols[0] + cols[1])
    edges = r.alive_edges()
    assert (0, a.node_id, ADD) in edges and (1, a.node_id, ADD) in edges
    adj = snapshot_from_roadmap(r).adjacency
    assert adj.shape == (4, 4)
    assert adj[0, 3] == 1.0 and adj[1, 3] == 1.0
    assert adj.sum() == 2.0
    snap = r.take_snapshot(0.0)
    b = r.add_node(SQUARE, (a.node_id,), apply_unary(SQUARE, cols[0] + cols[1]))
    assert (a.node_id, b.node_id, SQUARE) in r.alive_edges()
    r.restore(snap)
    assert all(c != b.node_id for _, c, _ in r.alive_edges())
    assert np.array_equal(snapshot_from_roadmap(r).adjacency, alive_edge_matrix(r))


def _assert_snapshot_follows_alive_edges(r):
    graph = snapshot_from_roadmap(r)
    assert np.array_equal(graph.adjacency, alive_edge_matrix(r))
    pos = {nid: k for k, nid in enumerate(r.alive_ids())}
    want_rows = {}
    for i, n in enumerate(r.alive_nodes()):
        alive_parents = {pos[p] for p in n.parents if p in pos}
        row = graph.message_operator[i]
        assert set(np.flatnonzero(row)) == alive_parents
        assert all(row[p] == 1.0 / len(alive_parents) for p in alive_parents)
        if alive_parents:
            want_rows.setdefault(n.op.id, []).append(i)
    rows, rels = graph.relation_rows
    got_rows = {}
    for i, rel in zip(rows.tolist(), rels.tolist()):
        got_rows.setdefault(rel, []).append(i)
    assert got_rows == want_rows
    assert rels.tolist() == sorted(rels.tolist())


@given(st.integers(0, 10_000), st.integers(1, 10), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_snapshot_structure_follows_alive_edges_through_prune_restore_revive(
    seed, steps, slack
):
    d = make_regression_dataset(n=16, p=3, seed=seed)
    r = Roadmap.from_dataset(d, lineage="t")
    cols = {i: np.asarray(c) for i, c in enumerate(d.columns)}
    rng = np.random.default_rng(seed)
    grow_random_roadmap(r, cols, rng, steps)
    _assert_snapshot_follows_alive_edges(r)
    snap = r.take_snapshot(0.0)
    grow_random_roadmap(r, cols, rng, steps)
    r.prune_node_wise(d.labels, d.task, budget=r.root_count + slack)
    _assert_snapshot_follows_alive_edges(r)
    r.restore(snap)
    _assert_snapshot_follows_alive_edges(r)
    revivable = [
        n
        for n in r.nodes
        if not n.alive and all(r.nodes[p].alive for p in n.parents)
    ]
    for n in revivable:
        assert r.add_node(n.op, n.parents, cols[n.id]).revived
    _assert_snapshot_follows_alive_edges(r)


def test_stats_matrix_rows_follow_alive_id_order():
    _, r, cols = _fresh()
    r.add_node(ADD, (0, 1), cols[0] + cols[1])
    m = np.stack([n.stats for n in r.alive_nodes()])
    assert m.shape == (4, 7)
    assert m[3, 0] == pytest.approx(float(np.mean(cols[0] + cols[1])))


# -- materialization ---------------------------------------------------------------


def test_materialize_replays_the_incremental_columns_exactly():
    d, r, cols = _fresh(n=30, seed=4)
    rng = np.random.default_rng(7)
    grow_random_roadmap(r, cols, rng, steps=25)
    want = np.column_stack([cols[i] for i in r.alive_ids()])
    got = r.materialize(d)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_materialize_recomputes_dead_ancestors():
    d, r, cols = _fresh()
    mid = r.add_node(SQUARE, (0,), apply_unary(SQUARE, cols[0]))
    top = r.add_node(SIN, (mid.node_id,), np.sin(cols[0] ** 2))
    r.nodes[mid.node_id].alive = False
    got = r.materialize(d)
    assert got.shape == (d.n_rows, 4)
    assert np.array_equal(got[:, 3], np.sin(cols[0] ** 2))
    assert top.node_id in r.alive_ids()


def test_materialize_rejects_mismatched_columns():
    d, r, _ = _fresh()
    other = make_regression_dataset(n=12, p=4, seed=1)
    with pytest.raises(RoadmapError):
        r.materialize(other)


# -- snapshots ----------------------------------------------------------------------


def test_restore_rewinds_to_the_alive_set():
    _, r, cols = _fresh()
    kept = r.add_node(ADD, (0, 1), cols[0] + cols[1])
    snap = r.take_snapshot(0.5)
    late = r.add_node(SUB, (0, 2), cols[0] - cols[2])
    r.restore(snap)
    assert r.nodes[kept.node_id].alive
    assert not r.nodes[late.node_id].alive
    assert snap.score == 0.5
    assert r.alive_count == 4


def test_restore_rejects_foreign_snapshots():
    _, r, _ = _fresh()
    _, other, _ = _fresh()
    other.lineage = "elsewhere"
    with pytest.raises(RoadmapError):
        r.restore(other.take_snapshot(0.0))


# -- node-wise pruning ----------------------------------------------------------------


def test_prune_keeps_top_mi_nodes_plus_roots():
    from tcto.tabular import Dataset

    n = 80
    rng = np.random.default_rng(2)
    y = np.tile([0.0, 1.0], n // 2)
    informative = y + 0.01 * rng.normal(size=n)
    d = Dataset(
        column_names=("a", "b", "c"),
        columns=(informative, rng.normal(size=n), rng.normal(size=n)),
        labels=y,
        task="classification",
    )
    r = Roadmap.from_dataset(d, lineage="t")
    cols = {i: np.asarray(c) for i, c in enumerate(d.columns)}
    grow_random_roadmap(r, cols, np.random.default_rng(5), steps=20)
    budget = 4
    alive_before = r.alive_ids()
    ranked = sorted(
        alive_before,
        key=lambda i: (-mutual_information(cols[i], y, "classification"), i),
    )
    expected = set(ranked[:budget]) | {0, 1, 2}
    killed = r.prune_node_wise(y, "classification", budget)
    assert set(r.alive_ids()) == expected
    assert killed == sorted(set(alive_before) - expected)


def test_prune_is_a_no_op_within_budget():
    _, r, cols = _fresh()
    y = np.arange(12, dtype=float)
    assert r.prune_node_wise(y, "regression", 10) == []
    assert r.alive_count == 3


def test_prune_requires_columns_for_alive_nodes():
    _, r, cols = _fresh()
    for _ in range(6):
        grow_random_roadmap(r, cols, np.random.default_rng(1), steps=3)
    imported = Roadmap.import_json(r.export_json())
    with pytest.raises(RoadmapError):
        imported.prune_node_wise(np.arange(12, dtype=float), "regression", 2)


# -- serialization ------------------------------------------------------------------


def test_json_roundtrip_is_byte_identical():
    d, r, cols = _fresh(n=20, seed=3)
    grow_random_roadmap(r, cols, np.random.default_rng(3), steps=15)
    snap = r.take_snapshot(0.0)
    grow_random_roadmap(r, cols, np.random.default_rng(4), steps=5)
    r.restore(snap)
    blob = r.export_json()
    again = Roadmap.import_json(blob)
    assert again.export_json() == blob
    assert again.alive_ids() == r.alive_ids()
    assert np.array_equal(again.materialize(d), r.materialize(d))


def test_import_rebuilds_the_dedup_index():
    _, r, cols = _fresh()
    snap = r.take_snapshot(0.0)
    created = r.add_node(ADD, (0, 1), cols[0] + cols[1])
    r.restore(snap)
    again = Roadmap.import_json(r.export_json())
    revived = again.add_node(ADD, (0, 1), cols[0] + cols[1])
    assert revived.node_id == created.node_id
    assert revived.revived


def _valid_doc():
    _, r, cols = _fresh()
    r.add_node(ADD, (0, 1), cols[0] + cols[1])
    r.add_node(SQUARE, (0,), apply_unary(SQUARE, cols[0]))
    return json.loads(r.export_json())


def _expect_schema_error(doc):
    with pytest.raises(SchemaError):
        Roadmap.import_json(json.dumps(doc))


def test_schema_violations_are_rejected():
    _expect_schema_error({**_valid_doc(), "version": 99})
    _expect_schema_error([1, 2, 3])

    doc = _valid_doc()
    doc["nodes"][3]["id"] = 9
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"][3]["parents"] = [0, 3]
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"][4]["parents"] = [-2]
    _expect_schema_error(doc)

    _expect_schema_error({**_valid_doc(), "original_columns": 5})

    doc = _valid_doc()
    for node in doc["nodes"]:
        node["alive"] = False
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"][4]["op"] = "frobnicate"
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"][3]["depth"] = 7
    _expect_schema_error(doc)

    doc = _valid_doc()
    dup = dict(doc["nodes"][3])
    dup["id"] = 5
    doc["nodes"].append(dup)
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"][3]["stats"] = [1.0, 2.0]
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"][0]["origin_name"] = "zzz"
    _expect_schema_error(doc)

    doc = _valid_doc()
    doc["nodes"] = doc["nodes"][:2]
    _expect_schema_error(doc)

    doc = _valid_doc()
    del doc["lineage"]
    _expect_schema_error(doc)

    # each field has one JSON type, and no other value is coerced into it
    _expect_schema_error({**_valid_doc(), "lineage": [1, 2]})
    for k, field, value in (
        (3, "alive", "false"),
        (3, "alive", 0),
        (1, "id", True),
        (3, "id", 3.0),
        (3, "depth", "1"),
        (3, "depth", 1.0),
        (4, "parents", [0.9]),
        (4, "parents", ["0"]),
        (4, "parents", [False]),
        (4, "parents", 0),
        (3, "op", ["add"]),
        (3, "stats", [float("nan")] + [0.0] * 6),
        (3, "stats", [float("inf")] + [0.0] * 6),
        (3, "stats", [10**400] + [0.0] * 6),
        (3, "stats", [True] + [0.0] * 6),
        (3, "stats", ["1.0"] + [0.0] * 6),
        (3, "stats", 1.0),
    ):
        doc = _valid_doc()
        doc["nodes"][k][field] = value
        _expect_schema_error(doc)
    doc = _valid_doc()
    doc["nodes"][3]["stats"] = [1, 2, 3, 4, 5, 6, 7]
    assert Roadmap.import_json(json.dumps(doc)).nodes[3].stats.tolist() == [1, 2, 3, 4, 5, 6, 7]

    with pytest.raises(SchemaError):
        Roadmap.import_json(b"{not json")


def test_dot_export_lists_alive_nodes_and_edges():
    _, r, cols = _fresh()
    snap = r.take_snapshot(0.0)
    kept = r.add_node(ADD, (0, 1), cols[0] + cols[1])
    dot = r.export_dot()
    assert dot.startswith("digraph roadmap {")
    assert 'n0 [label="0:f0"];' in dot
    assert f'n{kept.node_id} [label="{kept.node_id}:add"];' in dot
    assert f'n0 -> n{kept.node_id} [label="add"];' in dot
    r.restore(snap)
    pruned = r.export_dot()
    assert f"n{kept.node_id} " not in pruned
    assert "->" not in pruned


def test_dot_labels_escape_backslashes_and_quotes():
    names = ('x"1', "a\\b", '\\"', 'q"\\', "plain")
    d = make_regression_dataset(n=12, p=len(names), seed=5)
    r = Roadmap.from_dataset(replace(d, column_names=names), lineage="t")
    r.add_node(ADD, (0, 1), np.asarray(d.columns[0]) + np.asarray(d.columns[1]))
    labels = re.findall(r"\[label=(.*)\];$", r.export_dot(), flags=re.MULTILINE)
    assert len(labels) == len(names) + 1 + 2  # the roots, the sum and its two edges
    for label in labels:
        assert re.fullmatch(r'"(?:[^"\\]|\\.)*"', label)
    unescaped = [re.sub(r"\\(.)", r"\1", label[1:-1]) for label in labels]
    assert unescaped[: len(names)] == [f"{k}:{name}" for k, name in enumerate(names)]


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_growth_keeps_parents_before_children(seed):
    d = make_regression_dataset(n=16, p=3, seed=seed % 50)
    r = Roadmap.from_dataset(d, lineage="t")
    cols = {i: np.asarray(c) for i, c in enumerate(d.columns)}
    grow_random_roadmap(r, cols, np.random.default_rng(seed), steps=12)
    for node in r.nodes:
        assert all(p < node.id for p in node.parents)
    blob = r.export_json()
    assert Roadmap.import_json(blob).export_json() == blob
