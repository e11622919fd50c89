"""Spectral embedding and average-linkage grouping of roadmap nodes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_partition, average_linkage_reference, best_partition, blob_points
from tcto.clustering import (
    cluster_count,
    cluster_nodes,
    cosine_similarity_matrix,
    enhanced_laplacian,
    hierarchical_cluster,
    spectral_embed,
)


# -- cluster count --------------------------------------------------------------


@pytest.mark.parametrize(
    "m,k", [(1, 1), (2, 2), (3, 2), (4, 2), (7, 3), (8, 3), (9, 3), (16, 4), (100, 10)]
)
def test_cluster_count_rounds_the_square_root(m, k):
    assert cluster_count(m) == k


def test_cluster_count_rejects_empty_input():
    with pytest.raises(ValueError):
        cluster_count(0)


# -- similarity ------------------------------------------------------------------


def test_cosine_similarity_of_unit_and_diagonal_vectors():
    sim = cosine_similarity_matrix([[1.0, 0.0], [1.0, 1.0]])
    assert sim[0, 0] == pytest.approx(1.0)
    assert sim[1, 1] == pytest.approx(1.0)
    assert sim[0, 1] == pytest.approx(math.sqrt(2) / 2)
    assert sim[1, 0] == pytest.approx(math.sqrt(2) / 2)


def test_cosine_similarity_zero_vector_row_is_zeroed():
    sim = cosine_similarity_matrix([[0.0, 0.0], [3.0, 4.0]])
    assert sim[0, 0] == 0.0
    assert sim[0, 1] == 0.0
    assert sim[1, 0] == 0.0
    assert sim[1, 1] == pytest.approx(1.0)


def test_cosine_similarity_is_scale_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    scaled = x * rng.uniform(0.5, 10.0, size=(5, 1))
    assert np.allclose(cosine_similarity_matrix(x), cosine_similarity_matrix(scaled))


# -- laplacian -------------------------------------------------------------------


def test_laplacian_row_sums_vanish_and_matrix_is_symmetric():
    rng = np.random.default_rng(1)
    a = (rng.random((6, 6)) < 0.4).astype(float)
    np.fill_diagonal(a, 0.0)
    sim = cosine_similarity_matrix(rng.normal(size=(6, 4)))
    lap = enhanced_laplacian(a, sim)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12
    assert np.abs(lap - lap.T).max() <= 1e-12


def test_laplacian_symmetrizes_directed_edges_with_a_maximum():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = np.zeros((2, 2))
    lap = enhanced_laplacian(a, w)
    assert lap[0, 1] == -1.0
    assert lap[1, 0] == -1.0
    assert lap[0, 0] == 1.0 and lap[1, 1] == 1.0


def test_laplacian_shape_mismatch_is_rejected():
    with pytest.raises(ValueError):
        enhanced_laplacian(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        enhanced_laplacian(np.zeros((2, 2)), np.zeros((3, 3)))


# -- spectral embedding -----------------------------------------------------------


def _random_laplacian(seed, m=7):
    rng = np.random.default_rng(seed)
    a = (rng.random((m, m)) < 0.5).astype(float)
    np.fill_diagonal(a, 0.0)
    sim = np.abs(cosine_similarity_matrix(rng.normal(size=(m, 4))))
    return enhanced_laplacian(a, sim)


@pytest.mark.parametrize("seed", range(5))
def test_spectral_columns_are_orthonormal_eigenvectors(seed):
    lap = _random_laplacian(seed)
    emb = spectral_embed(lap, dims=4)
    assert np.abs(emb.T @ emb - np.eye(4)).max() <= 1e-9
    sym = (lap + lap.T) / 2.0
    for j in range(emb.shape[1]):
        x = emb[:, j]
        lam = x @ sym @ x
        assert np.linalg.norm(sym @ x - lam * x) <= 1e-6


def test_spectral_sign_convention_makes_the_leading_entry_positive():
    lap = _random_laplacian(11)
    emb = spectral_embed(lap, dims=5)
    for j in range(emb.shape[1]):
        col = emb[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert nz.size > 0
        assert col[nz[0]] > 0.0


def test_spectral_first_column_of_a_connected_graph_is_constant():
    sim = np.ones((5, 5))
    lap = enhanced_laplacian(np.zeros((5, 5)), sim)
    emb = spectral_embed(lap, dims=1)
    assert np.allclose(emb[:, 0], 1.0 / math.sqrt(5))


def test_spectral_dims_bounds():
    lap = _random_laplacian(2, m=4)
    with pytest.raises(ValueError):
        spectral_embed(lap, dims=0)
    with pytest.raises(ValueError):
        spectral_embed(lap, dims=5)


# -- hierarchical clustering -------------------------------------------------------


def test_two_separated_pairs_split_apart():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    assert hierarchical_cluster(pts, 2) == [[0, 1], [2, 3]]


def test_identical_points_merge_by_lowest_member_ids():
    pts = np.zeros((4, 2))
    assert hierarchical_cluster(pts, 2) == [[0, 1, 2], [3]]


def test_trivial_cluster_counts():
    pts = np.arange(6.0).reshape(3, 2)
    assert hierarchical_cluster(pts, 1) == [[0, 1, 2]]
    assert hierarchical_cluster(pts, 3) == [[0], [1], [2]]


def test_hierarchical_input_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        hierarchical_cluster(pts, 0)
    with pytest.raises(ValueError):
        hierarchical_cluster(pts, 4)
    bad = pts.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        hierarchical_cluster(bad, 2)
    # Finite rows whose distances overflow leave no closest pair to merge.
    with pytest.raises(ValueError):
        hierarchical_cluster(np.array([[-1e300], [0.0], [1e300]]), 2)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [2, 3])
def test_hierarchical_recovers_the_exhaustive_optimum_on_blobs(seed, k):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(k, 7))
    pts, _ = blob_points(rng, m, k)
    got = hierarchical_cluster(pts, k)
    want = best_partition(pts, k)
    assert as_partition(got) == want


@pytest.mark.parametrize("seed", range(24))
def test_hierarchical_ties_follow_the_reference_rule(seed):
    """Duplicated rows, and copies of one group shifted by equal steps,
    make many exactly tied distances at every merge."""
    rng = np.random.default_rng([seed, 5])
    if seed % 2:
        base = rng.integers(0, 3, size=(int(rng.integers(1, 5)), 2)).astype(float)
        pts = base[rng.integers(0, len(base), size=int(rng.integers(2, 16)))]
    else:
        group = rng.integers(0, 4, size=(int(rng.integers(1, 4)), 2)).astype(float)
        copies = int(rng.integers(2, 5))
        pts = np.concatenate([group + [10.0 * c, 0.0] for c in range(copies)])
        pts = pts[rng.permutation(len(pts))]
    for k in range(1, len(pts) + 1):
        assert hierarchical_cluster(pts, k) == average_linkage_reference(pts, k)


# -- node-level wrapper -------------------------------------------------------------


def test_cluster_nodes_groups_hold_node_ids():
    rng = np.random.default_rng(3)
    ids = [5, 9, 12, 140]
    emb = rng.normal(size=(4, 6))
    adj = np.zeros((4, 4))
    adj[0, 1] = 1.0
    got = cluster_nodes(adj, emb, ids)
    assert len(got) == 2
    assert sorted(i for g in got for i in g) == ids


def test_cluster_nodes_single_member_short_circuits():
    assert cluster_nodes(np.zeros((1, 1)), np.ones((1, 7)), [42]) == [[42]]


def test_cluster_nodes_orders_groups_by_first_row_for_unsorted_ids():
    # Rows 0 and 3 cluster together, as do rows 1 and 2. Groups keep the
    # order of their first row; members are ascending by node id.
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.01, 1.0], [1.0, 0.01]])
    got = cluster_nodes(np.zeros((4, 4)), emb, [30, 20, 10, 40], use_structure=False)
    assert got == [[30, 40], [10, 20]]


def test_cluster_nodes_requires_one_embedding_row_per_node():
    with pytest.raises(ValueError):
        cluster_nodes(np.zeros((2, 2)), np.ones((3, 7)), [0, 1])


def test_similarity_only_grouping_follows_the_embeddings():
    emb = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0], [0.01, 1.0]])
    got = cluster_nodes(np.zeros((4, 4)), emb, [0, 1, 2, 3], use_structure=False)
    assert got == [[0, 1], [2, 3]]


def test_structure_only_grouping_follows_the_components():
    adj = np.zeros((4, 4))
    adj[0, 1] = 1.0
    adj[2, 3] = 1.0
    emb = np.ones((4, 3))
    got = cluster_nodes(adj, emb, [0, 1, 2, 3], use_similarity=False)
    assert got == [[0, 1], [2, 3]]


def test_groups_orders_clusters_by_smallest_member():
    # Rows 0 and 5 merge first and row 1 joins them last, so the merge
    # leaves that cluster's members as [0, 5, 1].
    pts = np.array([[0.0], [0.5], [10.0], [10.2], [20.0], [0.0]])
    assert hierarchical_cluster(pts, 3) == [[0, 1, 5], [2, 3], [4]]


@given(st.integers(0, 10_000), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_cluster_nodes_always_yields_a_full_partition(seed, m):
    rng = np.random.default_rng(seed)
    ids = sorted(int(x) for x in rng.choice(1000, size=m, replace=False))
    emb = rng.normal(size=(m, 7))
    adj = (rng.random((m, m)) < 0.3).astype(float)
    np.fill_diagonal(adj, 0.0)
    got = cluster_nodes(adj, emb, ids)
    assert len(got) == cluster_count(m)
    assert all(g and g == sorted(g) for g in got)
    assert [g[0] for g in got] == sorted(g[0] for g in got)
    assert sorted(i for g in got for i in g) == ids
