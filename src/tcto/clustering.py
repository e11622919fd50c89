"""Grouping roadmap nodes for group-wise feature crossing.

Structure (the directed adjacency) and similarity (cosine over node
embeddings) are fused into one Laplacian; its bottom eigenvectors give a
spectral embedding that an average-linkage agglomerative pass partitions
into k = max(2, round(sqrt(m))) clusters. The result is the list of those
clusters as groups of node ids, so the number of clusters is its length.
"""

from __future__ import annotations

import math

import numpy as np

_SIGN_EPS = 1e-12


def cluster_count(m: int) -> int:
    if m < 1:
        raise ValueError("need at least one member to cluster")
    if m == 1:
        return 1
    return max(2, int(math.floor(math.sqrt(m) + 0.5)))


def cosine_similarity_matrix(rows) -> np.ndarray:
    """Pairwise cosine similarity; zero vectors get zero similarity."""
    x = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = x / safe[:, None]
    sim = unit @ unit.T
    sim[norms == 0.0, :] = 0.0
    sim[:, norms == 0.0] = 0.0
    return sim


def enhanced_laplacian(adjacency, similarity) -> np.ndarray:
    """S = D - (A_sym + similarity), D the row-sum degree of the fused graph.

    The directed adjacency is symmetrized with an elementwise maximum first,
    so S has exact zero row sums.
    """
    a = np.asarray(adjacency, dtype=float)
    w = np.asarray(similarity, dtype=float)
    if a.shape != w.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency and similarity must be equal square matrices")
    fused = np.maximum(a, a.T) + w
    return np.diag(fused.sum(axis=1)) - fused


def spectral_embed(laplacian, dims: int) -> np.ndarray:
    """Rows = eigenvectors of the `dims` smallest eigenvalues, sign-fixed.

    Each eigenvector column is flipped so its first entry of magnitude above
    1e-12 is positive, making the embedding reproducible across runs.
    """
    s = np.asarray(laplacian, dtype=float)
    m = s.shape[0]
    if not 1 <= dims <= m:
        raise ValueError(f"dims must lie in [1, {m}], got {dims}")
    _, vecs = np.linalg.eigh((s + s.T) / 2.0)
    emb = vecs[:, :dims].copy()
    for j in range(dims):
        col = emb[:, j]
        nz = np.flatnonzero(np.abs(col) > _SIGN_EPS)
        if nz.size and col[nz[0]] < 0.0:
            emb[:, j] = -col
    return emb


def hierarchical_cluster(rows, k: int) -> list:
    """Average-linkage agglomerative clustering down to k clusters.

    Euclidean distances; merge ties resolve toward the pair with the lower
    smallest member ids. Returns k groups of row indices, each ascending,
    ordered by their smallest row.
    """
    x = np.asarray(rows, dtype=float)
    m = x.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
    if not np.all(np.isfinite(dist)):
        raise ValueError("clustering input is non-finite or too large to measure")
    active = np.ones(m, dtype=bool)
    size = np.ones(m)
    members = [[i] for i in range(m)]
    np.fill_diagonal(dist, np.inf)

    # Rows and columns of merged-away clusters are set to inf, so the
    # minimum over dist is the minimum over active pairs. A merge keeps the
    # lower row, so each active row is its cluster's smallest member, and
    # dist stays symmetric: the first minimum in row-major order is the
    # tied pair (i, j), i < j, with the lowest member ids.
    for _ in range(m - k):
        i, j = divmod(int(dist.argmin()), m)
        # Lance-Williams update keeps cluster distances equal to the mean
        # of the underlying pairwise point distances
        merged = (size[i] * dist[i] + size[j] * dist[j]) / (size[i] + size[j])
        dist[i] = merged
        dist[:, i] = merged
        dist[i, i] = np.inf
        active[j] = False
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        size[i] += size[j]
        members[i].extend(members[j])

    return [sorted(members[i]) for i in range(m) if active[i]]


def cluster_nodes(
    adjacency, embeddings, node_ids, *, use_structure: bool = True, use_similarity: bool = True
) -> list:
    """Cluster roadmap nodes given their adjacency and embedding rows.

    node_ids maps row position to node id. Returns the clusters as lists of
    node ids, each ascending; clusters are ordered by their first row
    position, which for ascending node_ids is their smallest id. Either
    signal can be switched off for ablations, zeroing its matrix before the
    Laplacian is formed.
    """
    ids = list(node_ids)
    m = len(ids)
    emb = np.asarray(embeddings, dtype=float)
    if emb.shape[0] != m:
        raise ValueError("one embedding row per node is required")
    if m == 1:
        return [ids]
    k = cluster_count(m)
    a = np.asarray(adjacency, dtype=float) if use_structure else np.zeros((m, m))
    sim = cosine_similarity_matrix(emb) if use_similarity else np.zeros((m, m))
    lap = enhanced_laplacian(a, sim)
    rows = spectral_embed(lap, dims=k)
    return [sorted(ids[r] for r in group) for group in hierarchical_cluster(rows, k)]
