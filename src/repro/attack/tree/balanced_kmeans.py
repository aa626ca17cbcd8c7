"""Balanced k-means (paper Section 4.3.1).

The hierarchical clustering tree must be *balanced* — an unbalanced tree
could degenerate into a linked list of policy networks.  The paper's
recipe: run ordinary k-means [Lloyd, 1982] for the centroids, then
*"reassign the users to these c centroids one at a time based on their
Euclidean distance to ensure we have a balanced set of clusters (in terms
of their size)"* — clusters end up equal-sized, off by at most one.

We implement exactly that: Lloyd iterations for centroids, then a greedy
global reassignment in ascending point-to-centroid distance order with
per-cluster capacity caps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng

__all__ = ["kmeans", "balanced_assignment", "balanced_kmeans"]


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    n_iter: int = 25,
) -> np.ndarray:
    """Plain Lloyd's k-means; returns the ``(n_clusters, dim)`` centroids.

    Initialisation is k-means++ style (distance-weighted seeding); empty
    clusters are re-seeded from the farthest points.
    """
    n, _ = points.shape
    if not 1 <= n_clusters <= n:
        raise ConfigurationError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    # k-means++ seeding.  ``d2`` is each point's squared distance to its
    # nearest chosen centroid, kept up to date with one O(n) minimum per
    # new centroid instead of recomputing against all of them.
    centroids = [points[rng.integers(n)]]
    d2 = ((points - centroids[0]) ** 2).sum(-1)
    for _ in range(n_clusters - 1):
        total = d2.sum()
        if total <= 0:
            centroids.append(points[rng.integers(n)])
        else:
            centroids.append(points[rng.choice(n, p=d2 / total)])
        d2 = np.minimum(d2, ((points - centroids[-1]) ** 2).sum(-1))
    centers = np.asarray(centroids, dtype=np.float64)

    for _ in range(n_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(n_clusters):
            members = points[labels == c]
            if members.size:
                new_centers[c] = members.mean(axis=0)
            else:
                new_centers[c] = points[d2.min(axis=1).argmax()]
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return centers


def balanced_assignment(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Assign points to centroids under equal-size capacity constraints.

    Capacities are ``ceil(n / c)`` for the first ``n mod c`` clusters and
    ``floor(n / c)`` for the rest, so sizes differ by at most one.  Pairs
    are processed globally in ascending distance order (greedy transport),
    which matches the paper's one-at-a-time Euclidean reassignment.
    """
    n = points.shape[0]
    c = centers.shape[0]
    base, extra = divmod(n, c)
    capacity = np.full(c, base, dtype=np.int64)
    capacity[:extra] += 1

    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    order = np.argsort(d2, axis=None, kind="stable")
    labels = np.full(n, -1, dtype=np.int64)
    assigned = 0
    for flat in order:
        point, cluster = divmod(int(flat), c)
        if labels[point] != -1 or capacity[cluster] == 0:
            continue
        labels[point] = cluster
        capacity[cluster] -= 1
        assigned += 1
        if assigned == n:
            break
    return labels


def balanced_kmeans(
    points: np.ndarray,
    n_clusters: int,
    seed: int | np.random.Generator | None = None,
    n_iter: int = 25,
) -> np.ndarray:
    """Equal-size k-means labels for ``points`` (sizes off by at most one)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ConfigurationError("points must be a 2-D array")
    rng = make_rng(seed)
    if n_clusters == 1:
        return np.zeros(points.shape[0], dtype=np.int64)
    centers = kmeans(points, n_clusters, rng, n_iter=n_iter)
    return balanced_assignment(points, centers)
