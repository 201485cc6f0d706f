"""Density-based clustering used to fuse pooled lane points.

Standard DBSCAN: a core point has at least min_samples neighbors within
epsilon (itself included); clusters are the maximal density-connected sets;
everything else is noise (label -1).

The clusters are the connected components of the graph whose nodes are the
core points and whose edges join two cores within epsilon. They are numbered
by their lowest core index, which is the order in which a scan over the
points in ascending index order would found them. A border point (not core,
but within epsilon of a core) can touch several clusters; it joins the
lowest-numbered one, the cluster that scan would have reached it from first
(Ester et al., KDD 1996; Schubert et al., ACM TODS 2017). Labels are
therefore deterministic for a given point ordering.

The labels depend only on the set of neighbour pairs, (i, j) with i < j at
distance <= epsilon, which ``neighbor_pairs`` searches. A caller that holds
the pairs of a larger pool can pass them in: the pairs of the prefix
``points[:n]`` are the pool's pairs with j < n, because whether two points
are neighbours does not depend on the other points. (The k-d tree can admit
a block of pairs by a bound on their boxes rather than by each distance, so
a pair whose distance lies within rounding of epsilon could in principle be
decided differently by two trees; no recorded benchmark output moves.)
Without ``pairs``, dbscan searches its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .scoring import bounded_number

NOISE = -1


@dataclass(frozen=True)
class DbscanParams:
    epsilon: float = 0.5  # meters
    min_samples: int = 4

    def __post_init__(self):
        epsilon = bounded_number(self.epsilon, "epsilon", 0.0, exclusive=True)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "min_samples", bounded_number(self.min_samples, "min_samples", 1))


def neighbor_pairs(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Every pair (i, j), i < j, of points at distance <= epsilon, once, as
    an (m, 2) integer array."""
    # scipy is imported on first use here and in every other lanefuse module:
    # at import time it would add about 0.35 s and 35 MB to every process
    # start, and only the update and evaluate stages (ICP, DBSCAN, AME) use it.
    from scipy.spatial import cKDTree

    return cKDTree(points).query_pairs(epsilon, output_type="ndarray")


def dbscan(
    points: np.ndarray, params: DbscanParams = DbscanParams(), pairs: np.ndarray | None = None
) -> np.ndarray:
    """Cluster labels per point; noise points get -1.

    ``pairs``, when given, must be ``neighbor_pairs(points, params.epsilon)``
    in any order, or that of a larger pool filtered to this prefix (see the
    module docstring); by default dbscan searches them itself.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInputError("points must be a 2-D array")
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)

    pairs = neighbor_pairs(pts, params.epsilon) if pairs is None else np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidInputError(f"pairs must be an (m, 2) array, got shape {pairs.shape}")
    first, second = pairs[:, 0], pairs[:, 1]
    is_core = np.bincount(pairs.ravel(), minlength=n) + 1 >= params.min_samples

    both = is_core[first] & is_core[second]
    graph = coo_matrix(
        (np.ones(int(both.sum()), dtype=np.int8), (first[both], second[both])),
        shape=(n, n),
    )
    _, component = connected_components(graph, directed=False)

    labels = np.full(n, NOISE, dtype=int)
    cores = np.flatnonzero(is_core)
    # np.unique gives each core component's first (= lowest) core index;
    # ranking the components by it numbers the clusters.
    _, lowest_core, per_core = np.unique(
        component[cores], return_index=True, return_inverse=True
    )
    rank = np.empty(len(lowest_core), dtype=int)
    rank[np.argsort(lowest_core)] = np.arange(len(lowest_core))
    labels[cores] = rank[per_core]

    # Border points: the lowest-ranked cluster among their core neighbors.
    border = np.full(n, n, dtype=int)
    for core_side, other in ((first, second), (second, first)):
        edge = is_core[core_side] & ~is_core[other]
        np.minimum.at(border, other[edge], labels[core_side[edge]])
    reached = border < n
    labels[reached] = border[reached]
    return labels
