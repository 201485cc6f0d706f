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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .errors import InvalidInputError

NOISE = -1


@dataclass(frozen=True)
class DbscanParams:
    epsilon: float = 0.5  # meters
    min_samples: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidInputError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.min_samples < 1:
            raise InvalidInputError("min_samples must be >= 1")


def dbscan(points: np.ndarray, params: DbscanParams = DbscanParams()) -> np.ndarray:
    """Cluster labels per point; noise points get -1."""
    # Imported on first use: csgraph adds about 30 ms and 3 MB to every
    # process start, and the score, select and simulate commands never cluster.
    from scipy.sparse.csgraph import connected_components

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInputError("points must be a 2-D array")
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)

    # Every pair (i, j), i < j, at distance <= epsilon, once.
    pairs = cKDTree(pts).query_pairs(params.epsilon, output_type="ndarray")
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


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by their smallest member index; noise stays -1.

    Two label vectors describe the same partition iff their canonical forms
    are equal, regardless of how cluster ids were assigned.
    """
    labels = np.asarray(labels)
    out = np.full(len(labels), NOISE, dtype=int)
    order: dict[int, int] = {}
    for i, lab in enumerate(labels):
        if lab == NOISE:
            continue
        if lab not in order:
            order[lab] = len(order)
        out[i] = order[lab]
    return out
