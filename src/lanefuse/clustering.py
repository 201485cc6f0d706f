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

The components come from min-label hooking with pointer jumping (Shiloach &
Vishkin, J. Algorithms 1982), in numpy. Every point starts as its own root.
Each edge hooks the root of its larger end to that of its smaller end,
keeping the smallest candidate (``np.minimum.at``); then every point jumps to
its parent's parent until no pointer moves, so each points at a root. Hook
and jump repeat on the edges whose two ends still have different roots,
until none is left. A pointer only ever moves to a lower index, so a root
is the lowest index of its component; since the graph joins only cores,
that is the component's lowest core index. Numbering the distinct roots in
ascending order, by a running count of the core roots, therefore numbers
the clusters as the scan would.

The labels depend only on the set of neighbour pairs, (i, j) with i < j at
distance <= epsilon, which ``neighbor_pairs`` searches. A caller that holds
the pairs of a larger pool can pass them in: the pairs of the prefix
``points[:n]`` are the pool's pairs with j < n, because whether two points
are neighbours does not depend on the other points. Without ``pairs``,
dbscan searches its own.

``neighbor_pairs`` builds its k-d tree with sliding-midpoint splits and
uncompacted node boxes, which builds and searches faster than scipy's
default. A k-d tree can admit a block of pairs by a bound on their boxes
rather than by each distance, so a pair whose distance lies within rounding
of epsilon could in principle be decided differently by two trees, or by
the tree and a direct distance check. On the fused pools of the standard
and 160 m layouts, seeds 0-63, this tree's pairs are those of the default
tree; tests/test_clustering.py checks them against dense distances on the
pools of standard seeds 0 and 1 and of one 160 m area.
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

    # Sliding-midpoint splits and uncompacted node boxes: the tree builds
    # and searches faster than the default median-split, shrunk-box one.
    tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
    return tree.query_pairs(epsilon, output_type="ndarray")


def _lowest_roots(n: int, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Each of n nodes' component root, the lowest index in its component,
    for the undirected edges (low[e], high[e]) with low[e] < high[e]."""
    root = np.arange(n)
    while len(low):
        np.minimum.at(root, high, low)  # hook: both ends are roots here
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        a, b = root[low], root[high]
        apart = np.flatnonzero(a != b)
        a, b = a[apart], b[apart]
        low, high = np.minimum(a, b), np.maximum(a, b)
    return root


def _checked_pairs(pairs, n: int) -> np.ndarray:
    """``pairs`` as an (m, 2) index array, each row (i, j) with 0 <= i < j < n."""
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidInputError(f"pairs must be an (m, 2) array, got shape {pairs.shape}")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise InvalidInputError(f"pairs must hold integer indices, got dtype {pairs.dtype}")
    if len(pairs):
        first, second = pairs[:, 0], pairs[:, 1]
        if (first >= second).any():
            raise InvalidInputError("pairs must have i < j in every pair (i, j)")
        if first.min() < 0 or second.max() >= n:
            raise InvalidInputError(f"pairs must index the {n} points, from 0 to {n - 1}")
    # The platform's own index type: bincount takes no uint64, and numpy's
    # fast paths (np.minimum.at among them) miss a merely equal dtype, such
    # as an unpickled int64, and run several times slower on it.
    return np.asarray(pairs, dtype=np.intp)


def dbscan(
    points: np.ndarray, params: DbscanParams = DbscanParams(), pairs: np.ndarray | None = None
) -> np.ndarray:
    """Cluster labels per point; noise points get -1.

    ``pairs``, when given, must be ``neighbor_pairs(points, params.epsilon)``
    in any order, or that of a larger pool filtered to this prefix (see the
    module docstring); by default dbscan searches them itself. Each pair
    (i, j) holds integers with 0 <= i < j < len(points) and appears once.
    The first is checked (``InvalidInputError``). The second is not, since
    that takes a sort per call; a repeated pair counts twice towards its
    points' neighbours.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidInputError("points must be a 2-D array")
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)

    pairs = neighbor_pairs(pts, params.epsilon) if pairs is None else _checked_pairs(pairs, n)
    first, second = pairs[:, 0], pairs[:, 1]
    is_core = np.bincount(pairs.ravel(), minlength=n) + 1 >= params.min_samples

    # np.compress takes the pairs of a mask several times faster than a
    # boolean index takes those rows.
    core_first, core_second = is_core[first], is_core[second]
    core_pairs = np.compress(core_first & core_second, pairs, axis=0)
    root = _lowest_roots(n, core_pairs[:, 0], core_pairs[:, 1])

    # Roots are lowest core indices, so their ascending order is the
    # clusters': a cluster's number is the count of core roots below its own.
    rank = np.cumsum(is_core & (root == np.arange(n))) - 1
    labels = np.where(is_core, rank[root], NOISE)

    # Border points: the lowest-ranked cluster among their core neighbors.
    border = np.full(n, n, dtype=int)
    for core_side, edge in ((0, core_first & ~core_second), (1, core_second & ~core_first)):
        touching = np.compress(edge, pairs, axis=0)
        np.minimum.at(border, touching[:, 1 - core_side], labels[touching[:, core_side]])
    reached = border < n
    labels[reached] = border[reached]
    return labels
