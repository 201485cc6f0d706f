"""Confidence-driven map selection and fusion.

Local maps are ranked by average image confidence; the fusion set is the
rank prefix whose averages stay within 10% of the best map. Fusion is two
steps: ``align`` ICP-aligns one selected map onto the modified map's points,
and ``fuse_points`` density-clusters the pooled points (the modified map's
own plus the aligned ones, in the order given) and condenses each cluster
back into a polyline. ``fuse_prefixes`` is the one loop over those steps: it
fuses the first k maps of one pooling order for each count k, aligning each
map once. The pools are then prefixes of the largest, so DBSCAN's neighbour
pairs are searched once, on the largest pool; a pool of n points clusters
with the pairs whose points both lie among its first n, which are the pairs
of its own pool (see ``lanefuse.clustering``). ``fuse_maps`` is that loop
for a single list of maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DbscanParams, dbscan, neighbor_pairs
from .errors import EmptyFusionError, EmptyInputError, InvalidInputError
from .mapmodel import LaneLine, LinkArea, LocalMap, average_confidence
from .registration import IcpParams, IcpResult, apply_transform, icp_align
from .scoring import bounded_number

BAND_FRACTION = 0.1  # band lower bound sits 10% below the best average
BIN_LENGTH = 1.0  # meters along the cluster axis per emitted polyline point


@dataclass(frozen=True)
class SelectionResult:
    selected_map_ids: tuple[str, ...]
    c_best: float
    lower_bound: float


def rank_maps(area: LinkArea) -> list[tuple[str, float]]:
    """(map_id, average confidence) sorted best-first; ties by map_id."""
    if not area.local_maps:
        raise EmptyInputError(f"link area {area.link_id!r} has no local maps")
    scored = [(m.map_id, average_confidence(m)) for m in area.local_maps]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def select_band(
    ranked: list[tuple[str, float]], k_cap: int | None = None
) -> SelectionResult:
    """Keep the maps whose average sits within 10% of the best one.

    The best map always survives; k_cap (when given) truncates the band to
    the top k entries.
    """
    if not ranked:
        raise EmptyInputError("cannot select from an empty ranking")
    if k_cap is not None:
        k_cap = bounded_number(k_cap, "k_cap", 1)
    c_best = ranked[0][1]
    lower = c_best - BAND_FRACTION * c_best
    selected = tuple(map_id for map_id, avg in ranked if avg >= lower)[:k_cap]
    return SelectionResult(selected_map_ids=selected, c_best=c_best, lower_bound=lower)


# --- fusion -----------------------------------------------------------------


def _principal_axis_xy(points: np.ndarray) -> np.ndarray:
    """Dominant direction of a point cluster in the xy-plane, sign-fixed."""
    xy = points[:, :2] - points[:, :2].mean(axis=0)
    cov = xy.T @ xy
    eigvals, eigvecs = np.linalg.eigh(cov)
    axis = eigvecs[:, int(np.argmax(eigvals))]
    if axis[0] < 0 or (axis[0] == 0 and axis[1] < 0):
        axis = -axis
    return axis


def cluster_polyline(points: np.ndarray) -> np.ndarray:
    """Condense one cluster into a polyline.

    Points are projected onto the cluster's principal axis, grouped into
    ``BIN_LENGTH`` bins along it, and each non-empty bin contributes its 3D
    centroid, ordered along the axis. Clusters shorter than two bins give
    fewer than two points and should be discarded by the caller.
    """
    pts = np.asarray(points, dtype=float)
    axis = _principal_axis_xy(pts)
    coords = pts[:, :2] @ axis
    bins = np.floor((coords - coords.min()) / BIN_LENGTH).astype(int)
    # bincount adds each bin's points in index order, as a masked mean does,
    # so the centroids are bit-identical to pts[bins == b].mean(axis=0).
    counts = np.bincount(bins)
    sums = np.column_stack(
        [np.bincount(bins, weights=pts[:, k]) for k in range(pts.shape[1])]
    )
    filled = counts > 0
    return sums[filled] / counts[filled, None]


def align(
    local_map: LocalMap, target: np.ndarray, iparams: IcpParams = IcpParams()
) -> tuple[np.ndarray, IcpResult | None]:
    """ICP-align one map onto the target points.

    Returns the map's lane points moved by the fitted transform through
    ``apply_transform``, pooled in lane order into one (n, 3) array, and the
    ICP result. A map with no lane points has nothing to align: its points
    come back empty and its result is None. A moved lane that is no longer a
    valid lane (non-finite, two identical consecutive points) raises as
    LaneLine does.
    """
    source = local_map.lane_points()
    if not len(source):
        return source, None
    result = icp_align(source, target, iparams)
    return apply_transform(result.transform, local_map).lane_points(), result


def fuse_points(
    pooled: np.ndarray,
    modified: LocalMap,
    dparams: DbscanParams = DbscanParams(),
    pairs: np.ndarray | None = None,
) -> LocalMap:
    """Fuse pooled lane points into the lanes of a new map.

    ``pooled`` holds the modified map's own points followed by the aligned
    points of the selected maps. DBSCAN groups them into lane clusters
    (noise dropped), and each cluster is condensed to a polyline; clusters
    spanning fewer than two bins are dropped. ``pairs``, when given, are the
    pool's neighbour pairs (see ``clustering.dbscan``).
    """
    if len(pooled) == 0:
        raise EmptyFusionError("no lane points to fuse")
    labels = dbscan(pooled, dparams, pairs=pairs)
    # A stable sort keeps each cluster's points in pool order; noise (-1)
    # sorts first and is dropped.
    by_label = pooled[np.argsort(labels, kind="stable")]
    ends = np.cumsum(np.bincount(labels + 1))
    lanes: list[LaneLine] = []
    for members in np.split(by_label, ends[:-1])[1:]:
        polyline = cluster_polyline(members)
        if len(polyline) < 2:
            continue
        lanes.append(LaneLine(lane_id=f"fused_{len(lanes):03d}", points=polyline))
    if not lanes:
        raise EmptyFusionError("clustering left no lane-sized groups")
    return LocalMap(
        map_id=f"fused_{modified.map_id}",
        link_area_id=modified.link_area_id,
        lane_lines=lanes,
        images=[],
    )


def fuse_prefixes(
    maps: Sequence[LocalMap],
    counts: Sequence[int],
    modified: LocalMap,
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
) -> list[LocalMap | None]:
    """For each count k, fuse the first k maps onto the modified map, whose
    own points are pooled first; k = 0 gives None. Only the first max(counts)
    maps are aligned, each once and all before any fusion, and the neighbour
    pairs are searched once, on the largest pool (see the module docstring).
    """
    counts = [bounded_number(k, "count", 0) for k in counts]
    if any(k > len(maps) for k in counts):
        raise InvalidInputError(f"counts {counts} exceed the {len(maps)} maps")
    target = modified.lane_points()
    pools = [target, *(align(m, target, iparams)[0] for m in maps[: max(counts, default=0)])]
    ends = np.cumsum([len(pool) for pool in pools])
    union = np.vstack(pools)
    pairs = neighbor_pairs(union, dparams.epsilon) if len(pools) > 1 else None
    fused: list[LocalMap | None] = []
    for k, n in zip(counts, ends[counts]):
        # i < j, so a pair lies among the first n points when j does. np.compress
        # takes those rows several times faster than a boolean index.
        own = pairs if n == len(union) else np.compress(pairs[:, 1] < n, pairs, axis=0)
        fused.append(fuse_points(union[:n], modified, dparams, own) if k else None)
    return fused


def fuse_maps(
    selected: list[LocalMap],
    modified: LocalMap,
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
) -> LocalMap:
    """Align the selected maps onto the modified map and fuse the geometry."""
    if not selected:
        raise EmptyInputError("fusion needs at least one selected map")
    return fuse_prefixes(selected, [len(selected)], modified, dparams, iparams)[0]
