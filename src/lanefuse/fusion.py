"""Confidence-driven map selection, fusion, and the map-modification tasks.

Local maps are ranked by average image confidence; the fusion set is the
rank prefix whose averages stay within 10% of the best map. Fusion is two
steps: ``align`` ICP-aligns one selected map onto the modified map's points,
and ``fuse_points`` density-clusters the pooled points (the modified map's
own plus the aligned ones, in the order chosen) and condenses each cluster
back into a polyline. ``fuse_selections`` is the one loop over those steps.
An aligned map depends only on the map and the modified map, so it fuses
several selections of one area aligning each map once; ``fuse_maps`` is
that loop for a single selection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Mapping, Sequence

import numpy as np

from .clustering import DbscanParams, dbscan
from .errors import (
    DegenerateGeometryError,
    EmptyFusionError,
    EmptyInputError,
    InvalidInputError,
    LaneNotFoundError,
)
from .mapmodel import LaneLine, LinkArea, LocalMap, average_confidence, check_lane_points

# apply_transform is unused here but stays importable from this module:
# perfbench/tracing.py wraps the registration entry points where fusion
# looks them up.
from .registration import IcpParams, IcpResult, apply_transform, icp_align  # noqa: F401

BAND_FRACTION = 0.1  # band lower bound sits 10% below the best average
BIN_LENGTH = 1.0  # meters along the cluster axis per emitted polyline point


@dataclass(frozen=True)
class SelectionResult:
    ranked_map_ids: tuple[str, ...]
    selected_map_ids: tuple[str, ...]
    c_best: float
    lower_bound: float

    def __post_init__(self):
        object.__setattr__(self, "ranked_map_ids", tuple(self.ranked_map_ids))
        object.__setattr__(self, "selected_map_ids", tuple(self.selected_map_ids))
        prefix = self.ranked_map_ids[: len(self.selected_map_ids)]
        if prefix != self.selected_map_ids:
            raise InvalidInputError("selected maps must be a prefix of the ranking")


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
    if k_cap is not None and k_cap < 1:
        raise InvalidInputError("k_cap must be >= 1")
    c_best = ranked[0][1]
    lower = c_best - BAND_FRACTION * c_best
    selected = [map_id for map_id, avg in ranked if avg >= lower]
    if k_cap is not None:
        selected = selected[:k_cap]
    return SelectionResult(
        ranked_map_ids=tuple(map_id for map_id, _ in ranked),
        selected_map_ids=tuple(selected),
        c_best=c_best,
        lower_bound=lower,
    )


# --- modification tasks -----------------------------------------------------


def _require_lane(local_map: LocalMap, lane_id: str) -> LaneLine:
    lane = local_map.lane(lane_id)
    if lane is None:
        raise LaneNotFoundError(f"map {local_map.map_id!r} has no lane {lane_id!r}")
    return lane


def modify_shift(local_map: LocalMap, lane_id: str, dx: float, dy: float) -> LocalMap:
    """Replace the named lane with a copy offset by (dx, dy); z is untouched."""
    lane = _require_lane(local_map, lane_id)
    pts = lane.points.copy()
    pts[:, 0] += dx
    pts[:, 1] += dy
    shifted = LaneLine(lane_id=lane_id, points=pts)
    lanes = [shifted if l is lane else l for l in local_map.lane_lines]
    return replace(local_map, lane_lines=lanes)


def modify_delete(local_map: LocalMap, lane_id: str) -> LocalMap:
    """Remove the named lane; every other lane is untouched."""
    _require_lane(local_map, lane_id)
    lanes = [lane for lane in local_map.lane_lines if lane.lane_id != lane_id]
    return replace(local_map, lane_lines=lanes)


def resample_polyline(points: np.ndarray, count: int) -> np.ndarray:
    """Resample to ``count`` points uniformly spaced by arc length.

    Endpoints are preserved exactly.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise InvalidInputError("polyline needs >= 2 points")
    if count < 2:
        raise InvalidInputError("resample count must be >= 2")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], count)
    return np.column_stack([np.interp(targets, s, pts[:, k]) for k in range(pts.shape[1])])


def _unique_lane_id(local_map: LocalMap, base: str) -> str:
    existing = {lane.lane_id for lane in local_map.lane_lines}
    if base not in existing:
        return base
    n = 2
    while f"{base}_{n}" in existing:
        n += 1
    return f"{base}_{n}"


def modify_add(
    local_map: LocalMap, lane_a: str, lane_b: str, offset: float = 0.0
) -> LocalMap:
    """Insert a new lane midway between two existing ones.

    Both parents are resampled by arc length to the larger point count, the
    paired midpoints form the new lane, and ``offset`` displaces it along the
    local perpendicular in the xy-plane (left of the travel direction).
    """
    a = _require_lane(local_map, lane_a)
    b = _require_lane(local_map, lane_b)
    pts_a = a.points_array()
    pts_b = b.points_array()
    count = max(len(pts_a), len(pts_b))
    pts_a = resample_polyline(pts_a, count)
    pts_b = resample_polyline(pts_b, count)
    if offset == 0.0 and float(np.max(np.linalg.norm(pts_a - pts_b, axis=1))) < 1e-9:
        raise DegenerateGeometryError(
            f"lanes {lane_a!r} and {lane_b!r} coincide and offset is 0; "
            "the added lane would duplicate them"
        )
    mid = 0.5 * (pts_a + pts_b)
    if offset != 0.0:
        # Central-difference tangents in the xy-plane, rotated +90 degrees.
        tangents = np.gradient(mid[:, :2], axis=0)
        norms = np.linalg.norm(tangents, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise DegenerateGeometryError("midpoint lane has a zero-length tangent")
        tangents /= norms
        normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
        mid = mid.copy()
        mid[:, :2] += offset * normals
    lane_id = _unique_lane_id(local_map, f"add_{lane_a}_{lane_b}")
    new_lane = LaneLine(lane_id=lane_id, points=mid)
    return replace(local_map, lane_lines=local_map.lane_lines + [new_lane])


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


def cluster_polyline(points: np.ndarray, bin_length: float = BIN_LENGTH) -> np.ndarray:
    """Condense one cluster into a polyline.

    Points are projected onto the cluster's principal axis, grouped into
    fixed-length bins along it, and each non-empty bin contributes its 3D
    centroid, ordered along the axis. Clusters shorter than two bins give
    fewer than two points and should be discarded by the caller.
    """
    pts = np.asarray(points, dtype=float)
    axis = _principal_axis_xy(pts)
    coords = pts[:, :2] @ axis
    bins = np.floor((coords - coords.min()) / bin_length).astype(int)
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

    Returns the map's lane points moved by the fitted transform, pooled in
    lane order into one (n, 3) array, and the ICP result. A map with no lane
    points has nothing to align: its points come back empty and its result
    is None. Moved lanes must still be valid lanes (finite, no two identical
    consecutive points); a lane that is not raises as LaneLine would.
    """
    arrays = [lane.points_array() for lane in local_map.lane_lines]
    if not arrays:
        return np.empty((0, 3)), None
    result = icp_align(np.vstack(arrays), target, iparams)
    moved = [result.transform.apply(pts) for pts in arrays]
    for lane, pts in zip(local_map.lane_lines, moved):
        check_lane_points(lane.lane_id, pts)
    return np.vstack(moved), result


def fuse_points(
    pooled: np.ndarray, modified: LocalMap, dparams: DbscanParams = DbscanParams()
) -> LocalMap:
    """Fuse pooled lane points into the lanes of a new map.

    ``pooled`` holds the modified map's own points followed by the aligned
    points of the selected maps. DBSCAN groups them into lane clusters
    (noise dropped), and each cluster is condensed to a polyline; clusters
    spanning fewer than two bins are dropped.
    """
    if len(pooled) == 0:
        raise EmptyFusionError("no lane points to fuse")
    labels = dbscan(pooled, dparams)
    lanes: list[LaneLine] = []
    for cluster_id in range(int(labels.max()) + 1):
        polyline = cluster_polyline(pooled[labels == cluster_id])
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


def fuse_selections(
    maps: Mapping[Hashable, LocalMap],
    selections: Sequence[Sequence[Hashable]],
    modified: LocalMap,
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
) -> list[LocalMap | None]:
    """Fuse each selection (keys of ``maps`` in pooling order) onto the
    modified map, whose own points are pooled first. Each map is aligned
    once, the first time a selection holds it; an empty selection gives None.
    """
    target = modified.lane_points()
    aligned: dict[Hashable, np.ndarray] = {}
    fused: list[LocalMap | None] = []
    for chosen in selections:
        for key in chosen:
            if key not in aligned:
                aligned[key] = align(maps[key], target, iparams)[0]
        pooled = [target, *(aligned[key] for key in chosen)]
        fused.append(fuse_points(np.vstack(pooled), modified, dparams) if chosen else None)
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
    maps = dict(enumerate(selected))
    return fuse_selections(maps, [list(maps)], modified, dparams, iparams)[0]
