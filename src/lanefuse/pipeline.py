"""The map-update path, shared by the CLI's ``update`` and ``evaluate_area``.

A modification script is a JSON list of ``shift``, ``delete`` and ``add``
operations, carried out by ``modify_shift``, ``modify_delete`` and
``modify_add``. ``load_modifications`` parses one into ``Modification``s,
``apply_modifications`` applies it, and ``prior_map`` builds the prior map.
``update`` is the one update step behind both callers. It applies a script
to the prior map and to the maps it fuses, then fuses the first k maps of
one pooling order onto the modified prior for each count k: the ``update``
command pools its band maps in area-file order, ``evaluate`` each policy's
maps in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .clustering import DbscanParams
from .errors import (
    DegenerateGeometryError,
    EmptyInputError,
    InvalidInputError,
    LaneNotFoundError,
    LanefuseError,
)
from .fusion import fuse_prefixes
from .mapmodel import LaneLine, LinkArea, LocalMap, load_json, reject_unknown_keys
from .registration import IcpParams
from .scoring import bounded_number, finite_number

PRIOR_MAP_SPACING = 2.0  # meters between control points of the prior map


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
    pts_a = a.points
    pts_b = b.points
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


# Each operation's function and its fields (its parameters) with their kinds.
_OPS = {
    "shift": (modify_shift, {"lane_id": str, "dx": float, "dy": float}),
    "delete": (modify_delete, {"lane_id": str}),
    "add": (modify_add, {"lane_a": str, "lane_b": str, "offset": float}),
}


@dataclass(frozen=True)
class Modification:
    """One operation, the one check of its values: the op, then that op's
    fields, each lane id a string (None, the default, is a fault) and each
    number finite; a fault is an InvalidInputError naming the field."""

    op: str
    lane_id: str | None = None
    lane_a: str | None = None
    lane_b: str | None = None
    dx: float = 0.0
    dy: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in _OPS:
            raise InvalidInputError(f"unknown op {self.op!r}")
        for name, kind in _OPS[self.op][1].items():
            value = getattr(self, name)
            if kind is float:
                object.__setattr__(self, name, finite_number(value, name))
            elif not isinstance(value, str):
                raise InvalidInputError(f"{name} must be a string, got {value!r}")


def load_modifications(path: Path) -> list[Modification]:
    """Parse a modification script: a list of objects, each a known op and
    that op's keys, whose values Modification checks. Any fault raises
    LanefuseError naming the operation's index and the key."""
    raw = load_json(path, LanefuseError)
    if not isinstance(raw, list):
        raise LanefuseError(f"{path}: script must be a JSON list of operations")
    mods = []
    for index, entry in enumerate(raw):
        where = f"{path}: operation {index}"
        if not isinstance(entry, dict):
            raise LanefuseError(f"{where} must be a JSON object")
        op = entry.get("op")
        if not isinstance(op, str) or op not in _OPS:
            raise LanefuseError(f"{where}: unknown op {op!r}")
        reject_unknown_keys(entry, ("op", *_OPS[op][1]), where, LanefuseError)
        try:
            mods.append(Modification(**entry))
        except InvalidInputError as exc:
            raise LanefuseError(f"{where}: {exc}")
    return mods


def apply_modifications(local_map: LocalMap, mods: Sequence[Modification]) -> LocalMap:
    for mod in mods:
        modify, fields = _OPS[mod.op]
        local_map = modify(local_map, **{name: getattr(mod, name) for name in fields})
    return local_map


def prior_map(truth: Sequence[LaneLine], link_id: str) -> LocalMap:
    """The prior HD map: exact truth geometry at control-point spacing."""
    lanes = []
    for lane in truth:
        pts = lane.points
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        count = max(2, int(round(seg / PRIOR_MAP_SPACING)) + 1)
        lanes.append(LaneLine(lane.lane_id, resample_polyline(pts, count)))
    return LocalMap(
        map_id=f"{link_id}_prior",
        link_area_id=link_id,
        lane_lines=lanes,
        images=[],
    )


def update(
    area: LinkArea,
    mods: Sequence[Modification],
    order: Sequence[str],
    counts: Sequence[int],
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
) -> list[LocalMap | None]:
    """Apply ``mods`` to the area's prior map and to the first ``max(counts)``
    maps of ``order`` (map ids), the ones fused, then fuse the first k maps
    of ``order`` onto the modified prior for each count k; k = 0 gives None
    (see ``fusion.fuse_prefixes``). An id in ``order`` that the area lacks,
    or that repeats, is an InvalidInputError."""
    if area.ground_truth is None:
        raise EmptyInputError(f"link area {area.link_id!r} carries no ground truth to modify")
    by_id = {m.map_id: m for m in area.local_maps}
    for index, map_id in enumerate(order):
        if map_id not in by_id or map_id in order[:index]:
            fault = "repeats in the order" if map_id in by_id else "is not in the area"
            raise InvalidInputError(f"link area {area.link_id!r}: map {map_id!r} {fault}")
    prior = apply_modifications(prior_map(area.ground_truth, area.link_id), mods)
    counts = [bounded_number(k, "count", 0) for k in counts]
    fused = [apply_modifications(by_id[m], mods) for m in order[: max(counts, default=0)]]
    return fuse_prefixes(fused, counts, prior, dparams, iparams)
