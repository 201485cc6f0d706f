"""Map data model and JSON/CSV serialization.

A link area is one road segment: its local maps (lane polylines plus the
image records each map was reconstructed from) and, when available, the
surveyed ground-truth lanes. Coordinates live in a local Cartesian frame in
meters. A lane's geometry is one read-only (n, 3) float64 array, validated
when the lane is built, so every stage works on whole arrays and maps and
threads can share a lane's points. ``Point3`` is input sugar: a lane may be
built from a list of them. The JSON writer keeps full float precision so
save/load round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidInputError,
    LanefuseError,
    MapParseError,
    MapValidationError,
)
from .scoring import DEGRADATION_FACTORS, FACTOR_BY_KEY, FactorKind, ImageAssessment


@dataclass(frozen=True)
class Point3:
    """One checked point; a list of them is accepted wherever lane points are."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidInputError(f"point component {name}={v!r} not finite")
            object.__setattr__(self, name, v)

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y, self.z], dtype=dtype)


def check_lane_points(lane_id: str, points: np.ndarray) -> None:
    """Check an (n, 3) lane array; the one validator of lane geometry.

    Raises, in this order: InvalidInputError for the first non-finite
    component in row-major order, then MapValidationError for fewer than two
    points or for two identical consecutive points.
    """
    bad = np.flatnonzero(~np.isfinite(points))
    if len(bad):
        name = "xyz"[bad[0] % 3]
        value = float(points.flat[bad[0]])
        raise InvalidInputError(f"point component {name}={value!r} not finite")
    if len(points) < 2:
        raise MapValidationError(
            f"lane {lane_id!r} needs >= 2 points, got {len(points)}"
        )
    if np.any(np.all(points[1:] == points[:-1], axis=1)):
        raise MapValidationError(
            f"lane {lane_id!r} has two identical consecutive points"
        )


@dataclass
class LaneLine:
    """An ordered 3D polyline with a stable identifier.

    ``points`` is a read-only (n, 3) float64 copy of the caller's array, rows
    of three numbers, or Point3 objects.
    """

    lane_id: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.size and (pts.ndim != 2 or pts.shape[1] != 3):
            raise InvalidInputError(f"lane {self.lane_id!r} points have shape {pts.shape}")
        pts = pts.reshape(-1, 3)
        check_lane_points(self.lane_id, pts)
        pts.setflags(write=False)
        self.points = pts

    def __eq__(self, other):
        if not isinstance(other, LaneLine):
            return NotImplemented
        return self.lane_id == other.lane_id and np.array_equal(self.points, other.points)

    def points_array(self) -> np.ndarray:
        return self.points


@dataclass
class LocalMap:
    """Lane geometry from one vehicle pass plus its source image records."""

    map_id: str
    link_area_id: str
    lane_lines: list[LaneLine] = field(default_factory=list)
    images: list[ImageAssessment] = field(default_factory=list)

    def __post_init__(self):
        ids = [lane.lane_id for lane in self.lane_lines]
        if len(ids) != len(set(ids)):
            raise MapValidationError(f"map {self.map_id!r} has duplicate lane_ids")

    def lane_points(self) -> np.ndarray:
        """All lane points pooled into one (n, 3) array."""
        arrays = [lane.points_array() for lane in self.lane_lines]
        if not arrays:
            return np.empty((0, 3))
        return np.vstack(arrays)

    def lane(self, lane_id: str) -> LaneLine | None:
        for lane in self.lane_lines:
            if lane.lane_id == lane_id:
                return lane
        return None


@dataclass
class LinkArea:
    """All local maps collected for one road segment, plus optional truth."""

    link_id: str
    local_maps: list[LocalMap] = field(default_factory=list)
    ground_truth: list[LaneLine] | None = None

    def __post_init__(self):
        ids = [m.map_id for m in self.local_maps]
        if len(ids) != len(set(ids)):
            raise MapValidationError(f"link area {self.link_id!r} has duplicate map_ids")


def average_confidence(local_map: LocalMap) -> float:
    """Arithmetic mean of the per-image confidences."""
    values = [img.confidence for img in local_map.images if img.confidence is not None]
    if not values:
        raise EmptyInputError(
            f"map {local_map.map_id!r} has no images with a computed confidence"
        )
    return sum(values) / len(values)


# --- JSON serialization ----------------------------------------------------
#
# One document per link area:
# {
#   "link_id": str,
#   "ground_truth": [ {"lane_id": str, "points": [[x, y, z], ...]}, ... ] | null,
#   "local_maps": [
#     {
#       "map_id": str,
#       "link_area_id": str,
#       "lane_lines": [ ... as ground_truth ... ],
#       "images": [
#         {
#           "image_id": str,
#           "timestamp": float,
#           "factor_scores": {"blur_day": int, ...},   # may be {}
#           "lane_visibility": int | null,
#           "lane_confidence": float | null,
#           "confidence": float | null
#         }, ...
#       ]
#     }, ...
#   ]
# }


def _lane_to_dict(lane: LaneLine) -> dict:
    return {"lane_id": lane.lane_id, "points": lane.points.tolist()}


def _image_to_dict(img: ImageAssessment) -> dict:
    return {
        "image_id": img.image_id,
        "timestamp": img.timestamp,
        "factor_scores": {f.key: s for f, s in img.factor_scores.items()},
        "lane_visibility": img.lane_visibility,
        "lane_confidence": img.lane_confidence,
        "confidence": img.confidence,
    }


def _map_to_dict(local_map: LocalMap) -> dict:
    return {
        "map_id": local_map.map_id,
        "link_area_id": local_map.link_area_id,
        "lane_lines": [_lane_to_dict(l) for l in local_map.lane_lines],
        "images": [_image_to_dict(i) for i in local_map.images],
    }


def area_to_dict(area: LinkArea) -> dict:
    return {
        "link_id": area.link_id,
        "ground_truth": (
            None
            if area.ground_truth is None
            else [_lane_to_dict(l) for l in area.ground_truth]
        ),
        "local_maps": [_map_to_dict(m) for m in area.local_maps],
    }


class _Ctx:
    """Tracks the field path for error messages.

    Malformed structure raises MapParseError; a well-formed file whose
    contents break a data invariant raises MapValidationError.
    """

    def __init__(self, source: str):
        self.source = source
        self.path: list[str] = []

    def _where(self) -> str:
        return "/".join(self.path) or "<root>"

    def fail(self, message: str):
        raise MapParseError(f"{self.source}: at {self._where()}: {message}")

    def invalid(self, message: str):
        raise MapValidationError(f"{self.source}: at {self._where()}: {message}")


def _need(ctx: _Ctx, obj: dict, key: str):
    if not isinstance(obj, dict) or key not in obj:
        ctx.fail(f"missing field {key!r}")
    return obj[key]


def _lane_from_dict(ctx: _Ctx, data: dict) -> LaneLine:
    lane_id = str(_need(ctx, data, "lane_id"))
    raw_points = _need(ctx, data, "points")
    if not isinstance(raw_points, list):
        ctx.fail("'points' must be a list")
    try:
        return LaneLine(lane_id=lane_id, points=np.array(raw_points, dtype=float))
    except MapValidationError as exc:
        ctx.invalid(str(exc))
    except (TypeError, ValueError, InvalidInputError):
        # Not finite numbers in rows of three (a null reads as NaN above):
        # raise the first bad row's error, reading its parts as Point3 does.
        for i, row in enumerate(raw_points):
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                ctx.fail(f"point {i} of lane {lane_id!r} must be [x, y, z]")
            try:
                Point3(*row)
            except InvalidInputError as exc:
                ctx.invalid(f"point {i} of lane {lane_id!r}: {exc}")
            except (TypeError, ValueError):
                ctx.fail(f"point {i} of lane {lane_id!r} has non-numeric parts")
        raise


def _image_from_dict(ctx: _Ctx, data: dict) -> ImageAssessment:
    image_id = str(_need(ctx, data, "image_id"))
    raw_scores = data.get("factor_scores") or {}
    scores: dict[FactorKind, int] = {}
    for key, value in raw_scores.items():
        factor = FACTOR_BY_KEY.get(key)
        if factor is None or factor is FactorKind.LANE_VISIBILITY:
            ctx.fail(f"image {image_id!r}: unknown factor {key!r}")
        scores[factor] = value
    try:
        return ImageAssessment(
            image_id=image_id,
            timestamp=float(data.get("timestamp", 0.0)),
            factor_scores=scores,
            lane_visibility=data.get("lane_visibility"),
            lane_confidence=data.get("lane_confidence"),
            confidence=data.get("confidence"),
        )
    except InvalidInputError as exc:
        ctx.invalid(f"image {image_id!r}: {exc}")
    except (TypeError, ValueError):
        ctx.fail(f"image {image_id!r} has non-numeric fields")


def _map_from_dict(ctx: _Ctx, data: dict, *, require_images: bool) -> LocalMap:
    map_id = str(_need(ctx, data, "map_id"))
    ctx.path.append(f"map[{map_id}]")
    lanes = [_lane_from_dict(ctx, l) for l in _need(ctx, data, "lane_lines")]
    images = [_image_from_dict(ctx, i) for i in data.get("images", [])]
    if require_images and not images:
        ctx.invalid("local map has no image records")
    try:
        local_map = LocalMap(
            map_id=map_id,
            link_area_id=str(data.get("link_area_id", "")),
            lane_lines=lanes,
            images=images,
        )
    except MapValidationError as exc:
        ctx.invalid(str(exc))
    ctx.path.pop()
    return local_map


def area_from_dict(data: dict, *, source: str = "<dict>") -> LinkArea:
    ctx = _Ctx(source)
    link_id = str(_need(ctx, data, "link_id"))
    truth = data.get("ground_truth")
    truth_lanes = None
    if truth is not None:
        ctx.path.append("ground_truth")
        truth_lanes = [_lane_from_dict(ctx, l) for l in truth]
        ctx.path.pop()
    maps = [
        _map_from_dict(ctx, m, require_images=True)
        for m in _need(ctx, data, "local_maps")
    ]
    try:
        return LinkArea(link_id=link_id, local_maps=maps, ground_truth=truth_lanes)
    except MapValidationError as exc:
        ctx.invalid(str(exc))


@contextlib.contextmanager
def atomic_writer(path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text file that appears at ``path`` only once fully written.

    The text goes to ``<name>.tmp`` beside ``path``, which is renamed over
    ``path`` when the block ends without an error. ``newline`` is passed to
    ``open`` (csv writers want ``""``).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
        yield fh
    tmp.replace(path)


def _dump_json(payload: dict, path) -> None:
    with atomic_writer(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def save_link_area(area: LinkArea, path) -> None:
    _dump_json(area_to_dict(area), path)


def load_json(path, error: type[LanefuseError] = MapParseError):
    """Parse a UTF-8 JSON file; a missing, unreadable or malformed file
    (a directory, bytes that are not UTF-8, bad syntax) raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read: {exc}")


def load_link_area(path) -> LinkArea:
    return area_from_dict(load_json(path), source=str(path))


def save_local_map(local_map: LocalMap, path) -> None:
    """Write a standalone map document (e.g. a fused map, which has no images)."""
    _dump_json(_map_to_dict(local_map), path)


def load_local_map(path) -> LocalMap:
    return _map_from_dict(_Ctx(str(path)), load_json(path), require_images=False)


# --- scores CSV ------------------------------------------------------------

SCORES_CSV_COLUMNS = (
    ["image_id"]
    + [f.key for f in DEGRADATION_FACTORS]
    + ["lane_visibility", "lane_confidence", "confidence"]
)


def write_scores_csv(images: Sequence[ImageAssessment], path) -> None:
    """Export image scores, one row per image, floats at 6 decimals."""
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_CSV_COLUMNS)
        for img in images:
            row = [img.image_id]
            row += [img.score_for(f) for f in DEGRADATION_FACTORS]
            row.append("" if img.lane_visibility is None else img.lane_visibility)
            row.append("" if img.lane_confidence is None else f"{img.lane_confidence:.6f}")
            row.append("" if img.confidence is None else f"{img.confidence:.6f}")
            writer.writerow(row)
