"""Map data model and JSON/CSV serialization.

A link area is one road segment: its local maps (lane polylines plus the
image records each map was reconstructed from) and, when available, the
surveyed ground-truth lanes. Coordinates live in a local Cartesian frame in
meters. A lane's geometry is one read-only (n, 3) float64 array, validated
when the lane is built, so every stage works on whole arrays and maps and
threads can share a lane's points. ``Point3`` is input sugar: a lane may be
built from a list of them. The JSON writer keeps full float precision so
save/load round-trips are bit-exact.

The JSON readers check a document's shape and say where a fault is; the
records they build (``LaneLine``, ``ImageAssessment``) check the values. A
lane coordinate follows the number rule of every number in an area file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    InvalidInputError,
    LanefuseError,
    MapParseError,
    MapValidationError,
)
from .scoring import DEGRADATION_FACTORS, FACTOR_BY_KEY, FactorKind, ImageAssessment


def _as_float(value) -> float:
    """``float(value)``, reading an int beyond the float range as an infinity
    of its sign, so that it fails as a non-finite component."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class Point3:
    """One checked point; a list of them is accepted wherever lane points are."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise InvalidInputError(f"point component {name} must be a number, got {v!r}")
            v = _as_float(v)
            if not math.isfinite(v):
                raise InvalidInputError(f"point component {name}={v!r} not finite")
            object.__setattr__(self, name, v)

    def __array__(self, dtype=None, copy=None):
        return np.array([self.x, self.y, self.z], dtype=dtype)


@dataclass
class LaneLine:
    """An ordered 3D polyline with a stable identifier.

    ``points`` is a read-only (n, 3) float64 copy of the caller's array, rows
    of three numbers, or Point3 objects. Building a lane is the one check of
    lane geometry. It raises, in this order: InvalidInputError for the first
    non-finite component in row-major order, naming the point, then
    MapValidationError for fewer than two points or for two identical
    consecutive points.
    """

    lane_id: str
    points: np.ndarray

    def __post_init__(self):
        try:
            pts = np.array(self.points, dtype=float)
        except OverflowError:
            pts = np.array([[_as_float(v) for v in row] for row in self.points])
        if pts.size and (pts.ndim != 2 or pts.shape[1] != 3):
            raise InvalidInputError(f"lane {self.lane_id!r} points have shape {pts.shape}")
        pts = pts.reshape(-1, 3)
        bad = np.flatnonzero(~np.isfinite(pts))
        if len(bad):
            row, col = divmod(int(bad[0]), 3)
            raise InvalidInputError(
                f"point {row} of lane {self.lane_id!r}: "
                f"point component {'xyz'[col]}={float(pts[row, col])!r} not finite"
            )
        if len(pts) < 2:
            raise MapValidationError(f"lane {self.lane_id!r} needs >= 2 points, got {len(pts)}")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise MapValidationError(f"lane {self.lane_id!r} has two identical consecutive points")
        pts.setflags(write=False)
        self.points = pts

    def __eq__(self, other):
        if not isinstance(other, LaneLine):
            return NotImplemented
        return self.lane_id == other.lane_id and np.array_equal(self.points, other.points)

    def points_array(self) -> np.ndarray:
        """``points``, kept because perfbench/tracing.py wraps it; ROADMAP item 11
        removes it together with that span of the benchmark."""
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
        arrays = [lane.points for lane in self.lane_lines]
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
# One document per link area, one object per record, each with exactly the
# record's fields; README "File formats" gives the shape and each field's type.


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


# The readers pass down ``where``, the place an error names: "{source}: at
# <root>", "at map[ID]" or "at ground_truth". Malformed structure raises
# MapParseError; contents that break a data invariant, MapValidationError.

_JSON_NUMBERS = {int, float}  # the types json.load gives a number


def _of_kind(where: str, value, key: str, kind: type):
    if not isinstance(value, kind):
        kind_name = "a string" if kind is str else "a list"
        raise MapValidationError(f"{where}: {key!r} must be {kind_name}, got {value!r}")
    return value


def _need(where: str, obj: dict, key: str, kind: type = object):
    if not isinstance(obj, dict) or key not in obj:
        raise MapParseError(f"{where}: missing field {key!r}")
    return _of_kind(where, obj[key], key, kind)


def _reject_unknown(data: dict, record: type, where: str) -> None:
    """Reject a key that is not a field of ``record``, which the writers emit."""
    reject_unknown_keys(data, (f.name for f in fields(record)), where, MapParseError)


def _build(where: str, record: type, **values):
    """``record(**values)``; a fault its own checks find is a MapValidationError
    naming ``where``."""
    try:
        return record(**values)
    except (InvalidInputError, MapValidationError) as exc:
        raise MapValidationError(f"{where}: {exc}")


def _lane_from_dict(where: str, data: dict) -> LaneLine:
    """A lane from its JSON object, whose ``points`` are [x, y, z] rows of
    JSON numbers. Of several faults in one lane, the first row that is not
    three numbers is reported: MapParseError for a row that is not a list of
    three, MapValidationError for a part that is not a number. Only a lane
    without such a row is built, and LaneLine's faults follow in its order,
    as MapValidationError."""
    lane_id = _need(where, data, "lane_id", str)
    _reject_unknown(data, LaneLine, f"{where}: lane {lane_id!r}")
    rows = _need(where, data, "points")
    if not isinstance(rows, list):
        raise MapParseError(f"{where}: 'points' must be a list")
    shaped = all(type(row) is list and len(row) == 3 for row in rows)
    if not shaped or not {type(v) for row in rows for v in row} <= _JSON_NUMBERS:
        for i, row in enumerate(rows):
            at = f"{where}: point {i} of lane {lane_id!r}"
            if type(row) is not list or len(row) != 3:
                raise MapParseError(f"{at} must be [x, y, z]")
            for name, value in zip("xyz", row):
                if type(value) not in _JSON_NUMBERS:
                    raise MapValidationError(
                        f"{at}: point component {name} must be a number, got {value!r}"
                    )
    return _build(where, LaneLine, lane_id=lane_id, points=rows)


def _image_from_dict(where: str, data: dict) -> ImageAssessment:
    image_id = _need(where, data, "image_id", str)
    where = f"{where}: image {image_id!r}"
    _reject_unknown(data, ImageAssessment, where)
    raw_scores = data.get("factor_scores", {})
    if not isinstance(raw_scores, dict):
        raise MapParseError(f"{where}: 'factor_scores' must be an object")
    scores: dict[FactorKind, int] = {}
    for key, value in raw_scores.items():
        factor = FACTOR_BY_KEY.get(key)
        if factor is None:
            raise MapParseError(f"{where}: unknown factor {key!r}")
        scores[factor] = value
    return _build(where, ImageAssessment, **{**data, "factor_scores": scores})


def _map_from_dict(source: str, data: dict, *, link_id: str | None) -> LocalMap:
    """A local map of the area ``link_id``, which must name that area and hold
    image records; or, for ``link_id=None``, a standalone map (a fused map)."""
    map_id = _need(f"{source}: at <root>", data, "map_id", str)
    where = f"{source}: at map[{map_id}]"
    _reject_unknown(data, LocalMap, where)
    lanes = [_lane_from_dict(where, l) for l in _need(where, data, "lane_lines", list)]
    images = _of_kind(where, data.get("images", []), "images", list)
    images = [_image_from_dict(where, i) for i in images]
    if link_id is not None and not images:
        raise MapValidationError(f"{where}: local map has no image records")
    link_area_id = _of_kind(where, data.get("link_area_id", ""), "link_area_id", str)
    if link_id is not None and data.get("link_area_id") != link_id:
        found = f"got {link_area_id!r}" if "link_area_id" in data else "it is missing"
        raise MapValidationError(
            f"{where}: 'link_area_id' must be the area's link_id {link_id!r}, {found}"
        )
    return _build(
        where, LocalMap, map_id=map_id, link_area_id=link_area_id, lane_lines=lanes, images=images
    )


def area_from_dict(data: dict, *, source: str = "<dict>") -> LinkArea:
    where = f"{source}: at <root>"
    link_id = _need(where, data, "link_id", str)
    _reject_unknown(data, LinkArea, where)
    truth, at_truth = data.get("ground_truth"), f"{source}: at ground_truth"
    truth_lanes = None if truth is None else [
        _lane_from_dict(at_truth, l) for l in _of_kind(at_truth, truth, "ground_truth", list)
    ]
    maps = [
        _map_from_dict(source, m, link_id=link_id)
        for m in _need(where, data, "local_maps", list)
    ]
    return _build(where, LinkArea, link_id=link_id, local_maps=maps, ground_truth=truth_lanes)


@contextlib.contextmanager
def atomic_writer(path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text file that appears at ``path`` only once fully written.

    The text goes to ``<name>.tmp`` beside ``path``, which is renamed over
    ``path`` when the block ends without an error. If the block or the rename
    raises, the temp file is removed and ``path`` is left as it was; an
    OSError while opening, writing or renaming (``path`` is a directory, the
    disk is full) is a ConfigError naming ``path``. ``newline`` is passed to
    ``open`` (csv writers want ``""``).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fh = open(tmp, "w", newline=newline, encoding="utf-8")
        try:
            with fh:
                yield fh
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write: {exc.strerror or exc}") from None


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


def reject_unknown_keys(
    data: dict, known: Iterable[str], where: str, error: type[LanefuseError]
) -> None:
    """Raise ``error`` naming the first key of the JSON object ``data``, in
    sorted order, that is not in ``known``."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise error(f"{where}: unknown key {unknown[0]!r}")


def load_link_area(path) -> LinkArea:
    return area_from_dict(load_json(path), source=str(path))


def save_local_map(local_map: LocalMap, path) -> None:
    """Write a standalone map document (e.g. a fused map, which has no images)."""
    _dump_json(_map_to_dict(local_map), path)


def load_local_map(path) -> LocalMap:
    return _map_from_dict(str(path), load_json(path), link_id=None)


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
