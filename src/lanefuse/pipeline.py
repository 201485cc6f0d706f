"""The map-update path, shared by the CLI's ``update`` and ``evaluate_area``.

A modification script is a JSON list of ``shift``, ``delete`` and ``add``
operations. ``load_modifications`` parses one, ``apply_modifications``
applies it to a map, and ``prior_map`` builds the prior map an update edits.
``update`` is the one update step behind both callers. It applies a script
to the prior map and to the maps it fuses, then fuses the first k maps of
one pooling order onto the modified prior for each count k: the ``update``
command pools its band maps in area-file order, ``evaluate`` each policy's
maps in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .clustering import DbscanParams
from .errors import ConfigError, EmptyInputError, InvalidInputError, LanefuseError
from .fusion import fuse_prefixes, modify_add, modify_delete, modify_shift, resample_polyline
from .mapmodel import LaneLine, LinkArea, LocalMap, load_json, reject_unknown_keys
from .registration import IcpParams
from .scoring import bounded_number, finite_number

PRIOR_MAP_SPACING = 2.0  # meters between control points of the prior map


@dataclass(frozen=True)
class Modification:
    op: str
    lane_id: str = ""
    lane_a: str = ""
    lane_b: str = ""
    dx: float = 0.0
    dy: float = 0.0
    offset: float = 0.0


# Each operation's function and its fields (the function's parameters), in
# the order they are read, with an optional field's default (None: required).
_OPS = {
    "shift": (modify_shift, {"lane_id": None, "dx": 0.0, "dy": 0.0}),
    "delete": (modify_delete, {"lane_id": None}),
    "add": (modify_add, {"lane_a": None, "lane_b": None, "offset": 0.0}),
}


def load_modifications(path: Path) -> list[Modification]:
    """Parse a modification script; any fault raises LanefuseError naming the
    operation's index and, for a bad or unknown key, the key."""
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
        fields = _OPS[op][1]
        reject_unknown_keys(entry, ("op", *fields), where, LanefuseError)
        values = {}
        for name, default in fields.items():
            value = entry.get(name, default)
            if default is None and not isinstance(value, str):
                raise LanefuseError(f"{where}: {name} must be a string, got {value!r}")
            try:
                values[name] = value if default is None else finite_number(value, name)
            except InvalidInputError as exc:
                raise LanefuseError(f"{where}: {exc}")
        mods.append(Modification(op=op, **values))
    return mods


def apply_modifications(local_map: LocalMap, mods: Sequence[Modification]) -> LocalMap:
    for mod in mods:
        if mod.op not in _OPS:
            raise ConfigError(f"unknown modification op {mod.op!r}")
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
    (see ``fusion.fuse_prefixes``)."""
    if area.ground_truth is None:
        raise EmptyInputError(f"link area {area.link_id!r} carries no ground truth to modify")
    prior = apply_modifications(prior_map(area.ground_truth, area.link_id), mods)
    counts = [bounded_number(k, "count", 0) for k in counts]
    by_id = {m.map_id: m for m in area.local_maps}
    fused = [apply_modifications(by_id[m], mods) for m in order[: max(counts, default=0)]]
    return fuse_prefixes(fused, counts, prior, dparams, iparams)
