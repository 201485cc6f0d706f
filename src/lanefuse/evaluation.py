"""Map-update error metric, synthetic fixtures, and the policy experiment.

The error metric is an RMSE over estimated lane points against the nearest
ground-truth segment; for lane lines only the lateral (perpendicular in the
xy-plane) component counts. The synthetic generator stands in for real
crowdsourced drives: ground-truth lanes per link area, local maps that
observe them under scenario-dependent noise, and image confidences produced
by the actual scoring stack so confidence and geometric error correlate by
construction.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .backends import Scenario, SyntheticScorer, collect_assessment
from .clustering import DbscanParams
from .confidence import (
    ALL_FACTORS_CONTEXT,
    DEFAULT_WEIGHTS,
    ContextProfile,
    WeightProfile,
    with_confidence,
)
from .errors import ConfigError, EmptyInputError, InvalidInputError
from .fusion import (
    align,
    fuse_maps,  # noqa: F401  (the CLI's update command fuses through ev.fuse_maps)
    fuse_points,
    modify_add,
    modify_delete,
    modify_shift,
    rank_maps,
    resample_polyline,
    select_band,
)
from .mapmodel import LaneLine, LinkArea, LocalMap, lanes_from_arrays
from .registration import IcpParams
from .scoring import FACTOR_BY_KEY, FactorKind

CONFIDENCE_THRESHOLD = 7.0  # map-level cutoff for the threshold policy


@dataclass(frozen=True)
class AmeResult:
    e_ame: float
    n_points: int
    lateral_only: bool

    def __post_init__(self):
        if self.e_ame < 0.0:
            raise InvalidInputError("e_ame must be >= 0")


def _segment_arrays(lanes: Sequence[LaneLine]) -> tuple[np.ndarray, np.ndarray]:
    starts, ends = [], []
    for lane in lanes:
        pts = lane.points_array()
        starts.append(pts[:-1])
        ends.append(pts[1:])
    return np.vstack(starts), np.vstack(ends)


def _point_errors(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, lateral_only: bool
) -> np.ndarray:
    """Distance from each point to its nearest segment.

    Matching always uses the full 3D distance; with lateral_only the error
    term is recomputed in the xy-plane against the matched segment.
    """
    d = seg_b - seg_a  # (m, 3)
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd < 1e-18, 1.0, dd)
    rel = points[:, None, :] - seg_a[None, :, :]  # (n, m, 3)
    t = np.clip(np.einsum("nmj,mj->nm", rel, d) / dd, 0.0, 1.0)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist3 = np.linalg.norm(points[:, None, :] - proj, axis=2)
    nearest = np.argmin(dist3, axis=1)
    if not lateral_only:
        return dist3[np.arange(len(points)), nearest]

    # Segments may degenerate in the xy projection (vertical climbs); treat
    # those as their start point.
    a2 = seg_a[nearest, :2]
    d2 = d[nearest, :2]
    dd2 = np.einsum("ij,ij->i", d2, d2)
    p2 = points[:, :2]
    t2 = np.einsum("ij,ij->i", p2 - a2, d2) / np.where(dd2 < 1e-18, 1.0, dd2)
    t2 = np.where(dd2 < 1e-18, 0.0, np.clip(t2, 0.0, 1.0))
    proj2 = a2 + t2[:, None] * d2
    return np.linalg.norm(p2 - proj2, axis=1)


def ame(
    estimated: Sequence[LaneLine],
    truth: Sequence[LaneLine],
    lateral_only: bool = True,
    symmetric: bool = False,
) -> AmeResult:
    """RMSE of estimated lane points against the nearest ground-truth segment.

    Iterates over the estimated points; ``symmetric=True`` additionally pools
    the reverse direction (truth points against estimated segments).
    """
    if not estimated or not truth:
        raise EmptyInputError("ame needs non-empty estimated and truth lane sets")
    est_pts = np.vstack([lane.points_array() for lane in estimated])
    seg_a, seg_b = _segment_arrays(truth)
    errors = _point_errors(est_pts, seg_a, seg_b, lateral_only)
    if symmetric:
        truth_pts = np.vstack([lane.points_array() for lane in truth])
        rev_a, rev_b = _segment_arrays(estimated)
        errors = np.concatenate(
            [errors, _point_errors(truth_pts, rev_a, rev_b, lateral_only)]
        )
    return AmeResult(
        e_ame=float(np.sqrt(np.mean(errors**2))),
        n_points=int(len(errors)),
        lateral_only=lateral_only,
    )


# --- synthetic data ----------------------------------------------------------

# Scenario ladder used by the standard config. Visibility bands are disjoint
# so confidence ranking reproduces the noise ordering; sigma grows as
# conditions worsen, which is what ties confidence to geometric quality.
STANDARD_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="pristine",
        factor_ranges={FactorKind.LANE_VISIBILITY: (9, 10)},
        noise_sigma=0.05,
    ),
    Scenario(
        name="clean",
        factor_ranges={
            FactorKind.LANE_VISIBILITY: (9, 9),
            FactorKind.BLUR_DAY: (0, 1),
            FactorKind.ILLUMINATION: (0, 1),
        },
        noise_sigma=0.055,
    ),
    Scenario(
        name="bright",
        factor_ranges={
            FactorKind.LANE_VISIBILITY: (8, 8),
            FactorKind.BLUR_DAY: (0, 2),
            FactorKind.ILLUMINATION: (1, 2),
        },
        noise_sigma=0.06,
    ),
    Scenario(
        name="hazy",
        factor_ranges={
            FactorKind.LANE_VISIBILITY: (6, 7),
            FactorKind.BLUR_DAY: (1, 3),
            FactorKind.ILLUMINATION: (2, 4),
        },
        noise_sigma=0.2,
    ),
    Scenario(
        name="worn",
        factor_ranges={
            FactorKind.LANE_VISIBILITY: (5, 6),
            FactorKind.BLUR_DAY: (2, 4),
            FactorKind.DEGRADATION: (2, 5),
        },
        noise_sigma=0.24,
    ),
    Scenario(
        name="murky",
        factor_ranges={
            FactorKind.LANE_VISIBILITY: (3, 4),
            FactorKind.BLUR_DAY: (4, 6),
            FactorKind.ILLUMINATION: (4, 6),
            FactorKind.OCCLUSION: (2, 4),
        },
        noise_sigma=0.42,
    ),
    Scenario(
        name="night-storm",
        factor_ranges={
            FactorKind.LANE_VISIBILITY: (1, 3),
            FactorKind.BLUR_NIGHT: (5, 8),
            FactorKind.RAIN: (5, 8),
            FactorKind.FOG: (3, 6),
        },
        noise_sigma=0.55,
    ),
)

SCENARIOS_BY_NAME: dict[str, Scenario] = {s.name: s for s in STANDARD_SCENARIOS}


@dataclass(frozen=True)
class SynthConfig:
    """Layout and difficulty of the generated benchmark."""

    seed: int = 0
    link_areas: int = 6
    maps_per_area: int = 7
    lanes_per_area: int = 4
    lane_spacing: float = 3.5
    images_per_map: int = 6
    degradation_scenarios: tuple[Scenario, ...] = STANDARD_SCENARIOS
    lane_length: float = 40.0
    # 0.2 m keeps a single dense map above the clustering core threshold
    # (its 0.5 m neighborhood then holds 5 same-lane points).
    point_spacing: float = 0.2

    def __post_init__(self):
        for name in ("link_areas", "maps_per_area", "lanes_per_area", "images_per_map"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if self.lane_spacing <= 0 or self.lane_length <= 0 or self.point_spacing <= 0:
            raise InvalidInputError("spacings and lengths must be positive")
        if not self.degradation_scenarios:
            raise InvalidInputError("need at least one scenario")
        object.__setattr__(
            self, "degradation_scenarios", tuple(self.degradation_scenarios)
        )


def standard_config(seed: int = 0) -> SynthConfig:
    """The mixed clean/degraded benchmark used by the acceptance experiment."""
    return SynthConfig(seed=seed)


def _truth_lanes(cfg: SynthConfig, area_index: int) -> list[LaneLine]:
    n_pts = max(2, int(round(cfg.lane_length / cfg.point_spacing)) + 1)
    x = np.linspace(0.0, cfg.lane_length, n_pts)
    # Alternate straight and gently curved areas.
    amp = 2.0 if area_index % 2 else 0.0
    bend = amp * np.sin(2.0 * np.pi * x / 50.0)
    lanes = []
    for i in range(cfg.lanes_per_area):
        y = i * cfg.lane_spacing + bend
        pts = np.column_stack([x, y, np.zeros_like(x)])
        lanes.append((f"lane_{i:02d}", pts))
    return lanes_from_arrays(lanes)


def _noisy_map_lanes(
    truth: list[LaneLine], sigma: float, rng: np.random.Generator
) -> list[LaneLine]:
    # Per-map rigid offset (exercises ICP) plus iid point noise. A zero-noise
    # scenario yields exact truth copies with no rigid offset either.
    if sigma == 0.0:
        return [LaneLine(l.lane_id, list(l.points)) for l in truth]
    theta = rng.uniform(-0.015, 0.015)
    shift = rng.uniform(-0.25, 0.25, size=2)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    all_pts = np.vstack([lane.points_array() for lane in truth])
    center = all_pts[:, :2].mean(axis=0)
    lanes = []
    for lane in truth:
        pts = lane.points_array().copy()
        pts[:, :2] += rng.normal(0.0, sigma, size=(len(pts), 2))
        pts[:, :2] = (pts[:, :2] - center) @ rot.T + center + shift
        lanes.append((lane.lane_id, pts))
    return lanes_from_arrays(lanes)


def synth_generate(
    cfg: SynthConfig,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
) -> list[LinkArea]:
    """Deterministic benchmark areas with ground truth.

    Scenarios cycle across the maps of an area, so every area sees the whole
    quality ladder; scores flow through the synthetic backend and the real
    scoring/confidence stack.
    """
    areas = []
    scenarios = cfg.degradation_scenarios
    for area_index in range(cfg.link_areas):
        rng = np.random.default_rng([cfg.seed, area_index])
        link_id = f"area_{area_index:03d}"
        truth = _truth_lanes(cfg, area_index)
        maps = []
        for m in range(cfg.maps_per_area):
            scenario = scenarios[m % len(scenarios)]
            map_id = f"{link_id}_map_{m:02d}"
            lanes = _noisy_map_lanes(truth, scenario.noise_sigma, rng)
            backend = SyntheticScorer(scenario, seed=cfg.seed)
            images = []
            for k in range(cfg.images_per_map):
                image_id = f"{map_id}_img_{k:03d}"
                assessment = collect_assessment(
                    backend, image_id, timestamp=float(k)
                )
                images.append(with_confidence(assessment, weights, context))
            maps.append(
                LocalMap(
                    map_id=map_id,
                    link_area_id=link_id,
                    lane_lines=lanes,
                    images=images,
                )
            )
        areas.append(LinkArea(link_id=link_id, local_maps=maps, ground_truth=truth))
    return areas


def load_synth_config(path) -> SynthConfig:
    """Parse a synth-config JSON document."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"synth config {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc.msg}")
    scenarios: list[Scenario] = []
    for raw in data.get("scenarios", []):
        try:
            ranges = {
                FACTOR_BY_KEY[name]: (int(lo), int(hi))
                for name, (lo, hi) in raw.get("factors", {}).items()
            }
            scenarios.append(
                Scenario(
                    name=str(raw.get("name", f"scenario_{len(scenarios)}")),
                    factor_ranges=ranges,
                    noise_sigma=float(raw.get("sigma", 0.0)),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{path}: unknown factor {exc}")
        except (TypeError, ValueError, InvalidInputError) as exc:
            raise ConfigError(f"{path}: bad scenario: {exc}")
    try:
        kwargs = {}
        for key in (
            "seed",
            "link_areas",
            "maps_per_area",
            "lanes_per_area",
            "images_per_map",
        ):
            if key in data:
                kwargs[key] = int(data[key])
        for key in ("lane_spacing", "lane_length", "point_spacing"):
            if key in data:
                kwargs[key] = float(data[key])
        if scenarios:
            kwargs["degradation_scenarios"] = tuple(scenarios)
        return SynthConfig(**kwargs)
    except (TypeError, ValueError, InvalidInputError) as exc:
        raise ConfigError(f"{path}: {exc}")


def synth_config_to_dict(cfg: SynthConfig) -> dict:
    return {
        "seed": cfg.seed,
        "link_areas": cfg.link_areas,
        "maps_per_area": cfg.maps_per_area,
        "lanes_per_area": cfg.lanes_per_area,
        "lane_spacing": cfg.lane_spacing,
        "images_per_map": cfg.images_per_map,
        "lane_length": cfg.lane_length,
        "point_spacing": cfg.point_spacing,
        "scenarios": [
            {
                "name": s.name,
                "sigma": s.noise_sigma,
                "factors": {f.key: list(r) for f, r in s.factor_ranges.items()},
            }
            for s in cfg.degradation_scenarios
        ],
    }


# --- experiment harness -------------------------------------------------------

PRIOR_MAP_SPACING = 2.0  # meters between control points of the prior map

# Fixed per-area modification script so reports are reproducible.
SHIFT_DX = 0.5
SHIFT_DY = 0.0
# Keep the inserted midpoint lane nearly centered: a large offset eats into
# the clearance that keeps clusters separable under degraded-map noise.
ADD_OFFSET = 0.05


@dataclass(frozen=True)
class Modification:
    op: str
    lane_id: str = ""
    lane_a: str = ""
    lane_b: str = ""
    dx: float = 0.0
    dy: float = 0.0
    offset: float = 0.0


def apply_modifications(local_map: LocalMap, mods: Sequence[Modification]) -> LocalMap:
    for mod in mods:
        if mod.op == "shift":
            local_map = modify_shift(local_map, mod.lane_id, mod.dx, mod.dy)
        elif mod.op == "delete":
            local_map = modify_delete(local_map, mod.lane_id)
        elif mod.op == "add":
            local_map = modify_add(local_map, mod.lane_a, mod.lane_b, mod.offset)
        else:
            raise ConfigError(f"unknown modification op {mod.op!r}")
    return local_map


def scripted_modifications(truth: Sequence[LaneLine]) -> list[Modification]:
    """One shift, one delete, one add per area, anchored on sorted lane ids."""
    ids = sorted(lane.lane_id for lane in truth)
    if len(ids) < 3:
        raise EmptyInputError("scripted modifications need at least 3 lanes")
    partner = ids[3] if len(ids) >= 4 else ids[0]
    return [
        Modification(op="shift", lane_id=ids[0], dx=SHIFT_DX, dy=SHIFT_DY),
        Modification(op="delete", lane_id=ids[1]),
        Modification(op="add", lane_a=ids[2], lane_b=partner, offset=ADD_OFFSET),
    ]


def prior_map(truth: Sequence[LaneLine], link_id: str) -> LocalMap:
    """The prior HD map: exact truth geometry at control-point spacing."""
    lanes = []
    for lane in truth:
        pts = lane.points_array()
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        count = max(2, int(round(seg / PRIOR_MAP_SPACING)) + 1)
        lanes.append((lane.lane_id, resample_polyline(pts, count)))
    return LocalMap(
        map_id=f"{link_id}_prior",
        link_area_id=link_id,
        lane_lines=lanes_from_arrays(lanes),
        images=[],
    )


def parse_policy(name: str) -> tuple[str, int | None]:
    name = name.strip().lower()
    if name in ("baseline", "band", "threshold"):
        return name, None
    if name.startswith("seq"):
        try:
            k = int(name[3:])
        except ValueError:
            raise ConfigError(f"unknown policy {name!r}")
        if k < 1:
            raise ConfigError(f"seq policy needs k >= 1, got {k}")
        return "seq", k
    raise ConfigError(f"unknown policy {name!r}")


def _select_for_policy(
    ranked: list[tuple[str, float]], policy: str
) -> list[str]:
    kind, k = parse_policy(policy)
    if kind == "baseline":
        return [map_id for map_id, _ in ranked]
    if kind == "band":
        return list(select_band(ranked).selected_map_ids)
    if kind == "threshold":
        return [map_id for map_id, avg in ranked if avg >= CONFIDENCE_THRESHOLD]
    return [map_id for map_id, _ in ranked[:k]]


@dataclass
class PolicyOutcome:
    policy: str
    result: AmeResult | None  # None when the policy selected no maps

    @property
    def applicable(self) -> bool:
        return self.result is not None


@dataclass
class EvaluationReport:
    policies: list[str]
    rows: dict[str, dict[str, PolicyOutcome]] = field(default_factory=dict)

    def averages(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for policy in self.policies:
            values = [
                row[policy].result.e_ame
                for row in self.rows.values()
                if row[policy].applicable
            ]
            out[policy] = sum(values) / len(values) if values else None
        return out

    def to_csv_rows(self) -> list[list[str]]:
        rows: list[list[str]] = [["area", "policy", "e_ame", "n_points"]]
        for link_id in sorted(self.rows):
            for policy in self.policies:
                outcome = self.rows[link_id][policy]
                if outcome.applicable:
                    rows.append(
                        [
                            link_id,
                            policy,
                            f"{outcome.result.e_ame:.6f}",
                            str(outcome.result.n_points),
                        ]
                    )
                else:
                    rows.append([link_id, policy, "n/a", "0"])
        averages = self.averages()
        for policy in self.policies:
            avg = averages[policy]
            rows.append(
                ["average", policy, "n/a" if avg is None else f"{avg:.6f}", ""]
            )
        return rows

    def format_table(self) -> str:
        """Plain-text table: one row per area, one error column per policy."""
        header = ["link area"] + list(self.policies)
        lines = ["  ".join(f"{h:>12}" for h in header)]
        averages = self.averages()
        for link_id in sorted(self.rows):
            cells = [f"{link_id:>12}"]
            for policy in self.policies:
                outcome = self.rows[link_id][policy]
                cells.append(
                    f"{outcome.result.e_ame:>12.6f}" if outcome.applicable else f"{'n/a':>12}"
                )
            lines.append("  ".join(cells))
        cells = [f"{'average':>12}"]
        for policy in self.policies:
            avg = averages[policy]
            cells.append(f"{avg:>12.6f}" if avg is not None else f"{'n/a':>12}")
        lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"


def evaluate_area(
    area: LinkArea,
    policies: Sequence[str],
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
) -> dict[str, PolicyOutcome]:
    """Run the scripted modification set and every policy on one area."""
    if area.ground_truth is None:
        raise EmptyInputError(f"area {area.link_id!r} has no ground truth")
    mods = scripted_modifications(area.ground_truth)
    prior = apply_modifications(prior_map(area.ground_truth, area.link_id), mods)
    truth_map = apply_modifications(
        LocalMap(
            map_id="truth",
            link_area_id=area.link_id,
            lane_lines=area.ground_truth,
            images=[],
        ),
        mods,
    )
    observed = {
        m.map_id: apply_modifications(m, mods) for m in area.local_maps
    }
    ranked = rank_maps(area)
    target = prior.lane_points()
    # Each map a policy chooses is aligned once, the first time it is chosen;
    # a map no policy chooses is never aligned.
    aligned: dict[str, np.ndarray] = {}
    outcomes: dict[str, PolicyOutcome] = {}
    for policy in policies:
        chosen = _select_for_policy(ranked, policy)
        if not chosen:
            outcomes[policy] = PolicyOutcome(policy=policy, result=None)
            continue
        for map_id in chosen:
            if map_id not in aligned:
                aligned[map_id] = align(observed[map_id], target, iparams)[0]
        pooled = np.vstack([target] + [aligned[m] for m in chosen])
        fused = fuse_points(pooled, prior, dparams)
        outcomes[policy] = PolicyOutcome(
            policy=policy,
            result=ame(fused.lane_lines, truth_map.lane_lines, lateral_only=True),
        )
    return outcomes


def run_experiment(
    areas: Iterable[LinkArea],
    policies: Sequence[str],
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
    jobs: int = 1,
) -> EvaluationReport:
    """Evaluate every policy on every area; areas are independent.

    With ``jobs > 1`` that many threads evaluate areas concurrently. The
    report is the same either way, and the first failing area (in input
    order) raises.
    """
    policies = [p.strip().lower() for p in policies]
    for p in policies:
        parse_policy(p)
    report = EvaluationReport(policies=list(policies))
    areas = list(areas)

    def evaluate(area: LinkArea) -> dict[str, PolicyOutcome]:
        return evaluate_area(area, policies, dparams, iparams)

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(evaluate, areas))
    else:
        results = [evaluate(area) for area in areas]
    for area, outcome in zip(areas, results):
        report.rows[area.link_id] = outcome
    return report
