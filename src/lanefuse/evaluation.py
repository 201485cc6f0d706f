"""Map-update error metric, synthetic fixtures, and the policy experiment.

The error metric is an RMSE over estimated lane points against the nearest
ground-truth segment; for lane lines only the lateral (perpendicular in the
xy-plane) component counts. The nearest segment is found with a k-d tree over
segment midpoints: a point's nearest segment is no farther than its nearest
midpoint (distance d0), so only segments whose midpoints lie within d0 plus
the largest half segment length are measured. The search is exact, keeps
argmin's lowest-index choice among segments at equal 3D distance, and works
through the points in blocks of bounded size, so memory is linear in the
number of points and segments. The synthetic generator stands in for real
crowdsourced drives: ground-truth lanes per link area, local maps that
observe them under scenario-dependent noise, and image confidences produced
by the actual scoring stack so confidence and geometric error correlate by
construction.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.spatial import cKDTree

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
# fuse_maps and prior_map stay importable here for callers and perfbench/tracing.py.
from .fusion import fuse_maps, rank_maps, select_band  # noqa: F401
from .mapmodel import LaneLine, LinkArea, LocalMap, load_json
from .pipeline import Modification, apply_modifications, prior_map, update  # noqa: F401
from .registration import IcpParams
from .scoring import FACTOR_BY_KEY, FactorKind, exact_int

CONFIDENCE_THRESHOLD = 7.0  # map-level cutoff for the threshold policy

# Most (point, segment) pairs the AME search measures at once; each pair costs
# a few hundred bytes of temporaries.
_PAIR_BUDGET = 1 << 16


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


def _candidate_blocks(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every segment that can be nearest to each point, in blocks of points.

    A point's nearest segment is no farther than the nearest segment
    midpoint, at distance d0, and a segment within d0 of the point has its
    midpoint within d0 + (largest half length); the slack absorbs rounding
    at the coordinates of a local metric frame. Yields (point index,
    segment index, candidates per point) for consecutive points, the pairs
    grouped by point and at most _PAIR_BUDGET of them per block, unless a
    block is a single point (at most len(seg_a) pairs).
    """
    mid = (seg_a + seg_b) * 0.5
    half = 0.5 * np.linalg.norm(seg_b - seg_a, axis=1).max()
    tree = cKDTree(mid)
    d0, _ = tree.query(points)
    radius = d0 + half + 1e-9 * (1.0 + d0)
    counts = tree.query_ball_point(points, radius, return_length=True)
    ends = np.cumsum(counts)
    start = 0
    while start < len(points):
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _PAIR_BUDGET, "right")))
        lists = tree.query_ball_point(points[start:stop], radius[start:stop])
        lens = counts[start:stop]
        seg = np.fromiter(
            itertools.chain.from_iterable(lists), dtype=np.intp, count=int(lens.sum())
        )
        yield np.repeat(np.arange(start, stop), lens), seg, lens
        start = stop


def _point_errors(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, lateral_only: bool
) -> np.ndarray:
    """Distance from each point to its nearest segment.

    Matching always uses the full 3D distance, and among segments at equal
    distance the lowest index wins; with lateral_only the error term is
    recomputed in the xy-plane against the matched segment. Only the
    candidate pairs of _candidate_blocks are measured, so memory stays
    linear in the number of points and segments.
    """
    d = seg_b - seg_a  # (m, 3)
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd < 1e-18, 1.0, dd)
    nearest = np.empty(len(points), dtype=np.intp)
    dist3 = np.empty(len(points))
    for pt, seg, lens in _candidate_blocks(points, seg_a, seg_b):
        rel = points[pt] - seg_a[seg]  # (k, 3)
        t = np.clip(np.einsum("kj,kj->k", rel, d[seg]) / dd[seg], 0.0, 1.0)
        proj = seg_a[seg] + t[:, None] * d[seg]
        dist = np.linalg.norm(points[pt] - proj, axis=1)
        # Sorted by point, then distance, then segment: each point's group
        # starts with its nearest segment of lowest index, as argmin picks.
        first = np.lexsort((seg, dist, pt))[np.cumsum(lens) - lens]
        nearest[pt[first]] = seg[first]
        dist3[pt[first]] = dist[first]
    if not lateral_only:
        return dist3

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


def scenario_from_mapping(name: str, ranges: Mapping, sigma: float, where: str) -> Scenario:
    """A Scenario from {factor key: (lo, hi)} and a noise sigma, for the INI and
    the JSON config alike; a bad value is a ConfigError prefixed by ``where``."""
    try:
        factor_ranges = {FACTOR_BY_KEY[key]: r for key, r in ranges.items()}
        return Scenario(name=name, factor_ranges=factor_ranges, noise_sigma=float(sigma))
    except KeyError as exc:
        raise ConfigError(f"{where}: unknown factor {exc}")
    except (TypeError, ValueError, InvalidInputError) as exc:
        raise ConfigError(f"{where}: {exc}")


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
        lengths = (self.lane_spacing, self.lane_length, self.point_spacing)
        if not all(math.isfinite(v) and v > 0 for v in lengths):
            raise InvalidInputError("spacings and lengths must be positive and finite")
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
        lanes.append(LaneLine(f"lane_{i:02d}", pts))
    return lanes


def _noisy_map_lanes(
    truth: list[LaneLine], sigma: float, rng: np.random.Generator
) -> list[LaneLine]:
    # Per-map rigid offset (exercises ICP) plus iid point noise. A zero-noise
    # scenario yields the truth lanes themselves (their points are read-only)
    # with no rigid offset either.
    if sigma == 0.0:
        return list(truth)
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
        lanes.append(LaneLine(lane.lane_id, pts))
    return lanes


def synth_generate(
    cfg: SynthConfig,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
    method: str = "dpcs",
) -> list[LinkArea]:
    """Deterministic benchmark areas with ground truth.

    Scenarios cycle across the maps of an area, so every area sees the whole
    quality ladder; scores flow through the synthetic backend and the real
    scoring/confidence stack, with confidence ``method``.
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
                images.append(with_confidence(assessment, weights, context, method))
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


# The scalar keys of a synth-config document, in the order it is written.
_SYNTH_KEYS = {
    "seed": int, "link_areas": int, "maps_per_area": int, "lanes_per_area": int,
    "lane_spacing": float, "images_per_map": int, "lane_length": float, "point_spacing": float,
}


def _reject_unknown_keys(data: dict, known: Iterable[str], where: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def load_synth_config(path) -> SynthConfig:
    """Parse a synth-config JSON document; unknown keys are rejected."""
    data = load_json(path, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    _reject_unknown_keys(data, (*_SYNTH_KEYS, "scenarios"), path)
    raw_scenarios = data.get("scenarios", [])
    if not isinstance(raw_scenarios, list):
        raise ConfigError(f"{path}: scenarios must be a list")
    scenarios: list[Scenario] = []
    for i, raw in enumerate(raw_scenarios):
        where = f"{path}: scenarios[{i}]"
        if not isinstance(raw, dict) or not isinstance(raw.get("factors", {}), dict):
            raise ConfigError(f"{where}: must be an object whose factors are an object")
        _reject_unknown_keys(raw, ("name", "sigma", "factors"), where)
        name = str(raw.get("name", f"scenario_{i}"))
        factors, sigma = raw.get("factors", {}), raw.get("sigma", 0.0)
        scenarios.append(scenario_from_mapping(name, factors, sigma, where))
    try:
        kwargs = {
            key: exact_int(data[key], key) if kind is int else float(data[key])
            for key, kind in _SYNTH_KEYS.items()
            if key in data
        }
        if scenarios:
            kwargs["degradation_scenarios"] = tuple(scenarios)
        return SynthConfig(**kwargs)
    except (TypeError, ValueError, InvalidInputError) as exc:
        raise ConfigError(f"{path}: {exc}")


def synth_config_to_dict(cfg: SynthConfig) -> dict:
    return {
        **{key: getattr(cfg, key) for key in _SYNTH_KEYS},
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

# Fixed per-area modification script so reports are reproducible.
SHIFT_DX = 0.5
SHIFT_DY = 0.0
# Keep the inserted midpoint lane nearly centered: a large offset eats into
# the clearance that keeps clusters separable under degraded-map noise.
ADD_OFFSET = 0.05


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


MapChoice = Callable[[Sequence[tuple[str, float]]], list[str]]

# The policies without a parameter; "seqK" fuses the K best-ranked maps.
_POLICIES: dict[str, MapChoice] = {
    "baseline": lambda ranked: [map_id for map_id, _ in ranked],
    "band": lambda ranked: list(select_band(ranked).selected_map_ids),
    "threshold": lambda ranked: [m for m, avg in ranked if avg >= CONFIDENCE_THRESHOLD],
}


def parse_policy(name: str) -> MapChoice:
    """The maps policy ``name`` fuses: a function from the ranking
    ((map_id, avg), best first) to map ids in rank order."""
    name = name.strip().lower()
    if name in _POLICIES:
        return _POLICIES[name]
    if name.startswith("seq"):
        try:
            k = int(name[3:])
        except ValueError:
            raise ConfigError(f"unknown policy {name!r}")
        if k < 1:
            raise ConfigError(f"seq policy needs k >= 1, got {k}")
        return lambda ranked: [map_id for map_id, _ in ranked[:k]]
    raise ConfigError(f"unknown policy {name!r}")


def parse_policies(names: Iterable[str]) -> list[str]:
    """The policy names stripped and lower-cased; an unknown or a repeated
    policy is a ConfigError."""
    policies = [name.strip().lower() for name in names]
    for policy in policies:
        parse_policy(policy)
    repeated = [p for p, n in collections.Counter(policies).items() if n > 1]
    if repeated:
        raise ConfigError(f"policy {repeated[0]!r} given more than once")
    return policies


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
        """Plain-text table of the CSV rows: one row per area, then the
        averages, with one error column per policy."""
        header = ["link area", *self.policies]
        lines = ["  ".join(f"{h:>12}" for h in header)]
        rows = self.to_csv_rows()[1:]
        # One chunk of rows per area, then the averages. Chunk by count, not
        # by name: an area may be called "average".
        step = max(1, len(self.policies))
        for i in range(0, len(rows), step):
            chunk = rows[i : i + step]
            cells = [chunk[0][0], *(e_ame for _, _, e_ame, _ in chunk)]
            lines.append("  ".join(f"{cell:>12}" for cell in cells))
        return "\n".join(lines) + "\n"


def evaluate_area(
    area: LinkArea,
    policies: Sequence[str],
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
) -> dict[str, PolicyOutcome]:
    """Run the scripted modification set and every policy on one area; each
    policy's maps are pooled in rank order."""
    if area.ground_truth is None:
        raise EmptyInputError(f"area {area.link_id!r} has no ground truth")
    mods = scripted_modifications(area.ground_truth)
    truth = apply_modifications(LocalMap("truth", area.link_id, area.ground_truth), mods)
    ranked = rank_maps(area)
    fused = update(area, mods, [parse_policy(p)(ranked) for p in policies], dparams, iparams)
    return {
        policy: PolicyOutcome(policy, None if f is None else ame(f.lane_lines, truth.lane_lines))
        for policy, f in zip(policies, fused)
    }


def run_experiment(
    areas: Iterable[LinkArea],
    policies: Sequence[str],
    dparams: DbscanParams = DbscanParams(),
    iparams: IcpParams = IcpParams(),
    jobs: int = 1,
) -> EvaluationReport:
    """Evaluate every policy on every area; areas are independent.

    ``jobs`` threads evaluate the areas. The report is the same for every
    ``jobs``, and the first failing area (in input order) raises. ``jobs``
    below 1, a repeated policy and a repeated link id are rejected.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    policies = parse_policies(policies)
    areas = list(areas)
    link_ids = [area.link_id for area in areas]
    repeated = [link_id for link_id, n in collections.Counter(link_ids).items() if n > 1]
    if repeated:
        raise InvalidInputError(f"link id {repeated[0]!r} appears in more than one area")
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        outcomes = pool.map(
            evaluate_area,
            areas,
            itertools.repeat(policies),
            itertools.repeat(dparams),
            itertools.repeat(iparams),
        )
        return EvaluationReport(policies, dict(zip(link_ids, outcomes)))
