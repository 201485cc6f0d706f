"""Map-update error metric, synthetic fixtures, and the policy experiment.

The error metric is an RMSE over estimated lane points against the nearest
ground-truth segment (registration.nearest_segment_errors); for lane lines
only the lateral (perpendicular in the xy-plane) component counts. The
synthetic generator stands in for real crowdsourced drives: ground-truth
lanes per link area, local maps that observe them under scenario-dependent
noise (the scenarios live in backends), and image confidences produced by
the actual scoring stack so confidence and geometric error correlate by
construction. The update path the experiment runs lives in pipeline.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# Re-exported for whoever still imports them from here: SCENARIOS_BY_NAME for
# perfbench/stub.py and tests/test_cli.py, fuse_maps and prior_map for
# perfbench/tracing.py (which wraps them) and the tests.
from .backends import SCENARIOS_BY_NAME, STANDARD_SCENARIOS, Scenario  # noqa: F401
from .backends import SyntheticScorer, collect_assessment, scenario_from_mapping
from .clustering import DbscanParams
from .confidence import (
    ALL_FACTORS_CONTEXT,
    DEFAULT_WEIGHTS,
    ContextProfile,
    WeightProfile,
    with_confidence,
)
from .errors import ConfigError, EmptyInputError, InvalidInputError
from .fusion import fuse_maps, rank_maps, select_band  # noqa: F401
from .mapmodel import LaneLine, LinkArea, LocalMap, load_json, reject_unknown_keys
from .pipeline import Modification, apply_modifications, prior_map, update  # noqa: F401
from .registration import IcpParams, lane_segments, nearest_segment_errors
from .scoring import bounded_number

CONFIDENCE_THRESHOLD = 7.0  # map-level cutoff for the threshold policy


@dataclass(frozen=True)
class AmeResult:
    e_ame: float
    n_points: int

    def __post_init__(self):
        if self.e_ame < 0.0:
            raise InvalidInputError("e_ame must be >= 0")


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
    est_pts = np.vstack([lane.points for lane in estimated])
    errors = nearest_segment_errors(est_pts, *lane_segments(truth), lateral_only)
    if symmetric:
        truth_pts = np.vstack([lane.points for lane in truth])
        errors = np.concatenate(
            [errors, nearest_segment_errors(truth_pts, *lane_segments(estimated), lateral_only)]
        )
    return AmeResult(e_ame=float(np.sqrt(np.mean(errors**2))), n_points=int(len(errors)))


# --- synthetic data ----------------------------------------------------------

# The numeric fields of a synth config, in the order a document lists them,
# each with its lower bound and whether that bound is exclusive. numpy's
# generators take no negative seed.
_SYNTH_BOUNDS = {
    "seed": (0, False), "link_areas": (1, False), "maps_per_area": (1, False),
    "lanes_per_area": (1, False), "lane_spacing": (0.0, True), "images_per_map": (1, False),
    "lane_length": (0.0, True), "point_spacing": (0.0, True),
}


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
        for name, (low, exclusive) in _SYNTH_BOUNDS.items():
            value = bounded_number(getattr(self, name), name, low, exclusive=exclusive)
            object.__setattr__(self, name, value)
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
    all_pts = np.vstack([lane.points for lane in truth])
    center = all_pts[:, :2].mean(axis=0)
    lanes = []
    for lane in truth:
        pts = lane.points.copy()
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


def load_synth_config(path) -> SynthConfig:
    """Parse a synth-config JSON document; unknown keys are rejected."""
    data = load_json(path, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    reject_unknown_keys(data, (*_SYNTH_BOUNDS, "scenarios"), path, ConfigError)
    raw_scenarios = data.get("scenarios", [])
    if not isinstance(raw_scenarios, list):
        raise ConfigError(f"{path}: scenarios must be a list")
    scenarios: list[Scenario] = []
    for i, raw in enumerate(raw_scenarios):
        where = f"{path}: scenarios[{i}]"
        if not isinstance(raw, dict) or not isinstance(raw.get("factors", {}), dict):
            raise ConfigError(f"{where}: must be an object whose factors are an object")
        reject_unknown_keys(raw, ("name", "sigma", "factors"), where, ConfigError)
        name = raw.get("name", f"scenario_{i}")
        if not isinstance(name, str):
            raise ConfigError(f"{where}: name must be a string, got {name!r}")
        scenarios.append(
            scenario_from_mapping(name, raw.get("factors", {}), raw.get("sigma", 0.0), where)
        )
    try:
        kwargs = {key: data[key] for key in _SYNTH_BOUNDS if key in data}
        if "scenarios" in data:
            kwargs["degradation_scenarios"] = tuple(scenarios)
        return SynthConfig(**kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"{path}: {exc}")


def synth_config_to_dict(cfg: SynthConfig) -> dict:
    return {
        **{key: getattr(cfg, key) for key in _SYNTH_BOUNDS},
        "scenarios": [
            {
                "name": s.name,
                "sigma": s.noise_sigma,
                "factors": {
                    "lane_visibility": list(s.visibility),
                    **{f.key: list(r) for f, r in s.factor_ranges.items()},
                },
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


MapCount = Callable[[Sequence[tuple[str, float]]], int]

# The policies without a parameter, as counts of best-ranked maps. "seqK" fuses
# the K best; K is ASCII digits without a leading zero, so each has one name.
_POLICIES: dict[str, MapCount] = {
    "baseline": len,
    "band": lambda ranked: len(select_band(ranked).selected_map_ids),
    "threshold": lambda ranked: sum(avg >= CONFIDENCE_THRESHOLD for _, avg in ranked),
}
_SEQ_POLICY = re.compile(r"seq(0|[1-9][0-9]*)")


def parse_policy(name: str) -> MapCount:
    """How many maps policy ``name`` fuses: a function from the ranking
    ((map_id, avg), best first) to a count k, the policy fusing the top k."""
    name = name.strip().lower()
    if name in _POLICIES:
        return _POLICIES[name]
    seq = _SEQ_POLICY.fullmatch(name)
    if seq:
        k = int(seq[1])
        if k < 1:
            raise ConfigError(f"seq policy needs k >= 1, got {k}")
        return lambda ranked: min(k, len(ranked))
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
    counts = [parse_policy(p)(ranked) for p in policies]
    fused = update(area, mods, [map_id for map_id, _ in ranked], counts, dparams, iparams)
    return {
        policy: PolicyOutcome(None if f is None else ame(f.lane_lines, truth.lane_lines))
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

    ``jobs`` threads evaluate the areas; one job is a plain loop in this
    thread. The report is the same for every ``jobs``, and the first failing
    area (in input order) raises. ``jobs`` below 1, a repeated policy and a
    repeated link id are rejected.
    """
    jobs = bounded_number(jobs, "jobs", 1)
    policies = parse_policies(policies)
    areas = list(areas)
    link_ids = [area.link_id for area in areas]
    repeated = [link_id for link_id, n in collections.Counter(link_ids).items() if n > 1]
    if repeated:
        raise InvalidInputError(f"link id {repeated[0]!r} appears in more than one area")
    args = (areas, itertools.repeat(policies), itertools.repeat(dparams), itertools.repeat(iparams))
    if jobs == 1:
        return EvaluationReport(policies, dict(zip(link_ids, map(evaluate_area, *args))))
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        return EvaluationReport(policies, dict(zip(link_ids, pool.map(evaluate_area, *args))))
