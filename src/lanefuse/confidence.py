"""Per-image confidence: piecewise (DPCS) and general (GCS) scoring.

Both scores combine the lane visibility score S_L (from the clarity probe,
not a factor, so no context turns it off) with a weighted deduction over the
ten degradation factor severities. DPCS switches behaviour on S_L bands so a
mid-visibility image is judged on visibility alone, while GCS applies one
formula everywhere. Inactive factors (per context) contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .errors import ConfigError, InvalidInputError
from .scoring import DEGRADATION_FACTORS, FactorKind, ImageAssessment, bounded_number


@dataclass(frozen=True)
class WeightProfile:
    """Lane weight plus one weight per degradation factor."""

    lane_weight: float
    factor_weights: Mapping[FactorKind, float]

    def __post_init__(self):
        lane_weight = bounded_number(self.lane_weight, "lane_weight", 0.0, exclusive=True)
        weights = dict(self.factor_weights)
        missing = [f.key for f in DEGRADATION_FACTORS if f not in weights]
        if missing:
            raise InvalidInputError(f"missing factor weights: {', '.join(missing)}")
        extra = [repr(f) for f in weights if not isinstance(f, FactorKind)]
        if extra:
            raise InvalidInputError(f"unexpected factor weights: {', '.join(extra)}")
        weights = {f: bounded_number(w, f"{f.key} weight", 0.0) for f, w in weights.items()}
        object.__setattr__(self, "lane_weight", lane_weight)
        object.__setattr__(self, "factor_weights", weights)


# Production weighting: lane visibility dominates at 1.0, the common
# degradations share 0.2, rare sandstorms get 0.1.
DEFAULT_WEIGHTS = WeightProfile(
    lane_weight=1.0,
    factor_weights={
        FactorKind.BLUR_DAY: 0.2,
        FactorKind.BLUR_NIGHT: 0.2,
        FactorKind.BLUR_STREETLIGHT: 0.2,
        FactorKind.ILLUMINATION: 0.2,
        FactorKind.RAIN: 0.2,
        FactorKind.SNOW: 0.2,
        FactorKind.FOG: 0.2,
        FactorKind.SANDSTORM: 0.1,
        FactorKind.OCCLUSION: 0.2,
        FactorKind.DEGRADATION: 0.2,
    },
)


@dataclass(frozen=True)
class ContextProfile:
    """Which degradation factors are relevant under the current conditions."""

    active_factors: frozenset[FactorKind]

    def __post_init__(self):
        factors = frozenset(self.active_factors)
        unknown = sorted(repr(f) for f in factors if not isinstance(f, FactorKind))
        if unknown:
            raise InvalidInputError(f"unexpected context factors: {', '.join(unknown)}")
        object.__setattr__(self, "active_factors", factors)

    def is_active(self, factor: FactorKind) -> bool:
        return factor in self.active_factors


ALL_FACTORS_CONTEXT = ContextProfile(active_factors=frozenset(DEGRADATION_FACTORS))

# Daytime clear-weather collection: weather factors and night blur are
# irrelevant and would only invite spurious deductions.
CLEAR_DAY_CONTEXT = ContextProfile(
    active_factors=frozenset(
        {
            FactorKind.BLUR_DAY,
            FactorKind.ILLUMINATION,
            FactorKind.DEGRADATION,
            FactorKind.OCCLUSION,
        }
    ),
)

BUILTIN_CONTEXTS = {
    "all": ALL_FACTORS_CONTEXT,
    "clear-day": CLEAR_DAY_CONTEXT,
}


@dataclass(frozen=True)
class ConfidenceDetail:
    """Confidence value plus how it was reached, for diagnostics."""

    value: float
    branch: str
    raw_value: float
    clamped: bool


def weighted_deduction(
    assessment: ImageAssessment,
    weights: WeightProfile,
    context: ContextProfile,
) -> float:
    """Sum of score * weight over the active degradation factors."""
    return sum(
        assessment.score_for(f) * weights.factor_weights[f]
        for f in DEGRADATION_FACTORS
        if context.is_active(f)
    )


def _clamp(raw: float, branch: str) -> ConfidenceDetail:
    value = min(10.0, max(0.0, raw))
    return ConfidenceDetail(value=value, branch=branch, raw_value=raw, clamped=value != raw)


def dpcs_detail(
    assessment: ImageAssessment,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
) -> ConfidenceDetail:
    """Dynamic piecewise confidence with branch/clamp diagnostics.

    S_L = 0 dominates every other case: such images are unusable regardless
    of the remaining scores.
    """
    s_l = assessment.lane_visibility
    if s_l is None:
        raise InvalidInputError(f"image {assessment.image_id!r} has no lane visibility score")
    lane_term = s_l * weights.lane_weight
    deduction = weighted_deduction(assessment, weights, context)
    if s_l == 0:
        return ConfidenceDetail(value=0.0, branch="zero", raw_value=0.0, clamped=False)
    if s_l < 5:
        return _clamp(abs(lane_term - deduction), "low")
    if s_l <= 7:
        return _clamp(lane_term, "mid")
    return _clamp(lane_term - deduction, "high")


def dpcs(
    assessment: ImageAssessment,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
) -> float:
    return dpcs_detail(assessment, weights, context).value


def gcs_detail(
    assessment: ImageAssessment,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
) -> ConfidenceDetail:
    """General confidence: |S_L * W_L - deduction| whenever S_L > 0."""
    s_l = assessment.lane_visibility
    if s_l is None:
        raise InvalidInputError(f"image {assessment.image_id!r} has no lane visibility score")
    if s_l == 0:
        return ConfidenceDetail(value=0.0, branch="zero", raw_value=0.0, clamped=False)
    raw = abs(s_l * weights.lane_weight - weighted_deduction(assessment, weights, context))
    return _clamp(raw, "general")


def gcs(
    assessment: ImageAssessment,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
) -> float:
    return gcs_detail(assessment, weights, context).value


# The confidence methods by name: with_confidence, --method and the INI
# ``method`` key all accept exactly these.
CONFIDENCE_METHODS = {"dpcs": dpcs, "gcs": gcs}


def with_confidence(
    assessment: ImageAssessment,
    weights: WeightProfile = DEFAULT_WEIGHTS,
    context: ContextProfile = ALL_FACTORS_CONTEXT,
    method: str = "dpcs",
) -> ImageAssessment:
    """Return a copy with the confidence field filled in."""
    confidence = CONFIDENCE_METHODS.get(method)
    if confidence is None:
        raise ConfigError(f"unknown confidence method {method!r}")
    return replace(assessment, confidence=confidence(assessment, weights, context))
