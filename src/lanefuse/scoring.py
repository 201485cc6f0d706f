"""Per-image scoring: logits over score levels -> calibrated factor scores.

Raw backend outputs come in two shapes: an 11-logit vector over the score
levels 0..10, or a direct integer score. Logit vectors run through softmax,
visibility-weighted expectation and a ceiling step; direct scores are taken
as-is. Lane-marking clarity is a separate sigmoid-calibrated confidence that
both discretizes into the lane visibility score and damps the other factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .errors import IncompleteAssessmentError, InvalidInputError

SCORE_LEVELS = 11  # integer severity scale 0..10


class FactorKind(Enum):
    """The ten visibility-degradation factors plus lane visibility itself."""

    BLUR_DAY = "blur_day"
    BLUR_NIGHT = "blur_night"
    BLUR_STREETLIGHT = "blur_streetlight"
    ILLUMINATION = "illumination"
    RAIN = "rain"
    SNOW = "snow"
    FOG = "fog"
    SANDSTORM = "sandstorm"
    OCCLUSION = "occlusion"
    DEGRADATION = "degradation"
    LANE_VISIBILITY = "lane_visibility"

    @property
    def key(self) -> str:
        return self.value


# Every factor except lane visibility; the order fixes CSV column order.
DEGRADATION_FACTORS: tuple[FactorKind, ...] = tuple(
    f for f in FactorKind if f is not FactorKind.LANE_VISIBILITY
)

FACTOR_BY_KEY: dict[str, FactorKind] = {f.value: f for f in FactorKind}


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class LogitVector:
    """Raw logits, one per score level 0..10."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if len(vals) != SCORE_LEVELS:
            raise InvalidInputError(
                f"logit vector needs {SCORE_LEVELS} entries, got {len(vals)}"
            )
        for v in vals:
            _require_finite("logit", v)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ScoreDistribution:
    """Probability of each score level 0..10; sums to one."""

    probabilities: tuple[float, ...]

    def __init__(self, probabilities: Sequence[float]):
        probs = tuple(float(p) for p in probabilities)
        if len(probs) != SCORE_LEVELS:
            raise InvalidInputError(
                f"distribution needs {SCORE_LEVELS} entries, got {len(probs)}"
            )
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise InvalidInputError("probabilities must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise InvalidInputError(f"probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "probabilities", probs)


def softmax_distribution(logits: Union[LogitVector, Sequence[float]]) -> ScoreDistribution:
    """Softmax over the 11 score-level logits, max-subtracted for stability."""
    if not isinstance(logits, LogitVector):
        logits = LogitVector(logits)
    m = max(logits.values)
    exps = [math.exp(v - m) for v in logits.values]
    total = sum(exps)
    return ScoreDistribution(tuple(e / total for e in exps))


def lane_confidence(l_clear: float) -> float:
    """Sigmoid of the lane-clarity logit; a confidence in [0, 1]."""
    x = _require_finite("l_clear", l_clear)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def lane_visibility_score(c: float) -> int:
    """Discretize lane-clarity confidence to an integer 0..10.

    Rounds half away from zero, so e.g. 0.05 -> 1.
    """
    if not 0.0 <= c <= 1.0:
        raise InvalidInputError(f"lane confidence {c!r} outside [0, 1]")
    return int(math.floor(10.0 * c + 0.5))


def vacw_weight(c: float) -> float:
    """Visibility-aware confidence weight: 1 - C_L.

    Clearly visible lanes (c near 1) null out ambient-degradation scoring.
    """
    if not 0.0 <= c <= 1.0:
        raise InvalidInputError(f"lane confidence {c!r} outside [0, 1]")
    return 1.0 - c


def expected_factor_score(dist: ScoreDistribution, w: float) -> float:
    """Probability-weighted mean score level, scaled by the visibility weight."""
    if not 0.0 <= w <= 1.0:
        raise InvalidInputError(f"weight {w!r} outside [0, 1]")
    return w * sum(i * p for i, p in enumerate(dist.probabilities))


def finalize_score(s: float) -> int:
    """Ceil to the integer scale; input must already lie in [0, 10]."""
    if not 0.0 <= s <= 10.0:
        raise InvalidInputError(f"score {s!r} outside [0, 10]")
    return int(math.ceil(s))


def exact_int(value, name: str) -> int:
    """``value`` as an int. A bool or a number with a fractional part (or an
    infinite or NaN one) raises InvalidInputError instead of being truncated;
    other values go through ``int()``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_score(name: str, value: int) -> int:
    if type(value) is not int:  # the common case skips building the name
        value = exact_int(value, f"{name} score")
    if not 0 <= value <= 10:
        raise InvalidInputError(f"{name} score {value} outside 0..10")
    return value


@dataclass
class ImageAssessment:
    """Everything the pipeline knows about one image.

    ``factor_scores`` holds integer severities for the degradation factors;
    ``lane_visibility`` is the discretized clarity score; ``confidence`` is
    filled later by the confidence module and stays None until then. Records
    loaded from not-yet-scored map files may have all of these unset.
    """

    image_id: str
    timestamp: float = 0.0
    factor_scores: dict[FactorKind, int] = field(default_factory=dict)
    lane_visibility: int | None = None
    lane_confidence: float | None = None
    confidence: float | None = None

    def __post_init__(self):
        self.factor_scores = {
            k: _check_score(k.key, v) for k, v in self.factor_scores.items()
        }
        if FactorKind.LANE_VISIBILITY in self.factor_scores:
            raise InvalidInputError(
                "lane_visibility is a dedicated field, not a factor score"
            )
        if self.lane_visibility is not None:
            self.lane_visibility = _check_score("lane_visibility", self.lane_visibility)
        if self.lane_confidence is not None:
            if not 0.0 <= self.lane_confidence <= 1.0:
                raise InvalidInputError(
                    f"lane_confidence {self.lane_confidence!r} outside [0, 1]"
                )
        if self.confidence is not None:
            if not 0.0 <= self.confidence <= 10.0:
                raise InvalidInputError(
                    f"confidence {self.confidence!r} outside [0, 10]"
                )

    def score_for(self, factor: FactorKind) -> int:
        """Severity for a factor; unscored or inactive factors count as 0."""
        if factor is FactorKind.LANE_VISIBILITY:
            return self.lane_visibility or 0
        return self.factor_scores.get(factor, 0)


BackendOutput = Union[LogitVector, int]


def assess_image(
    image_id: str,
    backend_outputs: Mapping[FactorKind, BackendOutput],
    l_clear: float,
    *,
    timestamp: float = 0.0,
    factors: Iterable[FactorKind] = DEGRADATION_FACTORS,
) -> ImageAssessment:
    """Build an ImageAssessment from raw backend outputs.

    Each active factor must appear in ``backend_outputs`` either as a direct
    integer score (taken as-is) or an 11-logit vector (softmax, expectation
    under the visibility weight, then ceil). Lane clarity always comes from
    ``l_clear``.
    """
    c_l = lane_confidence(l_clear)
    w = vacw_weight(c_l)
    scores: dict[FactorKind, int] = {}
    for factor in factors:
        if factor is FactorKind.LANE_VISIBILITY:
            continue
        if factor not in backend_outputs:
            raise IncompleteAssessmentError(
                f"no backend output for active factor '{factor.key}'"
            )
        out = backend_outputs[factor]
        if isinstance(out, LogitVector):
            dist = softmax_distribution(out)
            scores[factor] = finalize_score(expected_factor_score(dist, w))
        else:
            scores[factor] = _check_score(factor.key, out)
    return ImageAssessment(
        image_id=image_id,
        timestamp=timestamp,
        factor_scores=scores,
        lane_visibility=lane_visibility_score(c_l),
        lane_confidence=c_l,
    )
