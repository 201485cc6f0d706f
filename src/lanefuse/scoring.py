"""Per-image scoring: factor answers and lane clarity -> calibrated scores.

The scorer backends answer each factor with a direct integer score, taken
as-is. A library caller may pass an 11-logit vector over the score levels
0..10 instead; it runs through softmax, an expectation damped by the
visibility weight and a ceiling step. Lane-marking clarity is not a factor:
it is a separate sigmoid-calibrated confidence that discretizes into the lane
visibility score, a field of its own on ``ImageAssessment``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .errors import IncompleteAssessmentError, InvalidInputError

SCORE_LEVELS = 11  # integer severity scale 0..10


class FactorKind(Enum):
    """The ten visibility-degradation factors; the order fixes CSV column order."""

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

    @property
    def key(self) -> str:
        return self.value


DEGRADATION_FACTORS: tuple[FactorKind, ...] = tuple(FactorKind)

FACTOR_BY_KEY: dict[str, FactorKind] = {f.value: f for f in FactorKind}


@dataclass(frozen=True)
class LogitVector:
    """Raw logits, one per score level 0..10."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = tuple(finite_number(v, "logit") for v in values)
        if len(vals) != SCORE_LEVELS:
            raise InvalidInputError(
                f"logit vector needs {SCORE_LEVELS} entries, got {len(vals)}"
            )
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
    x = finite_number(l_clear, "l_clear")
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


# The number rule of every JSON input; each reader turns InvalidInputError into
# its own error class. Bools (ints to Python) and the NaN and Infinity that
# Python's JSON decoder reads are rejected.


def exact_int(value, name: str) -> int:
    """``value`` as an int: an int, or a float with no fractional part. A bool,
    a string or other non-number, a fraction, NaN or an infinity raises
    InvalidInputError instead of being converted or truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite_number(value, name: str) -> float:
    """``value`` as a float: an int or a finite float. A bool, a string or
    other non-number, NaN or an infinity raises InvalidInputError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidInputError(f"{name} must be finite, got {value!r}")
    return number


def json_number(text: str) -> int | float:
    """Text (an INI value, a CLI flag) as a JSON number, or ValueError; the
    setting that takes it decides its type and bound."""
    try:
        value = json.loads(text, parse_constant=str)  # NaN and Infinity as strings
    except ValueError:
        value = None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("not a JSON number")
    return value


def bounded_number(value, name: str, low, *, exclusive=False, error=InvalidInputError):
    """A numeric setting read by the number rule and held to its lower bound.

    An int ``low`` makes an integer setting, read by ``exact_int`` (so 3.0 is
    3); a float ``low`` a real one, read by ``finite_number``. The bound is
    inclusive unless ``exclusive`` (``low=0.0, exclusive=True`` is a positive
    setting). A bad value raises ``error``, naming ``name``.
    """
    try:
        number = exact_int(value, name) if isinstance(low, int) else finite_number(value, name)
    except InvalidInputError as exc:
        raise error(str(exc)) from None
    if number < low or (exclusive and number == low):
        raise error(f"{name} must be {'>' if exclusive else '>='} {low:g}, got {value!r}")
    return number


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
        unknown = [repr(k) for k in self.factor_scores if not isinstance(k, FactorKind)]
        if unknown:
            raise InvalidInputError(f"unexpected factor scores: {', '.join(unknown)}")
        self.factor_scores = {k: _check_score(k.key, v) for k, v in self.factor_scores.items()}
        if self.lane_visibility is not None:
            self.lane_visibility = _check_score("lane_visibility", self.lane_visibility)
        self.timestamp = finite_number(self.timestamp, "timestamp")
        for name, top in (("lane_confidence", 1.0), ("confidence", 10.0)):
            value = getattr(self, name)
            if value is not None:
                value = finite_number(value, name)
                if not 0.0 <= value <= top:
                    raise InvalidInputError(f"{name} {value!r} outside [0, {top:g}]")
                setattr(self, name, value)

    def score_for(self, factor: FactorKind) -> int:
        """Severity for a factor; unscored or inactive factors count as 0."""
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
