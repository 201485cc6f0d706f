"""Scoring math: softmax, sigmoid calibration, discretization, composition."""

import math

import numpy as np
import pytest

from lanefuse.errors import IncompleteAssessmentError, InvalidInputError
from lanefuse.scoring import (
    DEGRADATION_FACTORS,
    FactorKind,
    ImageAssessment,
    LogitVector,
    ScoreDistribution,
    assess_image,
    exact_int,
    expected_factor_score,
    finalize_score,
    finite_number,
    lane_confidence,
    lane_visibility_score,
    softmax_distribution,
    vacw_weight,
)

# softmax([0, 1, ..., 10]) computed with 60-digit mpmath, frozen here.
SOFTMAX_0_TO_10 = [
    2.8698708289478109629e-05,
    7.801117724353531431e-05,
    2.1205636551779983458e-04,
    5.7642896499610456511e-04,
    1.5668963809463661e-03,
    4.2592659594047487303e-03,
    1.1577885260024109915e-02,
    3.1471955114307365889e-02,
    8.5549643693300426545e-02,
    2.3254804188264451115e-01,
    6.3213111649332555385e-01,
]


def test_factor_enumeration():
    assert len(FactorKind) == 11
    assert len(DEGRADATION_FACTORS) == 10
    assert FactorKind.LANE_VISIBILITY not in DEGRADATION_FACTORS


def test_softmax_equal_logits_is_uniform():
    dist = softmax_distribution([3.7] * 11)
    assert all(abs(p - 1.0 / 11.0) < 1e-12 for p in dist.probabilities)


def test_softmax_dominant_logit():
    logits = [0.0] * 11
    logits[8] = 50.0
    dist = softmax_distribution(logits)
    assert dist.probabilities[8] > 1.0 - 1e-9


def test_softmax_matches_high_precision_reference():
    dist = softmax_distribution(list(range(11)))
    for got, want in zip(dist.probabilities, SOFTMAX_0_TO_10):
        assert got == pytest.approx(want, abs=1e-15)


def test_softmax_sum_and_shift_invariance_fuzzed():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        logits = rng.uniform(-60.0, 60.0, size=11)
        dist = softmax_distribution(logits)
        assert abs(sum(dist.probabilities) - 1.0) <= 1e-9
        shifted = softmax_distribution(logits + rng.uniform(-100.0, 100.0))
        for a, b in zip(dist.probabilities, shifted.probabilities):
            assert abs(a - b) <= 1e-9


def test_softmax_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        softmax_distribution([float("nan")] * 11)
    with pytest.raises(InvalidInputError):
        softmax_distribution([0.0] * 10)
    with pytest.raises(InvalidInputError):
        LogitVector([float("inf")] + [0.0] * 10)


def test_distribution_invariants():
    with pytest.raises(InvalidInputError):
        ScoreDistribution([0.5] * 11)  # sums to 5.5
    with pytest.raises(InvalidInputError):
        ScoreDistribution([1.2] + [-0.2 / 10] * 10)


def test_lane_confidence_examples():
    assert lane_confidence(0.0) == 0.5
    assert lane_confidence(-100.0) < 1e-40
    assert lane_confidence(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(InvalidInputError):
        lane_confidence(float("nan"))


def test_lane_confidence_never_overflows():
    assert lane_confidence(1000.0) == 1.0
    assert lane_confidence(-1000.0) == 0.0


def test_lane_visibility_score_rounding():
    assert lane_visibility_score(0.5) == 5
    assert lane_visibility_score(0.0) == 0
    assert lane_visibility_score(1.0) == 10
    # 10 * 0.05 = 0.5 rounds away from zero
    assert lane_visibility_score(0.05) == 1


def test_lane_visibility_score_monotone():
    values = [lane_visibility_score(c) for c in np.linspace(0.0, 1.0, 101)]
    assert values == sorted(values)


def test_vacw_weight():
    assert vacw_weight(1.0) == 0.0
    assert vacw_weight(0.0) == 1.0
    assert vacw_weight(0.25) == 0.75
    with pytest.raises(InvalidInputError):
        vacw_weight(1.5)


def one_hot(i):
    probs = [0.0] * 11
    probs[i] = 1.0
    return ScoreDistribution(probs)


def test_expected_factor_score_examples():
    assert expected_factor_score(one_hot(8), 1.0) == 8.0
    uniform = ScoreDistribution([1.0 / 11.0] * 11)
    assert expected_factor_score(uniform, 1.0) == pytest.approx(5.0, abs=1e-12)
    assert expected_factor_score(one_hot(8), 0.5) == 4.0


def test_expected_factor_score_monotone_in_weight_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dist = softmax_distribution(rng.uniform(-5, 5, size=11))
        previous = -1.0
        for w in np.linspace(0.0, 1.0, 11):
            value = expected_factor_score(dist, w)
            assert value >= previous
            assert value <= 10.0 * w + 1e-12
            previous = value


def test_finalize_score():
    assert finalize_score(4.0) == 4
    assert finalize_score(4.01) == 5
    assert finalize_score(0.0) == 0
    with pytest.raises(InvalidInputError):
        finalize_score(10.5)
    with pytest.raises(InvalidInputError):
        finalize_score(-0.1)


def test_finalize_of_expected_always_in_range_fuzzed():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        dist = softmax_distribution(rng.uniform(-30, 30, size=11))
        w = float(rng.uniform(0.0, 1.0))
        assert finalize_score(expected_factor_score(dist, w)) in range(11)


def test_pipeline_identity_on_one_hot_with_full_weight():
    for i in range(11):
        assert finalize_score(expected_factor_score(one_hot(i), 1.0)) == i


def test_assess_image_direct_scores_bypass_vacw():
    outputs = {f: 0 for f in DEGRADATION_FACTORS}
    a = assess_image("img", outputs, l_clear=100.0)
    assert all(v == 0 for v in a.factor_scores.values())
    assert a.lane_visibility == 10


def test_assess_image_logit_path_hand_composed():
    # one-hot logits at 6, l_clear = 0 -> C_L = 0.5, w = 0.5, ceil(3.0) = 3
    logits = [0.0] * 11
    logits[6] = 60.0
    outputs = {FactorKind.BLUR_DAY: LogitVector(logits)}
    a = assess_image("img", outputs, l_clear=0.0, factors=[FactorKind.BLUR_DAY])
    assert a.factor_scores[FactorKind.BLUR_DAY] == 3
    assert a.lane_visibility == 5
    assert a.lane_confidence == 0.5


def test_assess_image_missing_factor_names_it():
    with pytest.raises(IncompleteAssessmentError, match="rain"):
        assess_image("img", {}, l_clear=0.0, factors=[FactorKind.RAIN])


def test_assessment_validation():
    with pytest.raises(InvalidInputError):
        ImageAssessment("x", factor_scores={FactorKind.RAIN: 11})
    with pytest.raises(InvalidInputError):
        ImageAssessment("x", lane_visibility=-1)
    with pytest.raises(InvalidInputError):
        ImageAssessment("x", confidence=10.5)
    with pytest.raises(InvalidInputError):
        ImageAssessment("x", factor_scores={FactorKind.LANE_VISIBILITY: 5})


def test_number_checkers_accept_numbers_only():
    assert exact_int(3, "n") == 3 and exact_int(3.0, "n") == 3 and type(exact_int(3.0, "n")) is int
    assert finite_number(3, "x") == 3.0 and type(finite_number(3, "x")) is float
    assert finite_number(-0.5, "x") == -0.5
    for value in (True, "3", None, 3.5, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            exact_int(value, "n")
    for value in (False, "0.5", None, [1.0]):
        with pytest.raises(InvalidInputError, match="x must be a number"):
            finite_number(value, "x")
    for value in (math.nan, -math.inf, 10**400):
        with pytest.raises(InvalidInputError, match="x must be finite"):
            finite_number(value, "x")
