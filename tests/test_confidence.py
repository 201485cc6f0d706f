"""DPCS/GCS behaviour, context gating, and profile files."""

import numpy as np
import pytest

from lanefuse.confidence import (
    ALL_FACTORS_CONTEXT,
    CLEAR_DAY_CONTEXT,
    CONFIDENCE_METHODS,
    DEFAULT_WEIGHTS,
    ContextProfile,
    WeightProfile,
    apply_context,
    dpcs,
    dpcs_detail,
    gcs,
    weighted_deduction,
    with_confidence,
)
from lanefuse.config import load_profiles
from lanefuse.errors import ConfigError, InvalidInputError
from lanefuse.scoring import DEGRADATION_FACTORS, FactorKind, ImageAssessment

F = FactorKind


def make(scores, s_l, c_l=0.5):
    return ImageAssessment(
        "img", factor_scores=scores, lane_visibility=s_l, lane_confidence=c_l
    )


# The three worked examples from the score-explanation table: blur/illumination/
# degradation/occlusion plus visibility, confidences 1.8, 6 and 9.6.
TABLE_LOW = make({F.BLUR_DAY: 1, F.ILLUMINATION: 5, F.DEGRADATION: 0, F.OCCLUSION: 0}, 3)
TABLE_MID = make({F.BLUR_DAY: 0, F.ILLUMINATION: 2, F.DEGRADATION: 0, F.OCCLUSION: 1}, 6)
TABLE_HIGH = make({F.BLUR_DAY: 0, F.ILLUMINATION: 1, F.DEGRADATION: 0, F.OCCLUSION: 1}, 10)

# Columns of the model-vs-human comparison: the zero-visibility image, the
# post-snow scene, and the rainy scene.
CMP_COL1 = make(
    {F.BLUR_DAY: 3, F.ILLUMINATION: 7, F.SANDSTORM: 2, F.OCCLUSION: 2}, 0
)
CMP_COL2 = make({F.BLUR_DAY: 2, F.SNOW: 3, F.OCCLUSION: 2}, 7)
CMP_COL3 = make({F.BLUR_DAY: 2, F.RAIN: 3, F.OCCLUSION: 2}, 9)


def test_default_weights():
    assert DEFAULT_WEIGHTS.lane_weight == 1.0
    assert DEFAULT_WEIGHTS.factor_weights[F.SANDSTORM] == 0.1
    for factor in DEGRADATION_FACTORS:
        if factor is not F.SANDSTORM:
            assert DEFAULT_WEIGHTS.factor_weights[factor] == 0.2


def test_dpcs_low_band_table_value():
    assert dpcs(TABLE_LOW) == pytest.approx(1.8, abs=1e-9)


def test_dpcs_mid_band_ignores_other_factors():
    assert dpcs(TABLE_MID) == pytest.approx(6.0, abs=1e-9)


def test_dpcs_high_band_table_value():
    assert dpcs(TABLE_HIGH) == pytest.approx(9.6, abs=1e-9)


def test_dpcs_comparison_columns():
    assert dpcs(CMP_COL1) == 0.0
    assert dpcs(CMP_COL2) == pytest.approx(7.0, abs=1e-9)
    assert dpcs(CMP_COL3) == pytest.approx(7.6, abs=1e-9)


def test_gcs_comparison_columns():
    assert gcs(CMP_COL1) == 0.0
    assert gcs(CMP_COL3) == pytest.approx(7.6, abs=1e-9)
    # The formula gives 5.6 here; the reference table lists 5 without
    # explanation, so the formula value stands (see README discrepancies).
    assert gcs(CMP_COL2) == pytest.approx(5.6, abs=1e-9)


def test_zero_visibility_dominates_everything():
    rng = np.random.default_rng(1)
    for _ in range(50):
        scores = {f: int(rng.integers(0, 11)) for f in DEGRADATION_FACTORS}
        a = make(scores, 0)
        assert dpcs(a) == 0.0
        assert gcs(a) == 0.0


def test_mid_band_is_independent_of_other_scores():
    rng = np.random.default_rng(2)
    for s_l in (5, 6, 7):
        base = dpcs(make({}, s_l))
        for _ in range(25):
            scores = {f: int(rng.integers(0, 11)) for f in DEGRADATION_FACTORS}
            assert dpcs(make(scores, s_l)) == base


def test_high_band_strictly_increasing_in_visibility():
    scores = {F.BLUR_DAY: 2, F.RAIN: 1}
    assert dpcs(make(scores, 9)) > dpcs(make(scores, 8))
    assert dpcs(make(scores, 10)) > dpcs(make(scores, 9))


def test_outputs_always_in_range_fuzzed():
    rng = np.random.default_rng(3)
    for _ in range(500):
        scores = {f: int(rng.integers(0, 11)) for f in DEGRADATION_FACTORS}
        a = make(scores, int(rng.integers(0, 11)))
        assert 0.0 <= dpcs(a) <= 10.0
        assert 0.0 <= gcs(a) <= 10.0


def test_high_band_clamps_at_zero_and_flags_it():
    scores = {f: 10 for f in DEGRADATION_FACTORS}
    detail = dpcs_detail(make(scores, 8))  # 8 - 19 = -11 before the clamp
    assert detail.value == 0.0
    assert detail.clamped
    assert detail.raw_value == pytest.approx(8.0 - 19.0, abs=1e-9)


def test_all_zero_factors_reduce_to_lane_term():
    for s_l in range(1, 11):
        a = make({}, s_l)
        assert dpcs(a) == pytest.approx(min(10.0, s_l * 1.0), abs=1e-12)
        assert gcs(a) == pytest.approx(min(10.0, s_l * 1.0), abs=1e-12)


def test_apply_context_zeroes_inactive_factors():
    a = make({F.RAIN: 3, F.BLUR_DAY: 1}, 8)
    gated = apply_context(CLEAR_DAY_CONTEXT, a)
    assert gated.factor_scores[F.RAIN] == 0
    assert gated.factor_scores[F.BLUR_DAY] == 1
    assert gated.lane_visibility == 8


def test_apply_context_all_active_is_identity():
    a = make({F.RAIN: 3, F.FOG: 2}, 4)
    assert apply_context(ALL_FACTORS_CONTEXT, a).factor_scores == a.factor_scores


def test_lane_only_context():
    lane_only = ContextProfile(active_factors=frozenset())
    a = make({f: 7 for f in DEGRADATION_FACTORS}, 4)
    assert weighted_deduction(a, DEFAULT_WEIGHTS, lane_only) == 0.0
    assert dpcs(a, context=lane_only) == pytest.approx(4.0, abs=1e-12)


def test_context_gating_equals_zero_weight():
    rng = np.random.default_rng(4)
    no_rain_ctx = ContextProfile(
        active_factors=frozenset(set(DEGRADATION_FACTORS) - {F.RAIN})
    )
    weights = {f: w for f, w in DEFAULT_WEIGHTS.factor_weights.items()}
    weights[F.RAIN] = 0.0
    no_rain_weights = WeightProfile("no-rain", 1.0, weights)
    for _ in range(100):
        scores = {f: int(rng.integers(0, 11)) for f in DEGRADATION_FACTORS}
        a = make(scores, int(rng.integers(0, 11)))
        assert dpcs(a, DEFAULT_WEIGHTS, no_rain_ctx) == dpcs(a, no_rain_weights)
        assert gcs(a, DEFAULT_WEIGHTS, no_rain_ctx) == gcs(a, no_rain_weights)


def test_with_confidence_fills_field():
    out = with_confidence(CMP_COL3)
    assert out.confidence == pytest.approx(7.6, abs=1e-9)
    assert CMP_COL3.confidence is None  # original untouched
    with pytest.raises(ConfigError):
        with_confidence(CMP_COL3, method="mystery")


def test_with_confidence_computes_each_method_of_the_table():
    assert list(CONFIDENCE_METHODS) == ["dpcs", "gcs"]
    for a in (TABLE_LOW, TABLE_MID, TABLE_HIGH, CMP_COL3):
        for name, method in CONFIDENCE_METHODS.items():
            assert with_confidence(a, method=name).confidence == method(a)
    assert with_confidence(TABLE_MID, method="gcs").confidence != dpcs(TABLE_MID)


def test_weight_profile_validation():
    with pytest.raises(InvalidInputError):
        WeightProfile("p", 0.0, DEFAULT_WEIGHTS.factor_weights)
    with pytest.raises(InvalidInputError):
        WeightProfile("p", 1.0, {F.RAIN: 0.2})  # missing the rest


def test_profiles_roundtrip_through_file(tmp_path):
    path = tmp_path / "profiles.ini"
    path.write_text(
        """
[weights.heavy]
lane_weight = 2.0
blur_day = 0.3
blur_night = 0.3
blur_streetlight = 0.3
illumination = 0.3
rain = 0.4
snow = 0.4
fog = 0.4
sandstorm = 0.2
occlusion = 0.3
degradation = 0.3

[context.storm]
factors = rain, snow, fog, occlusion
"""
    )
    weights, contexts = load_profiles(path)
    assert weights["heavy"].lane_weight == 2.0
    assert weights["heavy"].factor_weights[F.RAIN] == 0.4
    storm = contexts["storm"]
    assert storm.is_active(F.RAIN)
    assert not storm.is_active(F.BLUR_DAY)
    assert storm.is_active(F.LANE_VISIBILITY)


def test_profile_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_profiles(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[weights.x]\nlane_weight = 1.0\nwhirlwind = 0.2\n")
    with pytest.raises(ConfigError):
        load_profiles(bad)
