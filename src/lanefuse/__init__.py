"""Confidence-scored selection and fusion of crowdsourced lane maps."""

from .backends import (
    RemoteScorer,
    ReplayScorer,
    Scenario,
    ScorerRequest,
    ScorerResponse,
    SyntheticScorer,
    collect_assessment,
    synthetic_score,
)
from .clustering import DbscanParams, dbscan
from .confidence import (
    ALL_FACTORS_CONTEXT,
    DEFAULT_WEIGHTS,
    ContextProfile,
    WeightProfile,
    apply_context,
    dpcs,
    gcs,
    with_confidence,
)
from .config import load_profiles
from .evaluation import (
    AmeResult,
    EvaluationReport,
    SynthConfig,
    ame,
    run_experiment,
    standard_config,
    synth_generate,
)
from .fusion import (
    SelectionResult,
    align,
    fuse_maps,
    fuse_points,
    modify_add,
    modify_delete,
    modify_shift,
    rank_maps,
    select_band,
)
from .mapmodel import (
    LaneLine,
    LinkArea,
    LocalMap,
    Point3,
    average_confidence,
    load_link_area,
    save_link_area,
)
from .registration import IcpParams, IcpResult, RigidTransform, apply_transform, icp_align
from .scoring import (
    FactorKind,
    ImageAssessment,
    LogitVector,
    ScoreDistribution,
    assess_image,
    expected_factor_score,
    finalize_score,
    lane_confidence,
    lane_visibility_score,
    softmax_distribution,
    vacw_weight,
)

__version__ = "0.1.0"
