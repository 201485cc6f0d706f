"""ICP and rigid-transform estimation against constructed ground truth."""

import numpy as np
import pytest
import scipy.spatial

import lanefuse.fusion
from lanefuse.errors import DegenerateGeometryError, InvalidInputError
from lanefuse.evaluation import SynthConfig, evaluate_area, prior_map, standard_config, synth_generate
from lanefuse.mapmodel import LaneLine, LocalMap, Point3
from lanefuse.registration import (
    IcpParams,
    RigidTransform,
    apply_transform,
    estimate_rigid_transform,
    icp_align,
)
from oracles import full_search_icp, random_rigid_transform, rodrigues

UNGATED = IcpParams(max_iterations=200, convergence_tol=1e-13, max_correspondence_dist=1e9)


def cloud(rng, n=200):
    return rng.uniform(0.0, 10.0, size=(n, 3))


def test_rigid_transform_validation():
    with pytest.raises(InvalidInputError):
        RigidTransform(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidInputError):
        RigidTransform(rotation=reflection, translation=np.zeros(3))


def test_estimate_recovers_exact_pairing():
    rng = np.random.default_rng(3)
    src = cloud(rng, 100)
    r, t = random_rigid_transform(rng)
    est_r, est_t = estimate_rigid_transform(src, src @ r.T + t)
    assert np.linalg.norm(est_r - r) < 1e-9
    assert np.linalg.norm(est_t - t) < 1e-9


def test_estimate_handles_reflection_temptation():
    # Nearly planar data tempts the SVD into a reflection; det must stay +1.
    rng = np.random.default_rng(4)
    src = cloud(rng, 60)
    src[:, 2] *= 1e-9
    r = rodrigues(np.array([0.0, 0.0, 1.0]), 0.3)
    est_r, _ = estimate_rigid_transform(src, src @ r.T)
    assert abs(np.linalg.det(est_r) - 1.0) < 1e-9


def test_estimate_turns_a_reflection_into_a_rotation():
    # A planar cloud and its mirror image across the xz-plane: the SVD's
    # plain product is a reflection, and the fit flips it into the half
    # turn about x, which maps the plane onto its mirror exactly.
    src = cloud(np.random.default_rng(6), 20)
    src[:, 2] = 0.0
    tgt = src * [1.0, -1.0, 1.0]
    u, _, vt = np.linalg.svd((src - src.mean(axis=0)).T @ (tgt - tgt.mean(axis=0)))
    assert np.linalg.det(vt.T @ u.T) == pytest.approx(-1.0)
    est_r, est_t = estimate_rigid_transform(src, tgt)
    assert np.linalg.det(est_r) == pytest.approx(1.0)
    assert np.allclose(src @ est_r.T + est_t, tgt, atol=1e-12)


def test_icp_identity_on_identical_clouds():
    rng = np.random.default_rng(5)
    pts = cloud(rng)
    res = icp_align(pts, pts, UNGATED)
    assert res.rms_residual < 1e-9
    assert np.linalg.norm(res.transform.rotation - np.eye(3)) < 1e-9
    assert np.linalg.norm(res.transform.translation) < 1e-9


def test_icp_recovers_pure_translation():
    rng = np.random.default_rng(6)
    src = cloud(rng)
    t = np.array([1.0, 2.0, 0.0])
    res = icp_align(src, src + t, UNGATED)
    assert np.linalg.norm(res.transform.translation - t) < 1e-6
    assert np.linalg.norm(res.transform.rotation - np.eye(3)) < 1e-6


def test_icp_recovers_rotation_plus_translation():
    rng = np.random.default_rng(7)
    src = cloud(rng)
    r = rodrigues(np.array([0.0, 0.0, 1.0]), np.deg2rad(10.0))
    t = np.array([0.5, -0.3, 0.0])
    res = icp_align(src, src @ r.T + t, UNGATED)
    assert np.linalg.norm(res.transform.rotation - r) < 1e-6
    assert np.linalg.norm(res.transform.translation - t) < 1e-6
    assert res.converged


def test_icp_residual_never_increases():
    rng = np.random.default_rng(8)
    for _ in range(10):
        src = cloud(rng)
        r, t = random_rigid_transform(rng)
        res = icp_align(src, src @ r.T + t, UNGATED)
        h = res.residual_history
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))


def test_icp_collinear_source_is_degenerate():
    line = np.column_stack([np.linspace(0, 10, 50), np.zeros(50), np.zeros(50)])
    target = np.random.default_rng(9).uniform(0, 10, size=(50, 3))
    with pytest.raises(DegenerateGeometryError):
        icp_align(line, target)


def test_icp_too_few_gated_correspondences():
    rng = np.random.default_rng(10)
    src = cloud(rng, 20)
    target = src + 100.0  # far outside the 2 m gate
    with pytest.raises(DegenerateGeometryError):
        icp_align(src, target, IcpParams(max_correspondence_dist=2.0))


def test_icp_unconverged_is_flagged_not_raised():
    rng = np.random.default_rng(11)
    src = cloud(rng)
    r, t = random_rigid_transform(rng)
    res = icp_align(src, src @ r.T + t, IcpParams(max_iterations=1, convergence_tol=1e-13, max_correspondence_dist=1e9))
    assert not res.converged
    assert res.iterations == 1


def test_icp_checks_one_transform_per_fit(monkeypatch):
    # ICP iterates on (R, t) arrays; only the returned fit is a RigidTransform.
    checks = []
    original = RigidTransform.__post_init__

    def counted(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(RigidTransform, "__post_init__", counted)
    rng = np.random.default_rng(13)
    src = cloud(rng)
    r, t = random_rigid_transform(rng)
    res = icp_align(src, src @ r.T + t, UNGATED)
    assert res.iterations > 1
    assert len(checks) == 1


def test_icp_params_validation():
    for kwargs in [
        {"max_iterations": 0},
        {"max_iterations": 2.5},
        {"max_iterations": True},
        {"max_iterations": "50"},
        {"max_iterations": float("nan")},
        {"convergence_tol": 0.0},
        {"convergence_tol": True},
        {"convergence_tol": "1e-6"},
        {"convergence_tol": float("nan")},
        {"max_correspondence_dist": -1.0},
        {"max_correspondence_dist": False},
        {"max_correspondence_dist": float("inf")},
    ]:
        with pytest.raises(InvalidInputError, match=next(iter(kwargs))):
            IcpParams(**kwargs)


def test_icp_params_store_plain_numbers():
    params = IcpParams(max_iterations=3.0, convergence_tol=1, max_correspondence_dist=2)
    assert type(params.max_iterations) is int and params.max_iterations == 3
    assert type(params.convergence_tol) is float and params.convergence_tol == 1.0
    assert type(params.max_correspondence_dist) is float


# --- reuse of certified nearest neighbours -----------------------------------

POLICIES = ["baseline", "seq1", "seq3", "seq5", "band"]


def assert_same_icp(result, reference):
    assert np.array_equal(result.transform.rotation, reference.transform.rotation)
    assert np.array_equal(result.transform.translation, reference.transform.translation)
    assert result.residual_history == reference.residual_history
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(standard_config(0), id="0"),
        pytest.param(standard_config(1), id="1"),
        # 14 calls on 160 m lanes, one of which runs all 50 iterations.
        pytest.param(SynthConfig(seed=0, link_areas=2, lane_length=160.0), id="160m"),
    ],
)
def test_icp_matches_full_search_on_every_experiment_call(config, monkeypatch):
    calls = []
    icp = lanefuse.fusion.icp_align

    def recording(source, target, params):
        result = icp(source, target, params)
        calls.append((source, target, params, result))
        return result

    monkeypatch.setattr(lanefuse.fusion, "icp_align", recording)
    areas = synth_generate(config)
    for area in areas:
        evaluate_area(area, POLICIES)
    assert len(calls) == sum(len(a.local_maps) for a in areas)
    for source, target, params, result in calls:
        assert_same_icp(result, full_search_icp(source, target, params))


def _shifted_copy(rng, pts, angle_deg=2.0):
    r = rodrigues(np.array([0.0, 0.0, 1.0]), np.deg2rad(angle_deg))
    return pts @ r.T + rng.normal(scale=0.05, size=pts.shape) + [0.3, -0.2, 0.0]


def _ties(rng):
    # Every target point twice: each nearest distance is a tie (d1 == d2).
    tgt = cloud(rng, 150)
    return _shifted_copy(rng, tgt), np.vstack([tgt, tgt[::-1]]), IcpParams()


def _midpoint_ties(rng):
    # Every source point starts halfway between two distinct target points.
    tgt = np.array([[x, 3.5 * k, 0.0] for k in range(4) for x in range(40)], dtype=float)
    src = tgt[tgt[:, 0] < 39] + [0.5, 0.0, 0.0]
    src[:, 2] += rng.normal(scale=0.01, size=len(src))  # not collinear, ties kept
    return src, tgt, IcpParams()


def _partial_gate(rng):
    # A fifth of the source lies 50 m off, beyond the 2 m gate, on every iteration.
    tgt = cloud(rng, 200)
    src = _shifted_copy(rng, tgt)
    src[::5] += [50.0, 0.0, 0.0]
    return src, tgt, IcpParams()


def _certified_gate_crossings(rng):
    # Targets 10 m apart, so every nearest target stays certified while the
    # source slides about 0.6 m back onto them. Rows 2.5 m off their target
    # enter the 2 m gate on the way and rows 1.7 m off leave it, so each
    # iteration must gate on distances under the latest fit, not the last search.
    grid = np.array([[10.0 * i, 10.0 * k, 0.0] for i in range(10) for k in range(10)])
    tgt = grid + rng.normal(scale=0.05, size=grid.shape)
    src = tgt + [0.8, 0.0, 0.0] + rng.normal(scale=0.01, size=tgt.shape)
    src[::10] += [1.7, 0.0, 0.0]
    src[5::10] -= [2.5, 0.0, 0.0]
    return src, tgt, IcpParams()


def _one_iteration(rng):
    tgt = cloud(rng, 200)
    return _shifted_copy(rng, tgt), tgt, IcpParams(max_iterations=1)


def _map_frame(rng):
    # Map-frame coordinates: the certificate rests on differences, not magnitudes.
    tgt = cloud(rng, 200) + [500_000.0, 4_000_000.0, 0.0]
    return _shifted_copy(rng, tgt - tgt[0]) + tgt[0], tgt, IcpParams()


@pytest.mark.parametrize(
    "case",
    [_ties, _midpoint_ties, _partial_gate, _certified_gate_crossings, _one_iteration, _map_frame],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_icp_matches_full_search_on_targeted_cases(case, seed):
    source, target, params = case(np.random.default_rng(seed))
    assert_same_icp(icp_align(source, target, params), full_search_icp(source, target, params))


def test_icp_searches_only_points_it_cannot_certify(monkeypatch):
    searched = []

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, x, *args, **kwargs):
            searched.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    # One synthetic local map against its area's prior map, as fusion aligns it.
    area = synth_generate(SynthConfig(seed=0, link_areas=1, maps_per_area=1, images_per_map=1))[0]
    source = area.local_maps[0].lane_points()
    result = icp_align(source, prior_map(area.ground_truth, area.link_id).lane_points())
    assert result.converged and result.iterations >= 4
    assert searched[0] == len(source)
    # After the first search, most points keep their certified neighbour.
    assert sum(searched[1:]) < len(source) * (result.iterations - 1) / 4


def _toy_map():
    return LocalMap(
        map_id="m",
        link_area_id="a",
        lane_lines=[
            LaneLine("l0", [Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0)]),
            LaneLine("l1", [Point3(0, 3.5, 0), Point3(2, 3.5, 0)]),
        ],
    )


def test_apply_transform_identity_is_noop():
    m = _toy_map()
    out = apply_transform(RigidTransform(np.eye(3), np.zeros(3)), m)
    assert out.lane_points().tolist() == m.lane_points().tolist()


def test_apply_transform_translation_shifts_everything():
    m = _toy_map()
    t = RigidTransform(rotation=np.eye(3), translation=np.array([1.0, -2.0, 0.5]))
    out = apply_transform(t, m)
    assert np.allclose(out.lane_points(), m.lane_points() + [1.0, -2.0, 0.5])


def test_apply_transform_then_inverse_restores():
    rng = np.random.default_rng(12)
    r, tv = random_rigid_transform(rng)
    t = RigidTransform(rotation=r, translation=tv)
    m = _toy_map()
    inverse = RigidTransform(rotation=r.T, translation=-(r.T @ tv))
    back = apply_transform(inverse, apply_transform(t, m))
    assert np.allclose(back.lane_points(), m.lane_points(), atol=1e-9)
