"""ICP and rigid-transform estimation against constructed ground truth."""

import numpy as np
import pytest

from lanefuse.errors import DegenerateGeometryError, InvalidInputError
from lanefuse.mapmodel import LaneLine, LocalMap, Point3
from lanefuse.registration import (
    IcpParams,
    RigidTransform,
    apply_transform,
    estimate_rigid_transform,
    icp_align,
)
from oracles import random_rigid_transform, rodrigues

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
    with pytest.raises(InvalidInputError):
        IcpParams(max_iterations=0)
    with pytest.raises(InvalidInputError):
        IcpParams(convergence_tol=0.0)
    with pytest.raises(InvalidInputError):
        IcpParams(max_correspondence_dist=-1.0)


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
