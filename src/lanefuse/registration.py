"""Rigid alignment of local maps via iterative closest point.

The transform estimation is the closed-form least-squares fit: centroid
subtraction, SVD of the cross-covariance, reflection-corrected rotation.
ICP alternates nearest-neighbor matching (optionally gated by distance)
with re-estimation until the RMS residual stops improving. It iterates on
plain (R, t) arrays and returns one checked RigidTransform for the final fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .mapmodel import LaneLine, LocalMap

ORTHONORMAL_TOL = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """Proper rotation plus translation, mapping source-frame points p to R p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise InvalidInputError("rotation must be 3x3 and translation length 3")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise InvalidInputError("transform entries must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHONORMAL_TOL:
            raise InvalidInputError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise InvalidInputError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 50
    convergence_tol: float = 1e-6  # change in RMS residual, meters
    max_correspondence_dist: float = 2.0  # meters

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise InvalidInputError("max_iterations must be positive")
        for name in ("convergence_tol", "max_correspondence_dist"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class IcpResult:
    transform: RigidTransform
    rms_residual: float
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)


def _check_spread(points: np.ndarray, label: str) -> None:
    if len(points) < 3:
        raise DegenerateGeometryError(f"{label} has fewer than 3 points; cannot align")
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[1] <= 1e-12 * max(1.0, s[0]):
        raise DegenerateGeometryError(f"{label} points are collinear; cannot align")


def estimate_rigid_transform(
    source: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid fit (rotation, translation) for paired points
    source[i] -> target[i]; the rotation is proper and orthonormal."""
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim != 2 or src.shape[1] != 3:
        raise InvalidInputError("paired point sets must both be (n, 3)")
    if len(src) < 3:
        raise DegenerateGeometryError("need >= 3 correspondences for a rigid fit")
    c_src = src.mean(axis=0)
    c_tgt = tgt.mean(axis=0)
    h = (src - c_src).T @ (tgt - c_tgt)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    # Re-orthonormalize to keep the transform invariant within 1e-9.
    uu, _, vvt = np.linalg.svd(r)
    r = uu @ vvt
    t = c_tgt - r @ c_src
    return r, t


def icp_align(
    source: np.ndarray,
    target: np.ndarray,
    params: IcpParams = IcpParams(),
) -> IcpResult:
    """Align source points onto target; returns the transform and RMS residual.

    Each iteration matches every transformed source point to its nearest
    target point (pairs farther than max_correspondence_dist are dropped),
    re-estimates the closed-form transform on the matched pairs, and records
    the RMS distance under the updated transform. Stops when the residual
    change falls below convergence_tol; exceeding max_iterations yields a
    result flagged unconverged rather than an error.
    """
    from scipy.spatial import cKDTree  # on first use, as in clustering.dbscan

    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.ndim != 2 or src.shape[1] != 3 or tgt.ndim != 2 or tgt.shape[1] != 3:
        raise InvalidInputError("point sets must be (n, 3) arrays")
    _check_spread(src, "source")
    _check_spread(tgt, "target")

    tree = cKDTree(tgt)
    r, t = np.eye(3), np.zeros(3)
    history: list[float] = []
    prev = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, params.max_iterations + 1):
        moved = src @ r.T + t
        dist, idx = tree.query(moved)
        mask = dist <= params.max_correspondence_dist
        if int(mask.sum()) < 3:
            raise DegenerateGeometryError(
                f"only {int(mask.sum())} correspondences within "
                f"{params.max_correspondence_dist} m at iteration {iterations}"
            )
        pairs_src = src[mask]
        pairs_tgt = tgt[idx[mask]]
        r, t = estimate_rigid_transform(pairs_src, pairs_tgt)
        errs = np.linalg.norm(pairs_src @ r.T + t - pairs_tgt, axis=1)
        rms = float(np.sqrt(np.mean(errs**2)))
        history.append(rms)
        if abs(prev - rms) < params.convergence_tol:
            converged = True
            break
        prev = rms

    return IcpResult(
        transform=RigidTransform(rotation=r, translation=t),
        rms_residual=history[-1],
        converged=converged,
        iterations=iterations,
        residual_history=history,
    )


def apply_transform(transform: RigidTransform, local_map: LocalMap) -> LocalMap:
    """Map every lane point through the transform; ids and images unchanged."""
    lanes = [
        LaneLine(lane.lane_id, transform.apply(lane.points_array()))
        for lane in local_map.lane_lines
    ]
    return replace(local_map, lane_lines=lanes)
