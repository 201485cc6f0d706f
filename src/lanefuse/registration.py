"""Rigid alignment of local maps via iterative closest point.

The transform estimation is the closed-form least-squares fit: centroid
subtraction, SVD of the cross-covariance, reflection-corrected rotation.
ICP alternates nearest-neighbor matching (optionally gated by distance)
with re-estimation until the RMS residual stops improving. It iterates on
plain (R, t) arrays and returns one checked RigidTransform for the final fit.

ICP reuses the nearest neighbours it has certified instead of searching the
k-d tree for every point on every iteration (the cached k-d tree of Nuechter
et al., 3DIM 2007, applied to Besl & McKay's ICP, PAMI 1992). A search
returns a point's nearest target j at distance d1 and the second nearest at
d2, and ICP keeps them with the position p0 searched from. When the point has
since moved to p, every other target is at least d2 - |p - p0| from it and j
at most d1 + |p - p0|, so j is still the unique nearest target while
2 |p - p0| < d2 - d1 - REUSE_MARGIN; the margin covers the rounding of the
three distances. Only the points that fail this test are searched again, so
every iteration matches exactly the targets a full search would, and the
results are bit-identical to it. A tie (d1 == d2) never passes the test, and
its nearest index comes from a one-neighbour search, which breaks ties as a
full search does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .mapmodel import LaneLine, LocalMap
from .scoring import bounded_number

ORTHONORMAL_TOL = 1e-9
# Meters: far above the rounding of a distance between points a few hundred
# meters apart, far below any distance the data resolves.
REUSE_MARGIN = 1e-9


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
        object.__setattr__(
            self, "max_iterations", bounded_number(self.max_iterations, "max_iterations", 1)
        )
        for name in ("convergence_tol", "max_correspondence_dist"):
            value = bounded_number(getattr(self, name), name, 0.0, exclusive=True)
            object.__setattr__(self, name, value)


@dataclass
class IcpResult:
    transform: RigidTransform
    rms_residual: float
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, summed (x² + y²) + z² as
    np.linalg.norm(d, axis=1) and cKDTree's distances do, so bit-identical to
    both, in a third of np.linalg.norm's time."""
    sq = d * d
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


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
    return _fit(*_centered(src), tgt)


def _centered(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centroid = points.mean(axis=0)
    return points - centroid, centroid


def _fit(
    centered_src: np.ndarray, c_src: np.ndarray, tgt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """estimate_rigid_transform's fit from the source already centred."""
    c_tgt = tgt.mean(axis=0)
    h = centered_src.T @ (tgt - c_tgt)
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
    result flagged unconverged rather than an error. Nearest targets a
    previous search certifies are reused (see the module docstring).
    """
    from scipy.spatial import cKDTree  # on first use, as in clustering.dbscan

    # Contiguous, so that src and its masked copies give the same products.
    src = np.ascontiguousarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.ndim != 2 or src.shape[1] != 3 or tgt.ndim != 2 or tgt.shape[1] != 3:
        raise InvalidInputError("point sets must be (n, 3) arrays")
    _check_spread(src, "source")
    _check_spread(tgt, "target")

    tree = cKDTree(tgt)
    n = len(src)
    # Per source point: where its neighbours were last searched from (p0),
    # the nearest target's index (j) and d2 - d1 - REUSE_MARGIN. A slack of
    # -inf fails the reuse test, so the first iteration searches every point.
    anchor = np.zeros((n, 3))
    nearest = np.zeros(n, dtype=np.intp)
    slack = np.full(n, -np.inf)
    src_centered = _centered(src)
    r, t = np.eye(3), np.zeros(3)
    moved = src @ r.T + t
    history: list[float] = []
    prev = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, params.max_iterations + 1):
        drift = _row_norms(moved - anchor)
        stale = np.flatnonzero(~(2.0 * drift < slack))
        if len(stale):
            dist, idx = tree.query(moved[stale], k=2)
            tie = dist[:, 0] == dist[:, 1]
            if tie.any():  # a two-neighbour search orders tied targets differently
                idx[tie, 0] = tree.query(moved[stale[tie]])[1]
            anchor[stale] = moved[stale]
            nearest[stale] = idx[:, 0]
            slack[stale] = dist[:, 1] - dist[:, 0] - REUSE_MARGIN
        matched = tgt[nearest]
        mask = _row_norms(moved - matched) <= params.max_correspondence_dist
        count = int(mask.sum())
        if count < 3:
            raise DegenerateGeometryError(
                f"only {count} correspondences within "
                f"{params.max_correspondence_dist} m at iteration {iterations}"
            )
        if count == n:
            # Every point pairs: src[mask] equals src, so the source is centred
            # once, and the residual's moved points are the next iteration's.
            r, t = _fit(*src_centered, matched)
            moved = src @ r.T + t
            errs = _row_norms(moved - matched)
        else:
            pairs_src = src[mask]
            pairs_tgt = matched[mask]
            r, t = _fit(*_centered(pairs_src), pairs_tgt)
            errs = _row_norms(pairs_src @ r.T + t - pairs_tgt)
            moved = src @ r.T + t
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
