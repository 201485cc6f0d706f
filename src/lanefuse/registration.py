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

The loop is written for few numpy calls per iteration, since on maps of a
few hundred points their overhead, not their arithmetic, sets the cost.
Every source point is searched once before the first iteration. Each row
then keeps its anchor p0, its matched target, its gap |p - target| under
the latest fit and half its slack, (d2 - d1 - REUSE_MARGIN) / 2, so the
reuse test is drift < half (halving is exact). An iteration searches only
the rows that fail it and updates their four entries; it gates on the kept
gaps, fits, then moves every point and measures every gap once, and the RMS
residual is read from those gaps. A certified row's gap is therefore
always under the current fit, even as the fit carries it across the gate.

nearest_segment_errors measures points against polylines, for the AME, by
an exact nearest-segment search. A k-d tree over segment midpoints bounds
it: a point's nearest segment is no farther than its nearest midpoint
(distance d0), so only segments whose midpoints lie within d0 plus the
largest half segment length are measured. The search keeps argmin's
lowest-index choice among segments at equal 3D distance and works through
the points in blocks of at most PAIR_BUDGET pairs, so memory is linear in
the number of points and segments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError
from .mapmodel import LaneLine, LocalMap
from .scoring import bounded_number

ORTHONORMAL_TOL = 1e-9
# Meters: far above the rounding of a distance between points a few hundred
# meters apart, far below any distance the data resolves.
REUSE_MARGIN = 1e-9
# Most (point, segment) pairs the nearest-segment search measures at once;
# each pair costs a few hundred bytes of temporaries.
PAIR_BUDGET = 1 << 16


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


def _centered_spread(points: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """``_centered(points)``, once the points are known to span a plane."""
    if len(points) < 3:
        raise DegenerateGeometryError(f"{label} has fewer than 3 points; cannot align")
    centered, centroid = _centered(points)
    s = np.linalg.svd(centered, compute_uv=False)
    if s[1] <= 1e-12 * max(1.0, s[0]):
        raise DegenerateGeometryError(f"{label} points are collinear; cannot align")
    return centered, centroid


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


def _centroid(points: np.ndarray) -> np.ndarray:
    # The sum and division np.mean(points, axis=0) makes, without its overhead.
    return np.add.reduce(points, 0) / len(points)


def _centered(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centroid = _centroid(points)
    return points - centroid, centroid


def _fit(
    centered_src: np.ndarray, c_src: np.ndarray, tgt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """estimate_rigid_transform's fit from the source already centred."""
    c_tgt = _centroid(tgt)
    h = centered_src.T @ (tgt - c_tgt)
    u, _, vt = np.linalg.svd(h)
    r = vt.T @ u.T
    if np.linalg.det(r) < 0.0:  # a reflection: flip the least singular axis
        r = vt.T @ np.diag([1.0, 1.0, -1.0]) @ u.T
    # Re-orthonormalize to keep the transform invariant within 1e-9.
    uu, _, vvt = np.linalg.svd(r)
    r = uu @ vvt
    t = c_tgt - r @ c_src
    return r, t


def _nearest_two(tree, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's distances to its two nearest targets, (m, 2), and the
    index of the nearest, as a one-neighbour search would pick it."""
    dist, idx = tree.query(points, k=2)
    tie = dist[:, 0] == dist[:, 1]
    if tie.any():  # a two-neighbour search orders tied targets differently
        idx[tie, 0] = tree.query(points[tie])[1]
    return dist, idx[:, 0]


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
    from scipy.spatial import cKDTree  # on first use, as in clustering.neighbor_pairs

    # Contiguous, so that a row's product is the one a masked copy of src gives.
    src = np.ascontiguousarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.ndim != 2 or src.shape[1] != 3 or tgt.ndim != 2 or tgt.shape[1] != 3:
        raise InvalidInputError("point sets must be (n, 3) arrays")
    src_centered = _centered_spread(src, "source")
    _centered_spread(tgt, "target")

    tree = cKDTree(tgt)
    n = len(src)
    gate = params.max_correspondence_dist
    # Per source point: where it was last searched from, its nearest target,
    # its distance to that target under the current fit, and half its slack.
    dist, nearest = _nearest_two(tree, src)
    anchor = src.copy()
    matched = tgt[nearest]
    gap = dist[:, 0]
    half = (dist[:, 1] - gap - REUSE_MARGIN) / 2
    moved = src
    history: list[float] = []
    prev = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, params.max_iterations + 1):
        if iterations > 1:
            stale = np.flatnonzero(~(_row_norms(moved - anchor) < half))
            if len(stale):
                at = moved[stale]
                dist, nearest = _nearest_two(tree, at)
                anchor[stale] = at
                matched[stale] = tgt[nearest]
                gap[stale] = dist[:, 0]
                half[stale] = (dist[:, 1] - dist[:, 0] - REUSE_MARGIN) / 2
        mask = gap <= gate
        count = int(np.count_nonzero(mask))
        if count < 3:
            raise DegenerateGeometryError(
                f"only {count} correspondences within {gate} m at iteration {iterations}"
            )
        # When every point pairs, the fit takes the source centred before
        # the loop, and the iteration makes no masked copies.
        if count == n:
            r, t = _fit(*src_centered, matched)
        else:
            r, t = _fit(*_centered(src[mask]), matched[mask])
        moved = src @ r.T + t
        gap = _row_norms(moved - matched)
        errs = gap if count == n else gap[mask]
        rms = math.sqrt(np.add.reduce(errs * errs) / count)  # as np.mean(errs**2) sums
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
        LaneLine(lane.lane_id, transform.apply(lane.points))
        for lane in local_map.lane_lines
    ]
    return replace(local_map, lane_lines=lanes)


def lane_segments(lanes: Sequence[LaneLine]) -> tuple[np.ndarray, np.ndarray]:
    """The start and end points of every segment of the lanes, lane by lane."""
    starts = np.vstack([lane.points[:-1] for lane in lanes])
    return starts, np.vstack([lane.points[1:] for lane in lanes])


def _candidate_blocks(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every segment that can be nearest to each point, in blocks of points.

    A point's nearest segment is no farther than the nearest segment
    midpoint, at distance d0, and a segment within d0 of the point has its
    midpoint within d0 + (largest half length); the slack absorbs rounding
    at the coordinates of a local metric frame. Yields (point index,
    segment index, candidates per point) for consecutive points, the pairs
    grouped by point and at most PAIR_BUDGET of them per block, unless a
    block is a single point (at most len(seg_a) pairs).
    """
    from scipy.spatial import cKDTree  # on first use, as in clustering.neighbor_pairs

    mid = (seg_a + seg_b) * 0.5
    half = 0.5 * _row_norms(seg_b - seg_a).max()
    tree = cKDTree(mid)
    d0, _ = tree.query(points)
    radius = d0 + half + 1e-9 * (1.0 + d0)
    counts = tree.query_ball_point(points, radius, return_length=True)
    ends = np.cumsum(counts)
    start = 0
    while start < len(points):
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + PAIR_BUDGET, "right")))
        lists = tree.query_ball_point(points[start:stop], radius[start:stop])
        lens = counts[start:stop]
        seg = np.fromiter(
            itertools.chain.from_iterable(lists), dtype=np.intp, count=int(lens.sum())
        )
        yield np.repeat(np.arange(start, stop), lens), seg, lens
        start = stop


def nearest_segment_errors(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, lateral_only: bool
) -> np.ndarray:
    """Distance from each point to its nearest segment.

    Matching always uses the full 3D distance, and among segments at equal
    distance the lowest index wins; with lateral_only the error term is
    recomputed in the xy-plane against the matched segment. Only the
    candidate pairs of _candidate_blocks are measured, so memory stays
    linear in the number of points and segments.
    """
    d = seg_b - seg_a  # (m, 3)
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd < 1e-18, 1.0, dd)
    nearest = np.empty(len(points), dtype=np.intp)
    dist3 = np.empty(len(points))
    for pt, seg, lens in _candidate_blocks(points, seg_a, seg_b):
        rel = points[pt] - seg_a[seg]  # (k, 3)
        t = np.clip(np.einsum("kj,kj->k", rel, d[seg]) / dd[seg], 0.0, 1.0)
        proj = seg_a[seg] + t[:, None] * d[seg]
        dist = _row_norms(points[pt] - proj)
        # Sorted by point, then distance, then segment: each point's group
        # starts with its nearest segment of lowest index, as argmin picks.
        first = np.lexsort((seg, dist, pt))[np.cumsum(lens) - lens]
        nearest[pt[first]] = seg[first]
        dist3[pt[first]] = dist[first]
    if not lateral_only:
        return dist3

    # Segments may degenerate in the xy projection (vertical climbs); treat
    # those as their start point.
    a2 = seg_a[nearest, :2]
    d2 = d[nearest, :2]
    dd2 = np.einsum("ij,ij->i", d2, d2)
    p2 = points[:, :2]
    t2 = np.einsum("ij,ij->i", p2 - a2, d2) / np.where(dd2 < 1e-18, 1.0, dd2)
    t2 = np.where(dd2 < 1e-18, 0.0, np.clip(t2, 0.0, 1.0))
    proj2 = a2 + t2[:, None] * d2
    return np.linalg.norm(p2 - proj2, axis=1)
