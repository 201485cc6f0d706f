"""Independent reference implementations used to check the real ones."""

from collections import deque

import numpy as np
from scipy.spatial import cKDTree

from lanefuse.clustering import NOISE


def brute_force_dbscan(points: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Reference DBSCAN: full pairwise-distance matrix, transitive closure
    over core points, border points joined to the earliest-formed component
    containing a core within eps."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    within = d <= eps
    core = within.sum(axis=1) >= min_samples  # self counts
    comp = np.full(n, -1)
    comp_id = 0
    for i in range(n):
        if not core[i] or comp[i] != -1:
            continue
        members = {i}
        frontier = {i}
        while frontier:
            grown = {
                j
                for j in range(n)
                if core[j] and j not in members and any(within[j, m] for m in frontier)
            }
            members |= grown
            frontier = grown
        for m in members:
            comp[m] = comp_id
        comp_id += 1
    labels = np.full(n, NOISE)
    for i in range(n):
        if core[i]:
            labels[i] = comp[i]
        else:
            near = [comp[j] for j in range(n) if core[j] and within[i, j]]
            if near:
                labels[i] = min(near)
    return labels


def scan_dbscan(points: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Reference DBSCAN as the classic scan: visit points in index order, and
    grow a cluster from each unvisited core point breadth-first. A border
    point keeps the first cluster that reaches it."""
    n = len(points)
    unvisited = -2
    labels = np.full(n, unvisited)
    if n == 0:
        return labels
    neighborhoods = cKDTree(points).query_ball_point(points, r=eps)
    is_core = [len(nb) >= min_samples for nb in neighborhoods]
    cluster = 0
    for start in range(n):
        if labels[start] != unvisited:
            continue
        if not is_core[start]:
            labels[start] = NOISE
            continue
        labels[start] = cluster
        queue = deque(sorted(neighborhoods[start]))
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster
            if labels[j] != unvisited:
                continue
            labels[j] = cluster
            if is_core[j]:
                queue.extend(sorted(neighborhoods[j]))
        cluster += 1
    return labels


def dense_point_errors(
    points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray, lateral_only: bool
) -> np.ndarray:
    """Reference nearest-segment errors: every point against every segment
    in dense (n, m, 3) arrays, nearest by argmin (lowest index on ties)."""
    d = seg_b - seg_a  # (m, 3)
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd < 1e-18, 1.0, dd)
    rel = points[:, None, :] - seg_a[None, :, :]  # (n, m, 3)
    t = np.clip(np.einsum("nmj,mj->nm", rel, d) / dd, 0.0, 1.0)
    proj = seg_a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist3 = np.linalg.norm(points[:, None, :] - proj, axis=2)
    nearest = np.argmin(dist3, axis=1)
    if not lateral_only:
        return dist3[np.arange(len(points)), nearest]
    a2 = seg_a[nearest, :2]
    d2 = d[nearest, :2]
    dd2 = np.einsum("ij,ij->i", d2, d2)
    p2 = points[:, :2]
    t2 = np.einsum("ij,ij->i", p2 - a2, d2) / np.where(dd2 < 1e-18, 1.0, dd2)
    t2 = np.where(dd2 < 1e-18, 0.0, np.clip(t2, 0.0, 1.0))
    proj2 = a2 + t2[:, None] * d2
    return np.linalg.norm(p2 - proj2, axis=1)


def rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about an arbitrary axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rigid_transform(rng, max_angle_deg=30.0, max_translation=5.0):
    """A random rotation (bounded angle) and translation pair."""
    angle = np.deg2rad(rng.uniform(-max_angle_deg, max_angle_deg))
    r = rodrigues(rng.normal(size=3), angle)
    t = rng.uniform(-max_translation, max_translation, size=3)
    return r, t
