"""DBSCAN against independent references, and the align-once fusion step
that feeds it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lanefuse.fusion
from lanefuse.clustering import NOISE, DbscanParams, dbscan, neighbor_pairs
from lanefuse.errors import InvalidInputError
from lanefuse.evaluation import (
    SynthConfig,
    ame,
    apply_modifications,
    evaluate_area,
    prior_map,
    run_experiment,
    scripted_modifications,
    standard_config,
    synth_generate,
)
from lanefuse.fusion import align, fuse_maps, rank_maps
from lanefuse.mapmodel import LocalMap
from oracles import brute_force_dbscan, canonical_labels, dense_neighbor_pairs, scan_dbscan


def test_two_well_separated_groups():
    rng = np.random.default_rng(7)
    eps = 0.5
    a = rng.normal(0.0, 0.05, size=(20, 2))
    b = rng.normal(0.0, 0.05, size=(20, 2)) + [100.0 * eps, 0.0]
    labels = dbscan(np.vstack([a, b]), DbscanParams(epsilon=eps, min_samples=4))
    assert set(labels) == {0, 1}
    assert (labels[:20] == 0).all()
    assert (labels[20:] == 1).all()


def test_isolated_point_is_noise():
    pts = np.array([[0.0, 0.0]])
    labels = dbscan(pts, DbscanParams(epsilon=1.0, min_samples=2))
    assert labels.tolist() == [NOISE]


def test_min_samples_one_never_produces_noise():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 50, size=(40, 2))
    labels = dbscan(pts, DbscanParams(epsilon=0.5, min_samples=1))
    assert NOISE not in labels


@pytest.mark.parametrize("trial", range(200))
def test_matches_brute_force_reference(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(5, 201))
    dims = int(rng.integers(2, 4))
    # Mix of clumps and scatter so all of core/border/noise show up.
    centers = rng.uniform(0, 10, size=(int(rng.integers(1, 6)), dims))
    pts = np.vstack(
        [c + rng.normal(0, 0.3, size=(max(1, n // len(centers)), dims)) for c in centers]
        + [rng.uniform(0, 10, size=(n % len(centers) + 3, dims))]
    )
    eps = float(rng.uniform(0.2, 1.2))
    min_samples = int(rng.integers(1, 7))
    params = DbscanParams(epsilon=eps, min_samples=min_samples)
    # Raw labels, not only the partition: cluster numbers and the cluster a
    # border point joins must match too.
    got = dbscan(pts, params).tolist()
    assert got == brute_force_dbscan(pts, eps, min_samples).tolist()
    assert got == scan_dbscan(pts, eps, min_samples).tolist()


def _on_x_axis(*xs):
    return np.column_stack([xs, np.zeros(len(xs))])


# A and B are clusters of four cores 0.2 m apart; p sits 0.9 m from a core of
# each but has only 3 points (itself included) within 1 m, so it is a border
# point of both. q is a border point of B alone.
_A = (0.0, 0.2, 0.4, 0.6)
_B = (2.4, 2.6, 2.8, 3.0)
_P, _Q = 1.5, 3.9
SHARED_BORDER = DbscanParams(epsilon=1.0, min_samples=4)

EDGE_CASES = {
    "empty": (np.empty((0, 2)), DbscanParams(epsilon=0.5, min_samples=2)),
    "min_samples_1": (
        np.random.default_rng(3).uniform(0, 5, size=(60, 2)),
        DbscanParams(epsilon=0.5, min_samples=1),
    ),
    "all_noise": (
        np.arange(20.0).reshape(10, 2) * 3.0,
        DbscanParams(epsilon=0.5, min_samples=2),
    ),
    "duplicates": (
        np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 2 + [[0.0, 0.5]] * 3 + [[5.0, 5.0]]),
        DbscanParams(epsilon=0.5, min_samples=3),
    ),
    "shared_border_a_first": (_on_x_axis(*_A, _P, *_B), SHARED_BORDER),
    "shared_border_b_first": (_on_x_axis(*_B, _P, *_A), SHARED_BORDER),
    "shared_border_first": (_on_x_axis(_P, *_B, *_A), SHARED_BORDER),
    "border_before_cores": (_on_x_axis(_Q, *_A, _P, *_B), SHARED_BORDER),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_references_exactly(case):
    pts, params = EDGE_CASES[case]
    got = dbscan(pts, params)
    want = brute_force_dbscan(pts, params.epsilon, params.min_samples)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert got.tolist() == scan_dbscan(pts, params.epsilon, params.min_samples).tolist()


def test_shared_border_joins_cluster_with_lowest_core_index():
    # B's cores come first, so B is cluster 0 and p joins it.
    assert dbscan(*EDGE_CASES["shared_border_b_first"]).tolist() == [0] * 5 + [1] * 4
    # q (index 0) is B's border point, yet A holds the lowest core index:
    # clusters are numbered by core index, not by any member's index.
    labels = dbscan(*EDGE_CASES["border_before_cores"]).tolist()
    assert labels == [1, 0, 0, 0, 0, 0, 1, 1, 1, 1]


# --- index orders that stress the components pass ---------------------------
#
# Components are found by hooking each edge's larger root to its smaller one
# and pointer jumping; how deep the trees grow and how many rounds it takes
# depend on the index order. Raw labels must match the scan in every order.


def _chain(order: np.ndarray) -> np.ndarray:
    """Points 0.4 m apart on a line with a 1 m gap after every 1,000th;
    point k of the line gets index order[k]. With epsilon 0.5 and
    min_samples 3, each segment's two ends are border points."""
    x = 0.4 * np.arange(len(order)) + 0.6 * (np.arange(len(order)) // 1000)
    pts = np.zeros((len(order), 2))
    pts[order, 0] = x
    return pts


def _zigzag(n: int) -> np.ndarray:
    """0, n-1, 1, n-2, ...: neighbours along the line are far apart by index."""
    ends = np.empty(n, dtype=int)
    ends[0::2] = np.arange((n + 1) // 2)
    ends[1::2] = n - 1 - np.arange(n // 2)
    return np.argsort(ends)


def _star(arms: int = 4, length: int = 50) -> np.ndarray:
    """A centre, whose index is the highest, and chains of points leaving it
    0.4 m apart along equally spaced directions; arms are interleaved by index."""
    angles = 2 * np.pi * np.arange(arms) / arms
    radii = 0.4 * np.arange(1, length + 1)
    arm_pts = radii[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return np.vstack([arm_pts.reshape(-1, 2), [[0.0, 0.0]]])


def _interleaved_lanes(n: int = 400) -> np.ndarray:
    """Two parallel lanes 3 m apart, lane B holding the even indices, with an
    isolated point last."""
    along = 0.4 * np.arange(n // 2)
    pts = np.empty((n, 2))
    pts[0::2] = np.column_stack([along, np.full(n // 2, 3.0)])
    pts[1::2] = np.column_stack([along, np.zeros(n // 2)])
    return np.vstack([pts, [[50.0, 50.0]]])


HOOKING_ORDERS = {
    "chain_reversed": (_chain(np.arange(5000)[::-1]), DbscanParams(0.5, 3)),
    "chain_shuffled": (_chain(np.random.default_rng(4).permutation(5000)), DbscanParams(0.5, 3)),
    "chain_zigzag": (_chain(_zigzag(5000)), DbscanParams(0.5, 3)),
    "star_centre_last": (_star(), DbscanParams(0.5, 2)),
    "interleaved_lanes": (_interleaved_lanes(), DbscanParams(0.5, 3)),
}


@pytest.mark.parametrize("case", sorted(HOOKING_ORDERS))
def test_index_orders_match_the_scan_exactly(case):
    pts, params = HOOKING_ORDERS[case]
    got = dbscan(pts, params)
    assert got.tolist() == scan_dbscan(pts, params.epsilon, params.min_samples).tolist()


def test_hooking_cases_cover_clusters_borders_and_noise():
    chain = dbscan(*HOOKING_ORDERS["chain_zigzag"])
    assert set(chain.tolist()) == set(range(5))  # the five segments, ends as borders
    assert dbscan(*HOOKING_ORDERS["star_centre_last"]).tolist() == [0] * 201
    lanes = dbscan(*HOOKING_ORDERS["interleaved_lanes"])
    assert lanes[0:-1:2].tolist() == [0] * 200  # lane B holds index 0
    assert lanes[1:-1:2].tolist() == [1] * 200
    assert lanes[-1] == NOISE


def test_permutation_invariance_up_to_relabeling():
    rng = np.random.default_rng(11)
    pts = np.vstack(
        [
            rng.normal(0, 0.2, size=(30, 2)),
            rng.normal(5, 0.2, size=(30, 2)),
            rng.uniform(-10, 10, size=(10, 2)),
        ]
    )
    params = DbscanParams(epsilon=0.6, min_samples=4)
    base = canonical_labels(dbscan(pts, params))
    for _ in range(5):
        perm = rng.permutation(len(pts))
        permuted = canonical_labels(dbscan(pts[perm], params))
        # Undo the permutation and compare partitions via canonical form.
        unpermuted = np.empty_like(permuted)
        unpermuted[perm] = permuted
        assert canonical_labels(unpermuted).tolist() == base.tolist()


# Points on a 0.25 m grid: every squared distance is exact, so the k-d trees of
# two orderings admit the same neighbour pairs, even at exactly epsilon.
GRID_POINTS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(GRID_POINTS, st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(1, 6), st.data())
def test_permutation_keeps_cores_noise_and_border_reach(cells, eps, min_samples, data):
    # Labels are not equivariant under permutation: a border point within
    # epsilon of two clusters joins the lower-numbered one, and clusters are
    # numbered in point order (see the shared_border_* edge cases). What holds:
    pts = np.array(cells, dtype=float) * 0.25
    n = len(pts)
    params = DbscanParams(epsilon=eps, min_samples=min_samples)
    near = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1) <= eps * eps
    core = near.sum(axis=1) >= min_samples
    perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
    labels = dbscan(pts, params)
    permuted = np.empty(n, dtype=int)
    permuted[perm] = dbscan(pts[perm], params)  # back in the original order
    # the partition of the core points,
    pairs = set(zip(labels[core].tolist(), permuted[core].tolist()))
    assert len(pairs) == len(set(labels[core].tolist())) == len(set(permuted[core].tolist()))
    # the set of noise points,
    assert np.array_equal(labels == NOISE, permuted == NOISE)
    assert np.array_equal(labels == NOISE, ~(near & core[None, :]).any(axis=1))
    # and each border point joins a cluster with a core within epsilon of it.
    for got in (labels, permuted):
        for i in np.flatnonzero(~core & (got != NOISE)):
            assert (near[i] & core & (got == got[i])).any()


def test_determinism():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 5, size=(100, 2))
    params = DbscanParams(epsilon=0.4, min_samples=3)
    assert dbscan(pts, params).tolist() == dbscan(pts, params).tolist()


def test_param_validation():
    for kwargs in [
        {"epsilon": 0.0},
        {"epsilon": True},
        {"epsilon": "0.5"},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"min_samples": 0},
        {"min_samples": 2.5},
        {"min_samples": True},
        {"min_samples": "4"},
    ]:
        with pytest.raises(InvalidInputError, match=next(iter(kwargs))):
            DbscanParams(**kwargs)


def test_params_store_plain_numbers():
    params = DbscanParams(epsilon=1, min_samples=4.0)
    assert type(params.epsilon) is float and params.epsilon == 1.0
    assert type(params.min_samples) is int and params.min_samples == 4


# --- neighbour pairs passed in ------------------------------------------------


def test_no_pairs_leaves_every_point_alone():
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
    none = neighbor_pairs(pts, 0.5)
    assert none.shape == (0, 2)
    for min_samples, want in ((1, [0, 1, 2]), (2, [NOISE] * 3)):
        params = DbscanParams(epsilon=0.5, min_samples=min_samples)
        assert dbscan(pts, params, pairs=none).tolist() == want == dbscan(pts, params).tolist()


def test_pairs_must_be_an_m_by_2_array():
    pts = np.zeros((3, 2))
    with pytest.raises(InvalidInputError, match="pairs"):
        dbscan(pts, DbscanParams(), pairs=np.array([0, 1]))


@pytest.mark.parametrize(
    "pairs",
    [[[0, 12]], [[-1, 3]], [[0.5, 1.0]], [[2, 2]], [[3, 1]], [[0, 1], [0, 10]]],
    ids=["past_the_end", "negative", "not_integer", "self_pair", "reversed", "one_bad_of_two"],
)
def test_pairs_must_be_integer_indices_with_i_below_j(pairs):
    pts = np.arange(20.0).reshape(10, 2)
    with pytest.raises(InvalidInputError, match="pairs"):
        dbscan(pts, DbscanParams(epsilon=0.5, min_samples=2), pairs=np.array(pairs))


def test_pairs_of_any_integer_dtype_cluster_alike():
    pts, params = HOOKING_ORDERS["interleaved_lanes"]
    pairs = neighbor_pairs(pts, params.epsilon)
    want = dbscan(pts, params).tolist()
    for dtype in (np.int32, np.uint16, np.uint64):
        assert dbscan(pts, params, pairs=pairs.astype(dtype)).tolist() == want


def _modified(area):
    mods = scripted_modifications(area.ground_truth)
    prior = apply_modifications(prior_map(area.ground_truth, area.link_id), mods)
    return prior, {m.map_id: apply_modifications(m, mods) for m in area.local_maps}


def test_prefix_pools_cluster_alike_with_the_longest_pools_pairs():
    # Each policy pools the prior's points, then a rank prefix of aligned maps.
    params = DbscanParams()
    for area in synth_generate(standard_config(0)):
        prior, observed = _modified(area)
        target = prior.lane_points()
        pool = [target] + [align(observed[m], target)[0] for m, _ in rank_maps(area)]
        union = np.vstack(pool)
        pairs = neighbor_pairs(union, params.epsilon)
        for n in np.cumsum([len(p) for p in pool]):
            shared = pairs[pairs[:, 1] < n]
            assert dbscan(union[:n], params, pairs=shared).tolist() == dbscan(union[:n], params).tolist()


def test_dbscan_matches_the_scan_on_every_pool_fusion_clusters(monkeypatch):
    # Every pool the policies of standard seed 0 fuse, with the neighbour
    # pairs fuse_prefixes passes in for it.
    pools = []
    real = lanefuse.fusion.dbscan

    def recording(points, params, pairs=None):
        labels = real(points, params, pairs=pairs)
        pools.append((points, params, pairs, labels))
        return labels

    monkeypatch.setattr(lanefuse.fusion, "dbscan", recording)
    policies = ["baseline", "seq1", "seq3", "seq5", "band"]
    run_experiment(synth_generate(standard_config(0)), policies)
    monkeypatch.undo()
    assert len(pools) == 6 * 5
    for points, params, pairs, labels in pools:
        assert pairs is not None
        want = scan_dbscan(points, params.epsilon, params.min_samples)
        assert labels.tolist() == want.tolist()


def _largest_pools(config: SynthConfig) -> list[np.ndarray]:
    """The pool each area's policies search neighbour pairs in, one per area."""
    unions = []
    real = lanefuse.fusion.neighbor_pairs

    def recording(points, epsilon):
        unions.append(points)
        return real(points, epsilon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lanefuse.fusion, "neighbor_pairs", recording)
        run_experiment(synth_generate(config), ["baseline", "seq1", "seq3", "seq5", "band"])
    return unions


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(standard_config(0), id="0"),
        pytest.param(standard_config(1), id="1"),
        pytest.param(SynthConfig(seed=0, link_areas=1, lane_length=160.0), id="160m"),
    ],
)
def test_neighbor_pairs_match_dense_distances_on_fused_pools(config):
    eps = DbscanParams().epsilon
    for union in _largest_pools(config):
        pairs = neighbor_pairs(union, eps)
        got = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        assert got.tolist() == dense_neighbor_pairs(union, eps).tolist()


# --- align once per area -------------------------------------------------------


def _small_area():
    cfg = SynthConfig(seed=2, link_areas=1, maps_per_area=5, images_per_map=2, lane_length=12.0)
    return synth_generate(cfg)[0]


def _record_icp_sources(monkeypatch) -> list[np.ndarray]:
    sources = []
    icp_align = lanefuse.fusion.icp_align

    def counting(source, target, params):
        sources.append(np.array(source))
        return icp_align(source, target, params)

    monkeypatch.setattr(lanefuse.fusion, "icp_align", counting)
    return sources


def _aligned_map_ids(area, sources) -> list[str]:
    mods = scripted_modifications(area.ground_truth)
    points = {m.map_id: apply_modifications(m, mods).lane_points() for m in area.local_maps}
    return [
        next(map_id for map_id, pts in points.items() if np.array_equal(pts, source))
        for source in sources
    ]


def test_evaluate_area_aligns_each_chosen_map_once(monkeypatch):
    area = _small_area()
    sources = _record_icp_sources(monkeypatch)
    searches = []
    search = lanefuse.fusion.neighbor_pairs
    monkeypatch.setattr(
        lanefuse.fusion, "neighbor_pairs", lambda *args: searches.append(args) or search(*args)
    )
    evaluate_area(area, ["baseline", "seq1", "seq3", "seq5", "band", "threshold"])
    ids = _aligned_map_ids(area, sources)
    assert sorted(ids) == sorted(m.map_id for m in area.local_maps)
    assert len(searches) == 1


def test_evaluate_area_never_aligns_unchosen_maps(monkeypatch):
    area = _small_area()
    sources = _record_icp_sources(monkeypatch)
    evaluate_area(area, ["seq1", "seq3"])
    top3 = [map_id for map_id, _ in rank_maps(area)[:3]]
    assert _aligned_map_ids(area, sources) == top3


def test_evaluate_area_matches_fusing_each_policy_from_scratch():
    area = _small_area()
    policies = {"baseline": 5, "seq1": 1, "seq3": 3}
    outcomes = evaluate_area(area, list(policies))
    mods = scripted_modifications(area.ground_truth)
    prior = apply_modifications(prior_map(area.ground_truth, area.link_id), mods)
    truth = apply_modifications(
        LocalMap("truth", area.link_id, lane_lines=area.ground_truth), mods
    )
    observed = {m.map_id: apply_modifications(m, mods) for m in area.local_maps}
    ranked = [map_id for map_id, _ in rank_maps(area)]
    for policy, k in policies.items():
        fused = fuse_maps([observed[m] for m in ranked[:k]], prior)
        assert outcomes[policy].result == ame(fused.lane_lines, truth.lane_lines)
