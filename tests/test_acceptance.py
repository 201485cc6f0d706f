"""Acceptance suite: the pipeline's exit criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from lanefuse.clustering import DbscanParams, dbscan
from lanefuse.confidence import dpcs, gcs
from lanefuse.evaluation import (
    ame,
    run_experiment,
    standard_config,
    synth_config_to_dict,
    synth_generate,
)
from lanefuse.fusion import rank_maps, select_band
from lanefuse.mapmodel import LaneLine, LinkArea, LocalMap, Point3
from lanefuse.pipeline import modify_add, modify_delete, modify_shift
from lanefuse.registration import IcpParams, icp_align
from lanefuse.scoring import (
    FactorKind,
    ImageAssessment,
    expected_factor_score,
    finalize_score,
    softmax_distribution,
)
from oracles import brute_force_dbscan, canonical_labels, random_rigid_transform

F = FactorKind
README = Path(__file__).resolve().parents[1] / "README.md"


def criterion(number, name):
    """Decorator printing one pass/fail line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} ({name}): FAIL")
                raise
            print(f"criterion {number:02d} ({name}): PASS")

        return run

    return wrap


def assessment(scores, s_l):
    return ImageAssessment("img", factor_scores=scores, lane_visibility=s_l)


TABLE_IMAGES = {  # score-explanation table: expected DPCS 1.8 / 6 / 9.6
    1.8: assessment({F.BLUR_DAY: 1, F.ILLUMINATION: 5, F.DEGRADATION: 0, F.OCCLUSION: 0}, 3),
    6.0: assessment({F.BLUR_DAY: 0, F.ILLUMINATION: 2, F.DEGRADATION: 0, F.OCCLUSION: 1}, 6),
    9.6: assessment({F.BLUR_DAY: 0, F.ILLUMINATION: 1, F.DEGRADATION: 0, F.OCCLUSION: 1}, 10),
}
CMP_COL1 = assessment({F.BLUR_DAY: 3, F.ILLUMINATION: 7, F.SANDSTORM: 2, F.OCCLUSION: 2}, 0)
CMP_COL2 = assessment({F.BLUR_DAY: 2, F.SNOW: 3, F.OCCLUSION: 2}, 7)
CMP_COL3 = assessment({F.BLUR_DAY: 2, F.RAIN: 3, F.OCCLUSION: 2}, 9)


@criterion(1, "piecewise confidence reproduces the worked tables")
def test_criterion_1_dpcs_tables():
    start = time.perf_counter()
    for expected, image in TABLE_IMAGES.items():
        assert dpcs(image) == pytest.approx(expected, abs=1e-9)
    assert dpcs(CMP_COL1) == pytest.approx(0.0, abs=1e-9)
    assert dpcs(CMP_COL3) == pytest.approx(7.6, abs=1e-9)
    assert time.perf_counter() - start < 1.0


@criterion(2, "general confidence, with the 5.6-vs-5 discrepancy documented")
def test_criterion_2_gcs():
    assert gcs(CMP_COL3) == pytest.approx(7.6, abs=1e-9)
    assert gcs(CMP_COL1) == pytest.approx(0.0, abs=1e-9)
    # the formula yields 5.6 where the source table reported 5; the value is
    # emitted as-is and the gap is called out in the README
    assert gcs(CMP_COL2) == pytest.approx(5.6, abs=1e-9)
    notes = README.read_text(encoding="utf-8")
    assert "Documented discrepancies" in notes
    assert "5.6" in notes


def area_with_averages(averages):
    maps = []
    for i, avg in enumerate(averages):
        images = [ImageAssessment(f"m{i}_img", confidence=float(avg))]
        maps.append(LocalMap(map_id=f"m{i}", link_area_id="a", images=images))
    return LinkArea(link_id="a", local_maps=maps)


@criterion(3, "confidence band keeps 3 of the average row, 2 of row six")
def test_criterion_3_band_selection():
    avg_row = select_band(rank_maps(area_with_averages([8.30, 7.96, 7.62, 6.64, 5.89])))
    assert avg_row.lower_bound == pytest.approx(7.47, abs=1e-9)
    assert len(avg_row.selected_map_ids) == 3
    row_six = select_band(rank_maps(area_with_averages([8.80, 8.46, 7.82, 6.57, 5.38])))
    assert len(row_six.selected_map_ids) == 2


@criterion(4, "icp recovers 100 random rigid transforms to 1e-6")
def test_criterion_4_icp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    params = IcpParams(max_iterations=200, convergence_tol=1e-13, max_correspondence_dist=1e9)
    for _ in range(100):
        cloud = rng.uniform(0.0, 10.0, size=(200, 3))
        rot, trans = random_rigid_transform(rng, max_angle_deg=30.0, max_translation=5.0)
        result = icp_align(cloud, cloud @ rot.T + trans, params)
        assert np.linalg.norm(result.transform.rotation - rot) <= 1e-6
        assert np.linalg.norm(result.transform.translation - trans) <= 1e-6
        history = result.residual_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert time.perf_counter() - start < 5.0


@criterion(5, "dbscan equals the brute-force reference on 200 instances")
def test_criterion_5_dbscan_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20241)
    for _ in range(200):
        n = int(rng.integers(5, 201))
        dims = int(rng.integers(2, 4))
        n_clumps = int(rng.integers(1, 6))
        centers = rng.uniform(0.0, 10.0, size=(n_clumps, dims))
        assignment = rng.integers(0, n_clumps, size=n)
        pts = centers[assignment] + rng.normal(0.0, 0.4, size=(n, dims))
        eps = float(rng.uniform(0.2, 1.2))
        min_samples = int(rng.integers(1, 7))
        got = canonical_labels(dbscan(pts, DbscanParams(epsilon=eps, min_samples=min_samples)))
        want = canonical_labels(brute_force_dbscan(pts, eps, min_samples))
        assert got.tolist() == want.tolist()
    assert time.perf_counter() - start < 10.0


def straight_lane(lane_id="t0", y=0.0, length=10.0, step=1.0):
    x = np.arange(0.0, length + step, step)
    pts = np.column_stack([x, np.full_like(x, y), np.zeros_like(x)])
    return LaneLine(lane_id, pts)


@criterion(6, "mapping error fixtures")
def test_criterion_6_ame():
    truth = [straight_lane(), straight_lane("t1", 3.5)]
    assert ame(truth, truth).e_ame == 0.0
    offset = [straight_lane("e0", 0.3), straight_lane("e1", 3.8)]
    assert ame(offset, truth).e_ame == pytest.approx(0.3, abs=1e-9)
    two = [LaneLine("e", [Point3(2.0, 0.3, 0.0), Point3(7.0, 0.4, 0.0)])]
    assert ame(two, [straight_lane()]).e_ame == pytest.approx(0.353553, abs=1e-6)


@criterion(7, "policy ordering on the standard synthetic benchmark")
def test_criterion_7_directional_experiment():
    # Absolute error targets from drive data are out of reach (no such data
    # ships with this repo); the orderings are the contract. The benchmark
    # gives every area seven maps so the baseline strictly contains seq5;
    # with only five maps they would be the same fusion and no strict
    # ordering could exist.
    start = time.perf_counter()
    seeds = range(20)
    ordering_hits = 0
    for seed in seeds:
        areas = synth_generate(standard_config(seed))
        report = run_experiment(areas, ["baseline", "seq1", "seq3", "seq5", "band"])
        avg = report.averages()
        ordered = (
            avg["seq3"] <= avg["seq1"] <= avg["baseline"]
            and avg["seq3"] < avg["seq5"] < avg["baseline"]
        )
        ordering_hits += ordered
        best_seq = min(avg["seq1"], avg["seq3"], avg["seq5"])
        assert abs(avg["band"] - best_seq) <= 0.02  # per seed
    assert ordering_hits >= 0.9 * len(seeds)
    assert time.perf_counter() - start < 120.0


@criterion(8, "modification existence matrix over 100 random maps")
def test_criterion_8_modification_matrix():
    rng = np.random.default_rng(20242)
    for trial in range(100):
        n_lanes = int(rng.integers(2, 6))
        lanes = []
        for i in range(n_lanes):
            n_pts = int(rng.integers(2, 30))
            x = np.sort(rng.uniform(0.0, 50.0, size=n_pts))
            x += np.arange(n_pts) * 1e-6  # keep consecutive points distinct
            y = i * rng.uniform(3.0, 6.0) + rng.normal(0.0, 0.1, size=n_pts)
            lanes.append(LaneLine(f"lane_{i}", np.column_stack([x, y, np.zeros_like(x)])))
        prior = LocalMap("m", "a", lane_lines=lanes)
        lane_ids = [l.lane_id for l in prior.lane_lines]
        target = lane_ids[int(rng.integers(0, n_lanes))]

        # shift: existent before -> existent after, geometry moved
        dx, dy = rng.uniform(-2.0, 2.0, size=2)
        shifted = modify_shift(prior, target, dx, dy)
        assert shifted.lane(target) is not None
        assert np.allclose(
            shifted.lane(target).points_array(),
            prior.lane(target).points_array() + [dx, dy, 0.0],
        )

        # delete: existent before -> non-existent after
        deleted = modify_delete(prior, target)
        assert prior.lane(target) is not None
        assert deleted.lane(target) is None

        # add: non-existent before -> existent after
        a, b = rng.choice(n_lanes, size=2, replace=False)
        added = modify_add(prior, lane_ids[a], lane_ids[b], offset=float(rng.uniform(0.05, 0.5)))
        new_ids = {l.lane_id for l in added.lane_lines} - set(lane_ids)
        assert len(new_ids) == 1
        assert prior.lane(next(iter(new_ids))) is None


@criterion(9, "byte-identical reruns of every command")
def test_criterion_9_determinism(tmp_path):
    import dataclasses

    from lanefuse.cli import main

    cfg = dataclasses.replace(
        standard_config(17), link_areas=1, maps_per_area=4, images_per_map=2, lane_length=20.0
    )
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(synth_config_to_dict(cfg)))
    script = tmp_path / "mods.json"
    script.write_text(
        json.dumps(
            [
                {"op": "shift", "lane_id": "lane_00", "dx": 0.5, "dy": 0.0},
                {"op": "delete", "lane_id": "lane_01"},
                {"op": "add", "lane_a": "lane_02", "lane_b": "lane_03", "offset": 0.25},
            ]
        )
    )

    outputs = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        sim = run_dir / "sim"
        assert main(["simulate", str(synth_path), "--output-dir", str(sim)]) == 0
        area_file = sorted(sim.glob("area_*.json"))[0]
        assert (
            main(
                ["score", str(area_file), "--backend", "synthetic", "--scenario",
                 "clean", "--seed", "5", "--output-dir", str(run_dir / "score")]
            )
            == 0
        )
        assert main(["select", str(area_file), "--output-dir", str(run_dir / "select")]) == 0
        assert (
            main(["update", str(area_file), str(script), "--output-dir", str(run_dir / "update")])
            == 0
        )
        assert (
            main(["evaluate", str(area_file), "--output-dir", str(run_dir / "evaluate")])
            == 0
        )
        outputs.append(
            sorted(p for p in run_dir.rglob("*") if p.is_file())
        )

    files1, files2 = outputs
    assert [p.relative_to(tmp_path / "run1") for p in files1] == [
        p.relative_to(tmp_path / "run2") for p in files2
    ]
    for p1, p2 in zip(files1, files2):
        assert p1.read_bytes() == p2.read_bytes(), p1.name


@criterion(10, "fuzzed scoring-math invariants")
def test_criterion_10_scoring_math():
    rng = np.random.default_rng(20243)
    for _ in range(1000):
        logits = rng.uniform(-80.0, 80.0, size=11)
        dist = softmax_distribution(logits)
        assert abs(sum(dist.probabilities) - 1.0) <= 1e-9
        shifted = softmax_distribution(logits + rng.uniform(-200.0, 200.0))
        for a, b in zip(dist.probabilities, shifted.probabilities):
            assert abs(a - b) <= 1e-9
        w = float(rng.uniform(0.0, 1.0))
        assert finalize_score(expected_factor_score(dist, w)) in range(11)
