"""AME metric, synthetic generator, and the policy experiment."""

import dataclasses

import numpy as np
import pytest

from lanefuse.backends import Scenario
from lanefuse.errors import ConfigError, EmptyInputError
from lanefuse.evaluation import (
    AmeResult,
    SynthConfig,
    ame,
    apply_modifications,
    evaluate_area,
    load_synth_config,
    prior_map,
    run_experiment,
    scripted_modifications,
    standard_config,
    synth_config_to_dict,
    synth_generate,
)
from lanefuse.mapmodel import LaneLine, LinkArea, LocalMap, Point3, average_confidence, lanes_from_arrays
from lanefuse.scoring import FactorKind

F = FactorKind


def straight_lane(lane_id="t0", y=0.0, length=10.0, step=1.0, z=0.0):
    x = np.arange(0.0, length + step, step)
    pts = np.column_stack([x, np.full_like(x, y), np.full_like(x, z)])
    return lanes_from_arrays([(lane_id, pts)])[0]


def test_ame_identity_is_zero():
    truth = [straight_lane(), straight_lane("t1", 3.5)]
    result = ame(truth, truth)
    assert result.e_ame == 0.0
    assert result.lateral_only


def test_ame_uniform_lateral_offset():
    truth = [straight_lane()]
    estimated = [straight_lane("e0", y=0.3)]
    result = ame(estimated, truth, lateral_only=True)
    assert result.e_ame == pytest.approx(0.3, abs=1e-9)


def test_ame_two_point_hand_value():
    truth = [straight_lane()]
    estimated = [
        LaneLine("e", [Point3(2.0, 0.3, 0.0), Point3(7.0, 0.4, 0.0)])
    ]
    result = ame(estimated, truth)
    assert result.e_ame == pytest.approx(0.3535533905932738, abs=1e-6)
    assert result.n_points == 2


def test_ame_lateral_ignores_longitudinal_slide():
    truth = [straight_lane(length=10.0)]
    # same line shifted along x: laterally still zero
    estimated = [straight_lane("e", length=9.0)]
    shifted = [
        LaneLine(
            "e",
            [Point3(p.x + 0.4, p.y, p.z) for p in estimated[0].points],
        )
    ]
    assert ame(shifted, truth).e_ame == pytest.approx(0.0, abs=1e-12)


def test_ame_full_3d_versus_lateral():
    truth = [straight_lane()]
    lifted = [straight_lane("e", z=0.4)]
    assert ame(lifted, truth, lateral_only=True).e_ame == pytest.approx(0.0, abs=1e-12)
    assert ame(lifted, truth, lateral_only=False).e_ame == pytest.approx(0.4, abs=1e-9)


def test_ame_translation_invariance_and_scaling():
    rng = np.random.default_rng(1)
    truth = [straight_lane(y=0.0), straight_lane("t1", y=4.0)]
    offs = rng.uniform(0.05, 0.5)
    estimated = [straight_lane("e0", y=offs), straight_lane("e1", y=4.0 + offs)]
    base = ame(estimated, truth).e_ame
    moved_truth = [
        LaneLine(l.lane_id, [Point3(p.x + 7.0, p.y - 3.0, p.z) for p in l.points])
        for l in truth
    ]
    moved_est = [
        LaneLine(l.lane_id, [Point3(p.x + 7.0, p.y - 3.0, p.z) for p in l.points])
        for l in estimated
    ]
    assert ame(moved_est, moved_truth).e_ame == pytest.approx(base, abs=1e-9)
    doubled = [straight_lane("e0", y=2 * offs), straight_lane("e1", y=4.0 + 2 * offs)]
    assert ame(doubled, truth).e_ame == pytest.approx(2 * base, abs=1e-9)


def test_ame_symmetric_variant_pools_both_directions():
    truth = [straight_lane(length=10.0)]
    estimated = [straight_lane("e", y=0.2, length=10.0)]
    one_way = ame(estimated, truth)
    both = ame(estimated, truth, symmetric=True)
    assert both.n_points == 2 * one_way.n_points
    assert both.e_ame == pytest.approx(one_way.e_ame, abs=1e-9)


def test_ame_empty_inputs():
    with pytest.raises(EmptyInputError):
        ame([], [straight_lane()])
    with pytest.raises(EmptyInputError):
        ame([straight_lane()], [])
    with pytest.raises(Exception):
        AmeResult(e_ame=-0.1, n_points=1, lateral_only=True)


# --- generator ---------------------------------------------------------------


def test_synth_same_seed_identical():
    cfg = dataclasses.replace(standard_config(7), link_areas=2, maps_per_area=3)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    for area_a, area_b in zip(a, b):
        assert area_a.link_id == area_b.link_id
        for ma, mb in zip(area_a.local_maps, area_b.local_maps):
            assert ma.lane_points().tolist() == mb.lane_points().tolist()
            assert [i.confidence for i in ma.images] == [i.confidence for i in mb.images]


def test_synth_zero_sigma_keeps_truth_geometry():
    quiet = Scenario(
        name="quiet", factor_ranges={F.LANE_VISIBILITY: (10, 10)}, noise_sigma=0.0
    )
    cfg = SynthConfig(
        seed=3,
        link_areas=1,
        maps_per_area=2,
        lanes_per_area=3,
        images_per_map=2,
        degradation_scenarios=(quiet,),
    )
    area = synth_generate(cfg)[0]
    truth = np.vstack([l.points_array() for l in area.ground_truth])
    for m in area.local_maps:
        assert m.lane_points().tolist() == truth.tolist()
    report = run_experiment([area], ["seq1", "baseline"])
    assert report.averages()["seq1"] < 0.02
    assert report.averages()["baseline"] < 0.02


def test_synth_confidence_tracks_noise_over_seeds():
    clean = Scenario(
        name="clean",
        factor_ranges={F.LANE_VISIBILITY: (9, 10)},
        noise_sigma=0.05,
    )
    degraded = Scenario(
        name="degraded",
        factor_ranges={
            F.LANE_VISIBILITY: (2, 4),
            F.BLUR_DAY: (4, 7),
            F.ILLUMINATION: (4, 7),
        },
        noise_sigma=0.5,
    )
    for seed in range(20):
        cfg = SynthConfig(
            seed=seed,
            link_areas=1,
            maps_per_area=2,
            images_per_map=4,
            degradation_scenarios=(clean, degraded),
        )
        area = synth_generate(cfg)[0]
        clean_avg = average_confidence(area.local_maps[0])
        degraded_avg = average_confidence(area.local_maps[1])
        assert clean_avg > degraded_avg


def test_synth_config_validation_and_roundtrip(tmp_path):
    with pytest.raises(Exception):
        SynthConfig(link_areas=0)
    cfg = standard_config(5)
    path = tmp_path / "synth.json"
    import json

    path.write_text(json.dumps(synth_config_to_dict(cfg)))
    loaded = load_synth_config(path)
    assert loaded == cfg
    with pytest.raises(ConfigError):
        load_synth_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"link_areas": 0}))
    with pytest.raises(ConfigError):
        load_synth_config(bad)


# --- experiment ---------------------------------------------------------------


def test_scripted_modifications_cover_all_three_ops():
    cfg = dataclasses.replace(standard_config(0), link_areas=1, maps_per_area=2)
    area = synth_generate(cfg)[0]
    mods = scripted_modifications(area.ground_truth)
    assert [m.op for m in mods] == ["shift", "delete", "add"]
    truth_map = LocalMap("t", area.link_id, lane_lines=area.ground_truth)
    modified = apply_modifications(truth_map, mods)
    assert modified.lane("lane_01") is None
    assert any(l.lane_id.startswith("add_") for l in modified.lane_lines)


def test_scripted_modifications_need_three_lanes():
    with pytest.raises(EmptyInputError):
        scripted_modifications([straight_lane("a"), straight_lane("b", 3.5)])


def test_prior_map_is_sparser_than_truth():
    cfg = dataclasses.replace(standard_config(0), link_areas=1)
    area = synth_generate(cfg)[0]
    prior = prior_map(area.ground_truth, area.link_id)
    truth_points = sum(len(l.points) for l in area.ground_truth)
    prior_points = sum(len(l.points) for l in prior.lane_lines)
    assert prior_points < truth_points / 4
    assert ame(prior.lane_lines, area.ground_truth).e_ame < 1e-6


def test_single_pristine_map_fuses_below_binning_resolution():
    pristine = Scenario(
        name="pristine", factor_ranges={F.LANE_VISIBILITY: (10, 10)}, noise_sigma=0.0
    )
    cfg = SynthConfig(
        seed=11,
        link_areas=1,
        maps_per_area=1,
        images_per_map=2,
        degradation_scenarios=(pristine,),
    )
    area = synth_generate(cfg)[0]
    report = run_experiment([area], ["seq1"])
    assert report.averages()["seq1"] <= 0.05


def test_policy_parsing_and_report_shape():
    cfg = dataclasses.replace(standard_config(2), link_areas=2, maps_per_area=3)
    areas = synth_generate(cfg)
    report = run_experiment(areas, ["baseline", "seq1", "seq3", "band"])
    assert set(report.rows) == {a.link_id for a in areas}
    for row in report.rows.values():
        assert set(row) == {"baseline", "seq1", "seq3", "band"}
        assert all(out.applicable for out in row.values())
    csv_rows = report.to_csv_rows()
    assert csv_rows[0] == ["area", "policy", "e_ame", "n_points"]
    assert csv_rows[-1][0] == "average"
    table = report.format_table()
    assert "average" in table
    with pytest.raises(ConfigError):
        run_experiment(areas, ["sequoia"])


def test_threshold_policy_can_be_not_applicable():
    murky = Scenario(
        name="murky",
        factor_ranges={F.LANE_VISIBILITY: (1, 2), F.BLUR_DAY: (6, 9)},
        noise_sigma=0.3,
    )
    cfg = SynthConfig(
        seed=1,
        link_areas=1,
        maps_per_area=2,
        images_per_map=2,
        degradation_scenarios=(murky,),
    )
    area = synth_generate(cfg)[0]
    report = run_experiment([area], ["threshold", "baseline"])
    row = report.rows[area.link_id]
    assert not row["threshold"].applicable
    assert row["baseline"].applicable
    assert report.averages()["threshold"] is None
    assert "n/a" in report.format_table()


def test_experiment_requires_ground_truth():
    cfg = dataclasses.replace(standard_config(0), link_areas=1, maps_per_area=2)
    area = synth_generate(cfg)[0]
    bare = LinkArea(link_id=area.link_id, local_maps=area.local_maps, ground_truth=None)
    with pytest.raises(EmptyInputError):
        evaluate_area(bare, ["seq1"])


def test_seq1_beats_baseline_at_sigma_extremes():
    # one zero-noise map plus four high-noise maps, several seeds
    quiet = Scenario(
        name="quiet", factor_ranges={F.LANE_VISIBILITY: (10, 10)}, noise_sigma=0.0
    )
    loud = Scenario(
        name="loud",
        factor_ranges={F.LANE_VISIBILITY: (4, 5), F.BLUR_DAY: (5, 8)},
        noise_sigma=0.45,
    )
    for seed in range(5):
        cfg = SynthConfig(
            seed=seed,
            link_areas=1,
            maps_per_area=5,
            images_per_map=3,
            degradation_scenarios=(quiet, loud, loud, loud, loud),
        )
        area = synth_generate(cfg)[0]
        report = run_experiment([area], ["seq1", "baseline"])
        avg = report.averages()
        assert avg["seq1"] <= avg["baseline"]


def test_report_is_deterministic():
    cfg = dataclasses.replace(standard_config(9), link_areas=2, maps_per_area=4)
    areas = synth_generate(cfg)
    r1 = run_experiment(areas, ["baseline", "seq1", "band"])
    r2 = run_experiment(synth_generate(cfg), ["baseline", "seq1", "band"])
    assert r1.to_csv_rows() == r2.to_csv_rows()
    threaded = run_experiment(areas, ["baseline", "seq1", "band"], jobs=2)
    assert threaded.to_csv_rows() == r1.to_csv_rows()


def test_threaded_experiment_raises_first_failing_area():
    cfg = dataclasses.replace(standard_config(0), link_areas=3, maps_per_area=2)
    areas = synth_generate(cfg)
    areas[1] = LinkArea(link_id="bare", local_maps=areas[1].local_maps, ground_truth=None)
    for jobs in (1, 2):
        with pytest.raises(EmptyInputError, match="'bare'"):
            run_experiment(areas, ["seq1"], jobs=jobs)
