"""AME metric, synthetic generator, and the policy experiment."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lanefuse.evaluation as ev
import lanefuse.registration as reg
from lanefuse.backends import Scenario
from lanefuse.confidence import gcs
from lanefuse.errors import ConfigError, EmptyInputError, InvalidInputError
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
from lanefuse.fusion import BAND_FRACTION
from lanefuse.mapmodel import LaneLine, LinkArea, LocalMap, Point3, average_confidence
from lanefuse.scoring import FactorKind
from oracles import dense_point_errors

F = FactorKind


def straight_lane(lane_id="t0", y=0.0, length=10.0, step=1.0, z=0.0):
    x = np.arange(0.0, length + step, step)
    pts = np.column_stack([x, np.full_like(x, y), np.full_like(x, z)])
    return LaneLine(lane_id, pts)


def test_ame_identity_is_zero():
    truth = [straight_lane(), straight_lane("t1", 3.5)]
    result = ame(truth, truth)
    assert result.e_ame == 0.0


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
        LaneLine("e", estimated[0].points + [0.4, 0.0, 0.0])
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
        LaneLine(l.lane_id, l.points + [7.0, -3.0, 0.0])
        for l in truth
    ]
    moved_est = [
        LaneLine(l.lane_id, l.points + [7.0, -3.0, 0.0])
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
        AmeResult(e_ame=-0.1, n_points=1)


# --- nearest-segment search against the dense oracle -------------------------


@pytest.fixture(params=["default", "tiny"])
def pair_budget(request, monkeypatch):
    """Run with the shipped pair budget and with one so small that most
    blocks hold a single point with more candidates than the budget."""
    if request.param == "tiny":
        monkeypatch.setattr(reg, "PAIR_BUDGET", 3)


def assert_matches_dense(points, seg_a, seg_b):
    for lateral_only in (True, False):
        got = reg.nearest_segment_errors(points, seg_a, seg_b, lateral_only)
        want = dense_point_errors(points, seg_a, seg_b, lateral_only)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def segments(*polylines):
    """(seg_a, seg_b) for polylines given as sequences of xyz rows."""
    arrays = [np.asarray(p, dtype=float) for p in polylines]
    return np.vstack([a[:-1] for a in arrays]), np.vstack([a[1:] for a in arrays])


@pytest.mark.parametrize("seed", range(6))
def test_point_errors_random_polylines_match_dense(seed, pair_budget):
    rng = np.random.default_rng(seed)
    polylines = [
        np.cumsum(rng.normal(0.0, rng.uniform(0.05, 3.0), size=(rng.integers(2, 30), 3)), axis=0)
        for _ in range(rng.integers(1, 5))
    ]
    seg_a, seg_b = segments(*polylines)
    points = rng.uniform(-10.0, 10.0, size=(rng.integers(1, 200), 3))
    assert_matches_dense(points, seg_a, seg_b)
    # Points on the polylines themselves: distance ties at every vertex.
    assert_matches_dense(np.vstack(polylines), seg_a, seg_b)


def test_point_errors_match_dense_on_every_synth_pool(monkeypatch):
    calls = []
    search = ev.nearest_segment_errors

    def recording(points, seg_a, seg_b, lateral_only):
        calls.append((points, seg_a, seg_b))
        return search(points, seg_a, seg_b, lateral_only)

    monkeypatch.setattr(ev, "nearest_segment_errors", recording)
    for seed in range(3):
        run_experiment(
            synth_generate(standard_config(seed)), ["baseline", "seq1", "seq3", "seq5", "band"]
        )
    monkeypatch.undo()
    assert len(calls) == 3 * 6 * 5
    for points, seg_a, seg_b in calls:
        assert_matches_dense(points, seg_a, seg_b)
    # Seed 0's calls again at map-frame coordinates, where rounding is coarsest.
    offset = np.array([500_000.0, 4_000_000.0, 0.0])
    for points, seg_a, seg_b in calls[: 6 * 5]:
        assert_matches_dense(points + offset, seg_a + offset, seg_b + offset)


def test_point_errors_at_shared_vertex(pair_budget):
    seg_a, seg_b = segments([[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0.5]])
    points = np.array([[1, 0, 0], [1.2, -0.2, 0], [0.8, 0.2, 0.1], [1, 1, 0], [1.1, 0.9, 0.0]])
    assert_matches_dense(points, seg_a, seg_b)


@pytest.mark.parametrize("above_first", [True, False])
def test_point_errors_3d_tie_takes_lowest_index(above_first, pair_budget):
    # Both segments are exactly 1 m from the origin in 3D; the one above it
    # has lateral error 0, the one beside it lateral error 1.
    above = [[-1, 0, 1], [1, 0, 1]]
    beside = [[-1, 1, 0], [1, 1, 0]]
    seg_a, seg_b = segments(*((above, beside) if above_first else (beside, above)))
    origin = np.zeros((1, 3))
    lateral = reg.nearest_segment_errors(origin, seg_a, seg_b, lateral_only=True)
    assert lateral.tolist() == [0.0 if above_first else 1.0]
    assert reg.nearest_segment_errors(origin, seg_a, seg_b, lateral_only=False).tolist() == [1.0]
    assert_matches_dense(origin, seg_a, seg_b)


def test_point_errors_degenerate_segments(pair_budget):
    # A near-zero-length segment, and one that is vertical in the xy-plane.
    seg_a, seg_b = segments(
        [[0, 0, 0], [1e-10, 0, 0], [1, 0, 0]],
        [[3, 0, 0], [3, 0, 2], [4, 0, 2]],
    )
    points = np.array(
        [[0, 0, 0], [-0.5, 0.1, 0], [1e-10, 0, 1], [3.2, 0.1, 1.0], [2.9, -0.3, 2.5], [3, 0, 1]]
    )
    assert_matches_dense(points, seg_a, seg_b)


def test_point_errors_far_points_make_every_segment_a_candidate(pair_budget):
    # A 10 m lane seen from over 1 km away: every midpoint is within the
    # search radius, so each point has all segments as candidates.
    rng = np.random.default_rng(3)
    x = np.arange(0.0, 11.0)
    seg_a, seg_b = segments(
        np.column_stack([x, np.zeros_like(x), np.zeros_like(x)]),
        np.column_stack([x, np.full_like(x, 3.5), 0.1 * x]),
    )
    points = rng.uniform(-1.0, 1.0, size=(40, 3)) + np.array([5.0, 1500.0, 0.0])
    assert_matches_dense(points, seg_a, seg_b)
    assert_matches_dense(-points, seg_a, seg_b)


def test_ame_symmetric_matches_dense(pair_budget):
    rng = np.random.default_rng(8)
    truth = [straight_lane(), straight_lane("t1", 3.5, step=0.5)]
    estimated = [
        LaneLine(l.lane_id, l.points + [0.0, 1.0, 0.0] * rng.normal(0, 0.2, (len(l.points), 1)))
        for l in truth
    ]
    for lateral_only in (True, False):
        result = ame(estimated, truth, lateral_only=lateral_only, symmetric=True)
        est = np.vstack([l.points_array() for l in estimated])
        tru = np.vstack([l.points_array() for l in truth])
        errors = np.concatenate(
            [
                dense_point_errors(est, *reg.lane_segments(truth), lateral_only),
                dense_point_errors(tru, *reg.lane_segments(estimated), lateral_only),
            ]
        )
        assert result.n_points == len(errors)
        assert result.e_ame == float(np.sqrt(np.mean(errors**2)))


def km_lanes(y0, length=1000.0, count=4):
    x = np.linspace(0.0, length, int(round(length / 0.2)) + 1)
    return [
        LaneLine(f"lane_{i}", np.column_stack([x, np.full_like(x, y0 + 3.5 * i), np.zeros_like(x)]))
        for i in range(count)
    ]


# Far below the ~10 GB the dense (n, m, 3) arrays would need for 4 lanes of
# 1 km (20k points against 20k segments); the dense oracle never runs here.
AME_MEMORY_BOUND = 64 * 2**20


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ame_long_lanes_in_bounded_memory():
    truth = km_lanes(0.0)
    estimated = km_lanes(0.3)
    result, peak = traced_peak(lambda: ame(estimated, truth))
    assert result.n_points == 20004
    assert result.e_ame == pytest.approx(0.3, abs=1e-9)
    assert peak < AME_MEMORY_BOUND


def test_ame_far_points_stay_within_pair_budget(monkeypatch):
    # A lane 1.1 km away from 1 km truth lanes: each point has ~150
    # candidate segments, several budgets' worth in all.
    truth = km_lanes(0.0)
    estimated = km_lanes(1100.0, length=400.0, count=1)
    blocks = []
    candidate_blocks = reg._candidate_blocks

    def counting(*args):
        for block in candidate_blocks(*args):
            blocks.append(len(block[1]))
            yield block

    monkeypatch.setattr(reg, "_candidate_blocks", counting)
    result, peak = traced_peak(lambda: ame(estimated, truth))
    assert result.e_ame == pytest.approx(1100.0 - 10.5, abs=1e-9)
    assert len(blocks) > 2 and max(blocks) <= reg.PAIR_BUDGET
    assert peak < AME_MEMORY_BOUND


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
    quiet = Scenario(name="quiet", visibility=(10, 10), noise_sigma=0.0)
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
        visibility=(9, 10),
        noise_sigma=0.05,
    )
    degraded = Scenario(
        name="degraded",
        visibility=(2, 4),
        factor_ranges={
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

    doc = synth_config_to_dict(cfg)
    assert [next(iter(s["factors"])) for s in doc["scenarios"]] == ["lane_visibility"] * 7
    path.write_text(json.dumps(doc))
    loaded = load_synth_config(path)
    assert loaded == cfg
    assert [s.visibility for s in loaded.degradation_scenarios] == [
        (9, 10), (9, 9), (8, 8), (6, 7), (5, 6), (3, 4), (1, 3)
    ]
    with pytest.raises(ConfigError):
        load_synth_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"link_areas": 0}))
    with pytest.raises(ConfigError):
        load_synth_config(bad)


@pytest.mark.parametrize(
    "doc",
    [
        {"link_areas": 1.9},
        {"maps_per_area": True},
        {"seed": float("inf")},
        {"scenarios": [{"name": "x", "factors": {"rain": [2.5, 7]}}]},
        {"scenarios": [{"name": "x", "factors": {"rain": [2, True]}}]},
    ],
    ids=["fraction", "bool", "infinite", "fractional-range", "bool-range"],
)
def test_synth_config_rejects_bools_and_fractions_for_integers(tmp_path, doc):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="must be an integer"):
        load_synth_config(path)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"lane_length": True}, "lane_length must be a number"),
        ({"lane_spacing": "3.5"}, "lane_spacing must be a number"),
        ({"link_areas": "3"}, "link_areas must be an integer"),
        ({"scenarios": [{"sigma": True}]}, "sigma must be a number"),
        ({"scenarios": [{"sigma": "0.2"}]}, "sigma must be a number"),
        ({"scenarios": [{"factors": {"rain": ["2", "5"]}}]}, "rain range must be an integer"),
        ({"scenarios": [{"factors": {"rain": "25"}}]}, "rain range must be a list"),
        ({"scenarios": [{"factors": {"rain": [2, 5, 7]}}]}, "rain range must be a list"),
    ],
    ids=["bool-float", "string-float", "string-int", "bool-sigma", "string-sigma",
         "string-range", "string-as-range", "three-bounds"],
)
def test_synth_config_numbers_must_be_json_numbers(tmp_path, doc, key):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key):
        load_synth_config(path)


@pytest.mark.parametrize("name", [None, 7, True, ["a"]], ids=["null", "int", "bool", "list"])
def test_synth_config_scenario_name_must_be_a_string(tmp_path, name):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"scenarios": [{"name": "ok"}, {"name": name}]}))
    with pytest.raises(ConfigError, match=r"scenarios\[1\]: name must be a string"):
        load_synth_config(path)
    path.write_text(json.dumps({"scenarios": [{"name": "ok"}, {}]}))
    assert [s.name for s in load_synth_config(path).degradation_scenarios] == ["ok", "scenario_1"]


def test_synth_config_reads_integral_floats_as_integers(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"link_areas": 2.0, "scenarios": [{"factors": {"rain": [2.0, 7]}}]}))
    cfg = load_synth_config(path)
    assert cfg.link_areas == 2 and type(cfg.link_areas) is int
    assert cfg.degradation_scenarios[0].range_for(F.RAIN) == (2, 7)


def test_synth_generate_scores_with_the_given_method():
    cfg = dataclasses.replace(standard_config(0), link_areas=1)
    (dpcs_area,) = synth_generate(cfg)
    (gcs_area,) = synth_generate(cfg, method="gcs")
    pairs = [
        (a, b)
        for m, n in zip(dpcs_area.local_maps, gcs_area.local_maps)
        for a, b in zip(m.images, n.images)
    ]
    assert all(b.confidence == gcs(a) for a, b in pairs)
    assert any(a.confidence != b.confidence for a, b in pairs)


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


def test_update_path_names_stay_importable_from_evaluation():
    from lanefuse import pipeline

    assert ev.Modification is pipeline.Modification
    assert ev.apply_modifications is pipeline.apply_modifications
    assert ev.prior_map is pipeline.prior_map


def test_prior_map_is_sparser_than_truth():
    cfg = dataclasses.replace(standard_config(0), link_areas=1)
    area = synth_generate(cfg)[0]
    prior = prior_map(area.ground_truth, area.link_id)
    truth_points = sum(len(l.points) for l in area.ground_truth)
    prior_points = sum(len(l.points) for l in prior.lane_lines)
    assert prior_points < truth_points / 4
    assert ame(prior.lane_lines, area.ground_truth).e_ame < 1e-6


def test_single_pristine_map_fuses_below_binning_resolution():
    pristine = Scenario(name="pristine", visibility=(10, 10), noise_sigma=0.0)
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


def test_parse_policy_gives_each_policys_map_choice():
    ranked = [("a", 9.0), ("b", 8.8), ("c", 7.0), ("d", 3.0)]
    assert ev.parse_policy("baseline")(ranked) == 4
    assert ev.parse_policy(" SEQ2 ")(ranked) == 2
    assert ev.parse_policy("seq9")(ranked) == 4
    assert ev.parse_policy("threshold")(ranked) == 3
    assert ev.parse_policy("band")(ranked) == len(ev.select_band(ranked).selected_map_ids)
    assert ev.parse_policy("seq10")(ranked) == 4
    # K is ASCII digits without a leading zero, so each policy has one name.
    for name, message in [
        ("x", "unknown policy 'x'"),
        ("seqq", "unknown policy 'seqq'"),
        ("seq0", "seq policy needs k >= 1, got 0"),
        *[(name, f"unknown policy {name!r}")
          for name in ("seq03", "seq00", "seq+3", "seq 3", "seq1_0", "seq\u0663", "seq-1", "seq")],
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            ev.parse_policy(name)


@st.composite
def _rankings(draw):
    """A ranking sorted as rank_maps sorts it, drawn to hold ties and averages
    of exactly 7.0, 0.9 x best and the band's own lower bound."""
    best = draw(st.floats(0.0, 10.0))
    exact = st.sampled_from([best, 0.9 * best, best - BAND_FRACTION * best, 7.0])
    averages = draw(st.lists(exact | st.floats(0.0, 10.0), max_size=8))
    scored = [(f"m{i}", avg) for i, avg in enumerate([best, *averages])]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


@settings(max_examples=200, deadline=None)
@given(_rankings(), st.integers(1, 12))
def test_each_policy_count_is_its_paper_definition(ranked, k):
    ids = [map_id for map_id, _ in ranked]
    definitions = {
        "baseline": ids,
        f"seq{k}": ids[:k],
        "band": list(ev.select_band(ranked).selected_map_ids),
        "threshold": [m for m, avg in ranked if avg >= 7.0],
    }
    for policy, maps in definitions.items():
        assert ids[: ev.parse_policy(policy)(ranked)] == maps


def test_experiment_rejects_a_repeated_link_id_or_policy():
    areas = [
        synth_generate(dataclasses.replace(standard_config(seed), link_areas=1, maps_per_area=2))[0]
        for seed in (0, 1)
    ]
    with pytest.raises(InvalidInputError, match="link id 'area_000' appears in more than one"):
        run_experiment(areas, ["seq1"])
    with pytest.raises(ConfigError, match="policy 'band' given more than once"):
        run_experiment(areas[:1], ["band", "seq1", " BAND"])
    # seq03 would run seq3 a second time under another name.
    for names in (["seq3", "seq03"], ["seq10", "seq1_0"], ["seq3", "seq\u0663"]):
        with pytest.raises(ConfigError, match=re.escape(f"unknown policy {names[1]!r}")):
            run_experiment(areas[:1], names)


def test_table_renders_the_csv_rows_even_for_an_area_named_average():
    def outcome(e_ame):
        return ev.PolicyOutcome(None if e_ame is None else AmeResult(e_ame, 10))

    report = ev.EvaluationReport(policies=["baseline", "band"])
    report.rows["average"] = {"baseline": outcome(0.5), "band": outcome(None)}
    report.rows["b"] = {"baseline": outcome(0.25), "band": outcome(0.125)}
    assert report.format_table() == (
        "   link area      baseline          band\n"
        "     average      0.500000           n/a\n"
        "           b      0.250000      0.125000\n"
        "     average      0.375000      0.125000\n"
    )


def test_threshold_policy_can_be_not_applicable():
    murky = Scenario(
        name="murky",
        visibility=(1, 2),
        factor_ranges={F.BLUR_DAY: (6, 9)},
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
    quiet = Scenario(name="quiet", visibility=(10, 10), noise_sigma=0.0)
    loud = Scenario(
        name="loud",
        visibility=(4, 5),
        factor_ranges={F.BLUR_DAY: (5, 8)},
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


def test_experiment_rejects_jobs_below_one():
    cfg = dataclasses.replace(standard_config(0), link_areas=1, maps_per_area=2)
    areas = synth_generate(cfg)
    for jobs in (0, -3):
        with pytest.raises(InvalidInputError, match="jobs"):
            run_experiment(areas, ["seq1"], jobs=jobs)


def test_threaded_experiment_raises_first_failing_area():
    cfg = dataclasses.replace(standard_config(0), link_areas=3, maps_per_area=2)
    areas = synth_generate(cfg)
    areas[1] = LinkArea(link_id="bare", local_maps=areas[1].local_maps, ground_truth=None)
    for jobs in (1, 2):
        with pytest.raises(EmptyInputError, match="'bare'"):
            run_experiment(areas, ["seq1"], jobs=jobs)


def test_policy_errors_unchanged_at_map_frame_coordinates():
    # UTM-sized offsets: ICP, DBSCAN and the AME must not lose the centimetres.
    offset = np.array([500000.0, 4000000.0, 0.0])
    policies = ["baseline", "seq1", "seq3", "seq5", "band"]

    def moved(lanes):
        return [LaneLine(lane.lane_id, lane.points + offset) for lane in lanes]

    for area in synth_generate(standard_config(0))[:2]:  # straight, curved
        far = LinkArea(
            area.link_id,
            [dataclasses.replace(m, lane_lines=moved(m.lane_lines)) for m in area.local_maps],
            moved(area.ground_truth),
        )
        near_out = evaluate_area(area, policies)
        far_out = evaluate_area(far, policies)
        for policy in policies:
            near, far_result = near_out[policy].result, far_out[policy].result
            assert (near is None) == (far_result is None)
            if near is not None:
                assert f"{far_result.e_ame:.6f}" == f"{near.e_ame:.6f}", (area.link_id, policy)
