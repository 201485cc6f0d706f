"""Ranking, band selection, map modifications, and geometry fusion."""

import numpy as np
import pytest

from lanefuse.clustering import DbscanParams
from lanefuse.errors import (
    DegenerateGeometryError,
    EmptyInputError,
    InvalidInputError,
    LaneNotFoundError,
)
from lanefuse.evaluation import ame
from lanefuse.fusion import (
    fuse_maps,
    modify_add,
    modify_delete,
    modify_shift,
    rank_maps,
    resample_polyline,
    select_band,
)
from lanefuse.mapmodel import LaneLine, LinkArea, LocalMap, Point3
from lanefuse.registration import IcpParams
from lanefuse.scoring import ImageAssessment


def scored_map(map_id, confidences, link="link"):
    images = [
        ImageAssessment(f"{map_id}_i{k}", confidence=float(c))
        for k, c in enumerate(confidences)
    ]
    return LocalMap(map_id=map_id, link_area_id=link, images=images)


def area_with_averages(averages):
    maps = [scored_map(f"m{i}", [avg]) for i, avg in enumerate(averages)]
    return LinkArea(link_id="link", local_maps=maps)


# Per-map average confidences reported for one road segment and for the
# all-segment average row; the band keeps 2 and 3 maps respectively.
ROW_SIX = [8.80, 8.46, 7.82, 6.57, 5.38]
ROW_AVERAGE = [8.30, 7.96, 7.62, 6.64, 5.89]


def test_rank_maps_descending_with_reported_row():
    ranked = rank_maps(area_with_averages([7.82, 8.80, 5.38, 8.46, 6.57]))
    assert [round(avg, 2) for _, avg in ranked] == ROW_SIX


def test_rank_maps_tie_breaks_by_map_id():
    ranked = rank_maps(area_with_averages([5.0, 5.0, 5.0]))
    assert [map_id for map_id, _ in ranked] == ["m0", "m1", "m2"]


def test_rank_maps_singleton_and_empty():
    assert len(rank_maps(area_with_averages([4.2]))) == 1
    with pytest.raises(EmptyInputError):
        rank_maps(LinkArea(link_id="x", local_maps=[]))


def test_select_band_average_row_selects_three():
    result = select_band(rank_maps(area_with_averages(ROW_AVERAGE)))
    assert result.lower_bound == pytest.approx(7.47, abs=1e-9)
    assert len(result.selected_map_ids) == 3


def test_select_band_row_six_selects_two():
    result = select_band(rank_maps(area_with_averages(ROW_SIX)))
    assert result.lower_bound == pytest.approx(7.92, abs=1e-9)
    assert len(result.selected_map_ids) == 2


def test_select_band_equal_averages_selects_all():
    result = select_band(rank_maps(area_with_averages([6.0, 6.0, 6.0, 6.0])))
    assert len(result.selected_map_ids) == 4


def test_select_band_k_cap_truncates():
    ranked = rank_maps(area_with_averages([9.0, 8.9, 8.8, 8.7]))
    assert len(select_band(ranked, k_cap=1).selected_map_ids) == 1
    with pytest.raises(InvalidInputError):
        select_band(ranked, k_cap=0)


def test_select_band_always_contains_best():
    rng = np.random.default_rng(0)
    for _ in range(100):
        averages = rng.uniform(0.0, 10.0, size=rng.integers(1, 8))
        ranked = rank_maps(area_with_averages(list(averages)))
        result = select_band(ranked)
        assert result.selected_map_ids
        assert result.selected_map_ids[0] == ranked[0][0]


def straight_map(map_id="m", n_lanes=2, spacing=3.5, length=20.0, step=0.25, link="link"):
    x = np.arange(0.0, length + step, step)
    lanes = []
    for i in range(n_lanes):
        pts = np.column_stack([x, np.full_like(x, i * spacing), np.zeros_like(x)])
        lanes.append(LaneLine(f"lane_{i:02d}", pts))
    return LocalMap(map_id=map_id, link_area_id=link, lane_lines=lanes)


def test_modify_shift():
    m = straight_map()
    shifted = modify_shift(m, "lane_00", 0.5, -0.25)
    moved = shifted.lane("lane_00").points_array()
    orig = m.lane("lane_00").points_array()
    assert np.allclose(moved, orig + [0.5, -0.25, 0.0])
    # zero shift is the identity, shifting back restores
    assert np.allclose(
        modify_shift(m, "lane_00", 0.0, 0.0).lane("lane_00").points_array(), orig
    )
    back = modify_shift(shifted, "lane_00", -0.5, 0.25)
    assert np.allclose(back.lane("lane_00").points_array(), orig)
    with pytest.raises(LaneNotFoundError):
        modify_shift(m, "ghost", 1.0, 0.0)


def test_modify_shift_keeps_negative_zero_z():
    m = LocalMap("m", "a", lane_lines=[LaneLine("l", [[0.0, 0.0, -0.0], [1.0, 0.0, -0.0]])])
    shifted = modify_shift(m, "l", 0.5, 0.25).lane("l").points
    assert shifted.tolist() == [[0.5, 0.25, 0.0], [1.5, 0.25, 0.0]]
    assert np.signbit(shifted[:, 2]).all()


def test_modify_delete():
    m = straight_map(n_lanes=3)
    out = modify_delete(m, "lane_01")
    assert out.lane("lane_01") is None
    assert len(out.lane_lines) == 2
    assert np.allclose(
        out.lane("lane_00").points_array(), m.lane("lane_00").points_array()
    )
    with pytest.raises(LaneNotFoundError):
        modify_delete(m, "ghost")
    empty = modify_delete(modify_delete(out, "lane_00"), "lane_02")
    assert empty.lane_lines == []


def test_modify_add_midpoint():
    m = straight_map(n_lanes=2, spacing=3.5)
    out = modify_add(m, "lane_00", "lane_01", offset=0.0)
    added = [l for l in out.lane_lines if l.lane_id.startswith("add_")]
    assert len(added) == 1
    assert np.allclose(added[0].points_array()[:, 1], 1.75)


def test_modify_add_offset_along_perpendicular():
    m = straight_map(n_lanes=2, spacing=3.5)
    out = modify_add(m, "lane_00", "lane_01", offset=0.1)
    added = [l for l in out.lane_lines if l.lane_id.startswith("add_")][0]
    # lanes run along +x, so the left perpendicular is +y
    assert np.allclose(added.points_array()[:, 1], 1.85)


def test_modify_add_resamples_mismatched_point_counts():
    x_a = np.linspace(0.0, 20.0, 41)
    x_b = np.linspace(0.0, 20.0, 7)
    m = LocalMap(
        "m",
        "link",
        lane_lines=[
            LaneLine("a", np.column_stack([x_a, np.zeros_like(x_a), np.zeros_like(x_a)])),
            LaneLine("b", np.column_stack([x_b, np.full_like(x_b, 3.0), np.zeros_like(x_b)])),
        ],
    )
    out = modify_add(m, "a", "b", offset=0.0)
    added = [l for l in out.lane_lines if l.lane_id.startswith("add_")][0]
    pts = added.points_array()
    assert len(pts) == 41
    assert pts[0].tolist() == [0.0, 1.5, 0.0]  # endpoints preserved
    assert pts[-1].tolist() == [20.0, 1.5, 0.0]
    assert np.allclose(pts[:, 1], 1.5)


def test_modify_add_degenerate_pair():
    m = straight_map(n_lanes=1)
    dup = LocalMap(
        "m2",
        "link",
        lane_lines=m.lane_lines
        + [LaneLine("copy", list(m.lane_lines[0].points))],
    )
    with pytest.raises(DegenerateGeometryError):
        modify_add(dup, "lane_00", "copy", offset=0.0)
    # a nonzero offset keeps it legal
    out = modify_add(dup, "lane_00", "copy", offset=0.2)
    assert any(l.lane_id.startswith("add_") for l in out.lane_lines)


def test_resample_preserves_endpoints_and_arc_spacing():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    out = resample_polyline(pts, 7)
    assert out[0].tolist() == [0.0, 0.0, 0.0]
    assert out[-1].tolist() == [1.0, 2.0, 0.0]
    gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert gaps == pytest.approx([0.5] * 6, abs=1e-9)


FUSE_D = DbscanParams(epsilon=0.5, min_samples=4)
FUSE_I = IcpParams()


def test_fuse_self_copy_reproduces_lanes():
    m = straight_map(n_lanes=3)
    fused = fuse_maps([straight_map("copy", n_lanes=3)], m, FUSE_D, FUSE_I)
    assert len(fused.lane_lines) == 3
    result = ame(fused.lane_lines, m.lane_lines, lateral_only=False)
    assert result.e_ame <= FUSE_D.epsilon
    assert all(len(l.points) >= 2 for l in fused.lane_lines)


def test_fuse_requires_selection():
    with pytest.raises(EmptyInputError):
        fuse_maps([], straight_map(), FUSE_D, FUSE_I)


def test_fuse_deleted_lane_stays_deleted():
    modified = modify_delete(straight_map(n_lanes=3), "lane_01")
    selected = [modify_delete(straight_map("s", n_lanes=3), "lane_01")]
    fused = fuse_maps(selected, modified, FUSE_D, FUSE_I)
    assert len(fused.lane_lines) == 2
    ys = sorted(float(np.median(l.points_array()[:, 1])) for l in fused.lane_lines)
    assert ys == pytest.approx([0.0, 7.0], abs=0.05)


def test_fuse_added_lane_is_present():
    modified = modify_add(straight_map(n_lanes=2), "lane_00", "lane_01", offset=0.25)
    selected = [
        modify_add(straight_map("s", n_lanes=2), "lane_00", "lane_01", offset=0.25)
    ]
    fused = fuse_maps(selected, modified, FUSE_D, FUSE_I)
    assert len(fused.lane_lines) == 3
    ys = sorted(float(np.median(l.points_array()[:, 1])) for l in fused.lane_lines)
    assert ys == pytest.approx([0.0, 2.0, 3.5], abs=0.05)


def test_fuse_discards_sparse_noise():
    rng = np.random.default_rng(13)
    m = straight_map(n_lanes=2)
    noisy = straight_map("noisy", n_lanes=2)
    # sprinkle isolated outliers far from both lanes
    outliers = np.column_stack(
        [rng.uniform(0, 20, 5), rng.uniform(40, 60, 5), np.zeros(5)]
    )
    lanes = noisy.lane_lines + [
        LaneLine("junk", [Point3(*row) for row in np.vstack([outliers, outliers + [0.05, 5.0, 0.0]])])
    ]
    noisy = LocalMap("noisy", "link", lane_lines=lanes)
    fused = fuse_maps([noisy], m, FUSE_D, FUSE_I)
    assert len(fused.lane_lines) == 2  # outliers never make a lane
    for lane_line in fused.lane_lines:
        assert float(np.max(lane_line.points_array()[:, 1])) < 5.0
