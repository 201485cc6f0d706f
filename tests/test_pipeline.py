"""The one update path: ``lanefuse update`` and ``evaluate_area`` both reach
``pipeline.update``, which pools each selection in the order its caller gives."""

import dataclasses
import json

import numpy as np
import pytest

import lanefuse.fusion
from lanefuse.cli import main
from lanefuse.errors import InvalidInputError
from lanefuse.evaluation import (
    ADD_OFFSET,
    SHIFT_DX,
    SHIFT_DY,
    ame,
    apply_modifications,
    evaluate_area,
    prior_map,
    scripted_modifications,
    standard_config,
    synth_generate,
)
from lanefuse.fusion import fuse_maps, rank_maps, select_band
from lanefuse.mapmodel import LinkArea, LocalMap, load_local_map, save_link_area
from lanefuse.pipeline import Modification, load_modifications, update

# The scripted modifications of a standard area, as a script file holds them.
SCRIPT = [
    {"op": "shift", "lane_id": "lane_00", "dx": SHIFT_DX, "dy": SHIFT_DY},
    {"op": "delete", "lane_id": "lane_01"},
    {"op": "add", "lane_a": "lane_02", "lane_b": "lane_03", "offset": ADD_OFFSET},
]


def _worst_first_area():
    """A standard area whose maps are stored in reverse rank order."""
    cfg = dataclasses.replace(standard_config(0), link_areas=1, lane_length=20.0)
    area = synth_generate(cfg)[0]
    by_id = {m.map_id: m for m in area.local_maps}
    ranked = [map_id for map_id, _ in rank_maps(area)]
    return LinkArea(area.link_id, [by_id[m] for m in reversed(ranked)], area.ground_truth)


def _update_cli(tmp_path, area) -> LocalMap:
    area_path = tmp_path / "area.json"
    save_link_area(area, area_path)
    script = tmp_path / "mods.json"
    script.write_text(json.dumps(SCRIPT))
    assert load_modifications(script) == scripted_modifications(area.ground_truth)
    assert main(["update", str(area_path), str(script), "--output-dir", str(tmp_path)]) == 0
    return load_local_map(tmp_path / "area_fused.json")


def _modified(area):
    mods = scripted_modifications(area.ground_truth)
    prior = apply_modifications(prior_map(area.ground_truth, area.link_id), mods)
    observed = {m.map_id: apply_modifications(m, mods) for m in area.local_maps}
    truth = apply_modifications(LocalMap("truth", area.link_id, area.ground_truth), mods)
    return prior, observed, truth


def test_update_pools_file_order_and_evaluate_pools_rank_order(tmp_path):
    area = _worst_first_area()
    prior, observed, truth = _modified(area)
    band = select_band(rank_maps(area)).selected_map_ids
    assert len(band) >= 2
    file_order = [observed[m.map_id] for m in area.local_maps if m.map_id in band]
    rank_order = [observed[map_id] for map_id in band]
    assert [m.map_id for m in file_order] == list(reversed(band))
    by_file = fuse_maps(file_order, prior)
    by_rank = fuse_maps(rank_order, prior)
    # The two orders give different bits, so the checks below tell them apart.
    assert by_file != by_rank

    assert _update_cli(tmp_path, area) == by_file
    band_result = evaluate_area(area, ["band"])["band"].result
    assert band_result == ame(by_rank.lane_lines, truth.lane_lines)


def test_update_modifies_only_the_maps_it_fuses(tmp_path):
    # The script shifts lane_00, which the worst-ranked map lacks; that map
    # is not in the band, so update neither edits nor reads it.
    area = _worst_first_area()
    ranked = rank_maps(area)
    worst = ranked[-1][0]
    assert worst not in select_band(ranked).selected_map_ids
    maps = [
        m if m.map_id != worst
        else dataclasses.replace(m, lane_lines=[l for l in m.lane_lines if l.lane_id != "lane_00"])
        for m in area.local_maps
    ]
    (tmp_path / "whole").mkdir()
    fused = _update_cli(tmp_path, LinkArea(area.link_id, maps, area.ground_truth))
    assert fused == _update_cli(tmp_path / "whole", area)


def test_update_command_aligns_each_band_map_once(tmp_path, monkeypatch):
    area = _worst_first_area()
    _, observed, _ = _modified(area)
    band = select_band(rank_maps(area)).selected_map_ids
    sources = []
    icp_align = lanefuse.fusion.icp_align

    def recording(source, target, params):
        sources.append(np.array(source))
        return icp_align(source, target, params)

    monkeypatch.setattr(lanefuse.fusion, "icp_align", recording)
    _update_cli(tmp_path, area)
    aligned = [
        next(map_id for map_id, m in observed.items() if np.array_equal(m.lane_points(), src))
        for src in sources
    ]
    assert sorted(aligned) == sorted(band)


def test_update_fuses_each_selection_and_gives_none_for_an_empty_one(monkeypatch):
    area = _worst_first_area()
    prior, observed, _ = _modified(area)
    ranked = [map_id for map_id, _ in rank_maps(area)]
    mods = scripted_modifications(area.ground_truth)
    one, none, two = update(area, mods, ranked, [1, 0, 2])
    assert none is None
    assert one == fuse_maps([observed[ranked[0]]], prior)
    assert two == fuse_maps([observed[m] for m in ranked[:2]], prior)
    for name in ("icp_align", "neighbor_pairs"):
        monkeypatch.setattr(lanefuse.fusion, name, lambda *args, name=name: pytest.fail(name))
    assert update(area, mods, ranked, [0, 0]) == [None, None]


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"op": "shift", "lane_id": "l0", "dx": True}, "dx must be a number, got True"),
        ({"op": "shift", "lane_id": "l0", "dx": "0.5"}, "dx must be a number, got '0.5'"),
        ({"op": "delete", "lane_id": 7}, "lane_id must be a string, got 7"),
        ({"op": "bogus", "lane_id": "l0"}, "unknown op 'bogus'"),
        ({"op": ["shift"], "lane_id": "l0"}, "unknown op ['shift']"),
        ({"op": "shift", "dx": 0.5}, "lane_id must be a string, got None"),
        ({"op": "add", "lane_a": "l0"}, "lane_b must be a string, got None"),
        ({"op": "add", "lane_a": "l0", "lane_b": "l1", "offset": float("nan")},
         "offset must be finite, got nan"),
    ],
)
def test_modification_checks_its_op_and_that_ops_fields(fields, message):
    with pytest.raises(InvalidInputError) as info:
        Modification(**fields)
    assert str(info.value) == message


def test_modification_keeps_its_fields_as_plain_numbers():
    mod = Modification("shift", lane_id="l0", dx=1, dy=np.float64(0.5))
    assert (type(mod.dx), type(mod.dy)) == (float, float) and (mod.dx, mod.dy) == (1.0, 0.5)


@pytest.mark.parametrize("bad", ["unknown", "repeated"])
def test_update_rejects_an_order_id_it_cannot_fuse_once(bad):
    area = _worst_first_area()
    ranked = [map_id for map_id, _ in rank_maps(area)]
    map_id, order = ("nope", ["nope"]) if bad == "unknown" else (ranked[0], ranked[:1] * 2)
    fault = "is not in the area" if bad == "unknown" else "repeats in the order"
    with pytest.raises(InvalidInputError, match=f"map '{map_id}' {fault}"):
        update(area, scripted_modifications(area.ground_truth), order, [1])


def test_fuse_maps_pools_duplicates_as_given():
    area = _worst_first_area()
    prior, observed, _ = _modified(area)
    best = observed[rank_maps(area)[0][0]]
    target = prior.lane_points()
    moved = lanefuse.fusion.align(best, target)[0]
    expected = lanefuse.fusion.fuse_points(np.vstack([target, moved, moved]), prior)
    assert fuse_maps([best, best], prior) == expected
