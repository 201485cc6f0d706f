"""Map data model: invariants, JSON round-trips, CSV export."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanefuse.errors import (
    EmptyInputError,
    InvalidInputError,
    MapParseError,
    MapValidationError,
)
from lanefuse.mapmodel import (
    LaneLine,
    LinkArea,
    LocalMap,
    Point3,
    area_to_dict,
    average_confidence,
    check_lane_points,
    load_link_area,
    load_local_map,
    save_link_area,
    save_local_map,
    write_scores_csv,
)
from lanefuse.scoring import FactorKind, ImageAssessment


def image(image_id="img0", confidence=None):
    return ImageAssessment(
        image_id,
        timestamp=1.5,
        factor_scores={FactorKind.BLUR_DAY: 1, FactorKind.RAIN: 0},
        lane_visibility=8,
        lane_confidence=0.8125,
        confidence=confidence,
    )


def lane(lane_id="lane0", y=0.0):
    return LaneLine(lane_id, [Point3(0.0, y, 0.0), Point3(1.0, y, 0.0), Point3(2.5, y, 0.1)])


def area(link_id="link0"):
    maps = [
        LocalMap(
            map_id=f"m{i}",
            link_area_id=link_id,
            lane_lines=[lane("l0", 0.0), lane("l1", 3.5)],
            images=[image(f"m{i}_img", confidence=float(5 + i))],
        )
        for i in range(2)
    ]
    return LinkArea(link_id=link_id, local_maps=maps, ground_truth=[lane("g0")])


def test_point_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        Point3(float("nan"), 0.0, 0.0)


def test_lane_needs_two_distinct_points():
    with pytest.raises(MapValidationError):
        LaneLine("l", [Point3(0, 0, 0)])
    with pytest.raises(MapValidationError):
        LaneLine("l", [Point3(0, 0, 0), Point3(0, 0, 0)])


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, 1.0, 2.0], [1.0, float("inf"), float("nan")]],
        [[0.0, 1.0, float("-inf")], [float("nan"), 1.0, 2.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [2.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1e-12]],
        [[0.0, 1.0, 2.0]],
        [],
        [[0.0, float("nan"), 2.0]],
    ],
)
def test_check_lane_points_raises_as_lane_construction_does(rows):
    def outcome(check):
        try:
            check()
        except (InvalidInputError, MapValidationError) as exc:
            return type(exc), str(exc)
        return None

    pts = np.array(rows)
    expected = outcome(lambda: LaneLine("l", [Point3(*row) for row in pts]))
    assert outcome(lambda: check_lane_points("l", pts)) == expected
    assert outcome(lambda: LaneLine("l", pts)) == expected


def test_lane_points_are_a_read_only_copy():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    lane = LaneLine("l", src)
    assert lane.points.dtype == np.float64 and lane.points.shape == (2, 3)
    assert not lane.points.flags.writeable
    assert not np.shares_memory(lane.points, src)
    src[0, 0] = 5.0
    assert lane.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        lane.points[0, 0] = 1.0
    assert lane.points_array() is lane.points
    assert LaneLine("l", [Point3(0.0, 0.0), Point3(1.0, -0.0)]) == LaneLine("l", [[0, 0, 0], [1, 0, 0]])


def test_lane_rejects_points_not_in_rows_of_three():
    with pytest.raises(InvalidInputError, match="shape"):
        LaneLine("l", [[0.0, 0.0], [1.0, 0.0]])


def test_duplicate_ids_rejected():
    with pytest.raises(MapValidationError):
        LocalMap("m", "a", lane_lines=[lane("x"), lane("x", 1.0)])
    m = LocalMap("m", "a", lane_lines=[lane()])
    with pytest.raises(MapValidationError):
        LinkArea("a", local_maps=[m, m])


def test_average_confidence():
    m = LocalMap("m", "a", images=[image("a", 8.0), image("b", 6.0)])
    assert average_confidence(m) == 7.0
    assert average_confidence(LocalMap("m", "a", images=[image("a", 7.6)])) == 7.6
    with pytest.raises(EmptyInputError):
        average_confidence(LocalMap("m", "a", images=[]))
    with pytest.raises(EmptyInputError):
        average_confidence(LocalMap("m", "a", images=[image("a", None)]))


def test_average_confidence_reproduces_reported_row():
    # Per-image scores averaging 8.80 for the best map of one segment.
    scores = [8.8, 9.0, 8.6, 8.8]
    m = LocalMap("m", "a", images=[image(f"i{k}", s) for k, s in enumerate(scores)])
    assert average_confidence(m) == pytest.approx(8.80, abs=1e-9)


def test_average_confidence_within_min_max():
    rng = np.random.default_rng(0)
    for _ in range(50):
        values = rng.uniform(0, 10, size=rng.integers(1, 9))
        m = LocalMap("m", "a", images=[image(f"i{k}", float(v)) for k, v in enumerate(values)])
        assert values.min() <= average_confidence(m) <= values.max()


def test_minimal_file_roundtrip(tmp_path):
    path = tmp_path / "area.json"
    original = area()
    save_link_area(original, path)
    loaded = load_link_area(path)
    assert area_to_dict(loaded) == area_to_dict(original)


def test_roundtrip_preserves_coordinates_bit_exactly(tmp_path):
    rng = np.random.default_rng(99)
    lanes = []
    for i in range(5):
        pts = [Point3(*row) for row in rng.uniform(-1e4, 1e4, size=(rng.integers(2, 12), 3))]
        lanes.append(LaneLine(f"lane{i}", pts))
    original = LinkArea(
        "rt",
        local_maps=[
            LocalMap(
                "m0",
                "rt",
                lane_lines=lanes,
                images=[image("i", float(rng.uniform(0, 10)))],
            )
        ],
        ground_truth=None,
    )
    path = tmp_path / "rt.json"
    save_link_area(original, path)
    loaded = load_link_area(path)
    for got, want in zip(loaded.local_maps[0].lane_lines, lanes):
        assert got.points_array().tolist() == want.points_array().tolist()
    # a second save is byte-identical
    path2 = tmp_path / "rt2.json"
    save_link_area(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


# Any finite double, with the values where a text round trip could slip
# weighted in: signed zeros, subnormals and the ends of the range.
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(finite, finite, finite), min_size=2, max_size=8).filter(
        lambda rows: all(a != b for a, b in zip(rows, rows[1:]))
    )
)
def test_save_load_save_is_bit_exact(rows):
    area = LinkArea(
        "rt",
        local_maps=[LocalMap("m0", "rt", lane_lines=[LaneLine("l", rows)], images=[image()])],
        ground_truth=[LaneLine("g", rows)],
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_link_area(area, first)
        loaded = load_link_area(first)
        save_link_area(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    want = np.array(rows, dtype=float).view(np.uint64)
    assert np.array_equal(loaded.local_maps[0].lane_lines[0].points.view(np.uint64), want)
    assert np.array_equal(loaded.ground_truth[0].points.view(np.uint64), want)


NAN = float("nan")


# (points of lane l0 of map m0, error type, message after the file path).
@pytest.mark.parametrize(
    "points,error,message",
    [
        (
            [[0.0, 0.0, 0.0], [1.0, "a", 0.0]],
            MapParseError,
            "at map[m0]: point 1 of lane 'l0' has non-numeric parts",
        ),
        (
            [[0.0, 0.0, 0.0], [1.0, 0.0]],
            MapParseError,
            "at map[m0]: point 1 of lane 'l0' must be [x, y, z]",
        ),
        (
            [[0.0, 0.0, 0.0], [1.0, NAN, 0.0]],
            MapValidationError,
            "at map[m0]: point 1 of lane 'l0': point component y=nan not finite",
        ),
        (
            [[0.0, 0.0, 0.0]],
            MapValidationError,
            "at map[m0]: lane 'l0' needs >= 2 points, got 1",
        ),
        (
            [[0.0, None, 0.0], [1.0, 0.0, 0.0]],
            MapParseError,
            "at map[m0]: point 0 of lane 'l0' has non-numeric parts",
        ),
        (
            [[0.0, 0.0, float("inf")], [1.0, "a", 0.0]],
            MapValidationError,
            "at map[m0]: point 0 of lane 'l0': point component z=inf not finite",
        ),
        (
            [["a", NAN, 0.0], [1.0, 0.0, 0.0]],
            MapParseError,
            "at map[m0]: point 0 of lane 'l0' has non-numeric parts",
        ),
        (
            [[NAN, 0.0, 0.0], [1.0, 0.0]],
            MapValidationError,
            "at map[m0]: point 0 of lane 'l0': point component x=nan not finite",
        ),
    ],
)
def test_load_errors_name_the_point(tmp_path, points, error, message):
    doc = area_to_dict(area())
    doc["local_maps"][0]["lane_lines"][0]["points"] = points
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as info:
        load_link_area(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_reads_numeral_strings_as_float_does(tmp_path):
    doc = area_to_dict(area())
    doc["local_maps"][0]["lane_lines"][0]["points"] = [["0.5", "1", 2], [True, 0, 10**30]]
    path = tmp_path / "numerals.json"
    path.write_text(json.dumps(doc))
    loaded = load_link_area(path).local_maps[0].lane_lines[0].points
    assert loaded.tolist() == [[0.5, 1.0, 2.0], [1.0, 0.0, 1e30]]


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("factor_scores", {"blur_day": 3.7}, "blur_day score must be an integer, got 3.7"),
        ("factor_scores", {"rain": True}, "rain score must be an integer, got True"),
        ("lane_visibility", True, "lane_visibility score must be an integer, got True"),
        ("lane_visibility", 8.5, "lane_visibility score must be an integer, got 8.5"),
        ("factor_scores", {"fog": float("inf")}, "fog score must be an integer, got inf"),
    ],
    ids=[
        "fractional-factor", "bool-factor", "bool-visibility", "fractional-visibility", "infinite"
    ],
)
def test_load_rejects_image_scores_that_are_not_integers(tmp_path, key, value, message):
    doc = area_to_dict(area())
    doc["local_maps"][0]["images"][0][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MapValidationError) as info:
        load_link_area(path)
    assert str(info.value) == f"{path}: at map[m0]: image 'm0_img': {message}"


def test_load_reads_integral_float_scores_as_integers(tmp_path):
    doc = area_to_dict(area())
    doc["local_maps"][0]["images"][0].update(factor_scores={"blur_day": 3.0}, lane_visibility=8.0)
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(doc))
    img = load_link_area(path).local_maps[0].images[0]
    assert img.factor_scores == {FactorKind.BLUR_DAY: 3} and img.lane_visibility == 8
    assert type(img.lane_visibility) is int


def test_load_rejects_one_point_lane(tmp_path):
    doc = area_to_dict(area())
    doc["local_maps"][0]["lane_lines"][0]["points"] = [[0.0, 0.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MapValidationError):
        load_link_area(path)


def test_load_rejects_map_without_images(tmp_path):
    doc = area_to_dict(area())
    doc["local_maps"][0]["images"] = []
    path = tmp_path / "noimg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MapValidationError):
        load_link_area(path)


def test_parse_errors_carry_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MapParseError, match="line 1"):
        load_link_area(path)
    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"link_id": "x"}))
    with pytest.raises(MapParseError, match="local_maps"):
        load_link_area(path2)
    with pytest.raises(MapParseError):
        load_link_area(tmp_path / "nope.json")


def test_local_map_document_roundtrip(tmp_path):
    fused = LocalMap("fused", "link0", lane_lines=[lane()], images=[])
    path = tmp_path / "fused.json"
    save_local_map(fused, path)
    loaded = load_local_map(path)
    assert loaded.map_id == "fused"
    assert loaded.lane_lines[0].points_array().tolist() == lane().points_array().tolist()


def test_scores_csv_layout(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv([image("a", 7.6), image("b", None)], path)
    rows = list(csv.reader(path.open()))
    assert rows[0][0] == "image_id"
    assert rows[0][1] == "blur_day"
    assert rows[0][-3:] == ["lane_visibility", "lane_confidence", "confidence"]
    assert rows[1][0] == "a"
    assert rows[1][-1] == "7.600000"
    assert rows[2][-1] == ""  # unscored image leaves the cell empty
