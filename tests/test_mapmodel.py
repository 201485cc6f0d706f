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
    ConfigError,
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
    atomic_writer,
    average_confidence,
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
    # The number rule of the area reader: a bool or a non-number is no number.
    for value in (True, "1.5", None):
        with pytest.raises(InvalidInputError) as point:
            Point3(value, 0.0)
        assert str(point.value) == f"point component x must be a number, got {value!r}"
    for value, shown in ((float("inf"), "inf"), (float("-inf"), "-inf"), (10**400, "inf")):
        with pytest.raises(InvalidInputError) as point:
            Point3(value, 0.0)
        assert str(point.value) == f"point component x={shown} not finite"


@pytest.mark.parametrize("big, shown", [(10**400, "inf"), (-(10**400), "-inf")])
def test_an_int_beyond_the_float_range_is_not_finite(big, shown):
    message = f"point component y={shown} not finite"
    with pytest.raises(InvalidInputError) as point:
        Point3(0.0, big)
    with pytest.raises(InvalidInputError) as lane:
        LaneLine("l", [[0.0, 0.0, 0.0], (1.0, big, 0.0)])
    assert str(point.value) == message
    assert str(lane.value) == f"point 1 of lane 'l': {message}"


def test_lane_needs_two_distinct_points():
    with pytest.raises(MapValidationError):
        LaneLine("l", [Point3(0, 0, 0)])
    with pytest.raises(MapValidationError):
        LaneLine("l", [Point3(0, 0, 0), Point3(0, 0, 0)])


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[0.0, 1.0, 2.0], [1.0, float("inf"), float("nan")]],
         (InvalidInputError, "point 1 of lane 'l': point component y=inf not finite")),
        ([[0.0, 1.0, float("-inf")], [float("nan"), 1.0, 2.0]],
         (InvalidInputError, "point 0 of lane 'l': point component z=-inf not finite")),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [2.0, 0.0, 0.0]],
         (MapValidationError, "lane 'l' has two identical consecutive points")),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1e-12]], None),
        ([[0.0, 1.0, 2.0]], (MapValidationError, "lane 'l' needs >= 2 points, got 1")),
        ([], (MapValidationError, "lane 'l' needs >= 2 points, got 0")),
        ([[0.0, float("nan"), 2.0]],
         (InvalidInputError, "point 0 of lane 'l': point component y=nan not finite")),
    ],
)
def test_lane_checks_its_points_in_order(rows, expected):
    # Non-finite components first, in row-major order; then length; then repeats.
    def outcome(points):
        try:
            LaneLine("l", points)
        except (InvalidInputError, MapValidationError) as exc:
            return type(exc), str(exc)
        return None

    assert outcome(rows) == outcome(np.array(rows)) == expected


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


def test_lane_is_equal_only_to_a_lane():
    lane = LaneLine("l", [[0, 0, 0], [1, 0, 0]])
    assert lane.__eq__([[0, 0, 0], [1, 0, 0]]) is NotImplemented
    assert lane != [[0, 0, 0], [1, 0, 0]] and lane != "l"


def test_lane_rejects_points_not_in_rows_of_three():
    with pytest.raises(InvalidInputError, match="shape"):
        LaneLine("l", [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize(
    "points,message",
    [
        ([["1.5", 0, 0], [2, 0, 0]],
         "point 0 of lane 'l': point component x must be a number, got '1.5'"),
        ([[True, 0, 0], [1, 0, 0]],
         "point 0 of lane 'l': point component x must be a number, got True"),
        ([[None, 0, 0], [1, 0, 0]],
         "point 0 of lane 'l': point component x must be a number, got None"),
        ([[0, 0], [1, 0, 0]], "point 0 of lane 'l' must be [x, y, z], got [0, 0]"),
        ([[0, 0, 0], [1, 0, "x"]],
         "point 1 of lane 'l': point component z must be a number, got 'x'"),
        ([(0.0, 0.0, 0.0), "abc"], "point 1 of lane 'l' must be [x, y, z], got 'abc'"),
        ([np.zeros(3), np.array(1.0)], "point 1 of lane 'l' must be [x, y, z], got array(1.)"),
        ([Point3(0.0, 0.0), [1.0, 0.5, False]],
         "point 1 of lane 'l': point component z must be a number, got False"),
        (np.array([["0", "0", "0"], ["1", "0", "0"]]),
         "point 0 of lane 'l': point component x must be a number, got np.str_('0')"),
        (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) > 0.5,
         "point 0 of lane 'l': point component x must be a number, got np.False_"),
        # A non-number is reported before a non-finite component in an earlier row.
        ([[float("nan"), 0.0, 0.0], [1.0, "0", 0.0]],
         "point 1 of lane 'l': point component y must be a number, got '0'"),
        (None, "lane 'l' points must be rows of [x, y, z]"),
    ],
)
def test_lane_takes_only_rows_of_three_real_numbers(points, message):
    with pytest.raises(InvalidInputError) as info:
        LaneLine("l", points)
    assert str(info.value) == message


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
            MapValidationError,
            "at map[m0]: point 1 of lane 'l0': point component y must be a number, got 'a'",
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
            MapValidationError,
            "at map[m0]: point 0 of lane 'l0': point component y must be a number, got None",
        ),
        # A row that is not three numbers is reported before a non-finite one.
        (
            [[0.0, 0.0, float("inf")], [1.0, "a", 0.0]],
            MapValidationError,
            "at map[m0]: point 1 of lane 'l0': point component y must be a number, got 'a'",
        ),
        (
            [["a", NAN, 0.0], [1.0, 0.0, 0.0]],
            MapValidationError,
            "at map[m0]: point 0 of lane 'l0': point component x must be a number, got 'a'",
        ),
        (
            [[NAN, 0.0, 0.0], [1.0, 0.0]],
            MapParseError,
            "at map[m0]: point 1 of lane 'l0' must be [x, y, z]",
        ),
        # An integer beyond the float range is an infinity, as finite_number reads it.
        (
            [[0.0, 0.0, 0.0], [10**400, 0.0, 0.0]],
            MapValidationError,
            "at map[m0]: point 1 of lane 'l0': point component x=inf not finite",
        ),
        (
            [[0.0, -(10**400), 0.0], [1.0, 0.0, 0.0]],
            MapValidationError,
            "at map[m0]: point 0 of lane 'l0': point component y=-inf not finite",
        ),
        ({"x": [0.0, 0.0, 0.0]}, MapParseError, "at map[m0]: 'points' must be a list"),
        # The reader checks every row's shape before the lane checks a value.
        (
            [["a", 0.0, 0.0], [1.0, 0.0]],
            MapParseError,
            "at map[m0]: point 1 of lane 'l0' must be [x, y, z]",
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


def test_load_rejects_numeral_strings_and_bools_as_coordinates(tmp_path):
    # JSON integers of any size within the float range load as float does.
    doc = area_to_dict(area())
    lane = doc["local_maps"][0]["lane_lines"][0]
    lane["points"] = [[0.5, 1, 2], [1, 0, 10**30]]
    path = tmp_path / "numerals.json"
    path.write_text(json.dumps(doc))
    assert load_link_area(path).local_maps[0].lane_lines[0].points.tolist() == [
        [0.5, 1.0, 2.0], [1.0, 0.0, 1e30]
    ]
    for row, shown in (["0.5", "1", 2], "'0.5'"), ([True, 0, 10**30], "True"):
        lane["points"] = [[0, 0, 0], row]
        path.write_text(json.dumps(doc))
        with pytest.raises(MapValidationError) as info:
            load_link_area(path)
        assert str(info.value) == (
            f"{path}: at map[m0]: point 1 of lane 'l0': point component x must be a number, "
            f"got {shown}"
        )


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


def test_load_rejects_factor_scores_that_are_not_an_object(tmp_path):
    # Empty and false values too: only a missing key means no scores.
    for value in ([1], "x", 5, [], 0, False, "", None):
        doc = area_to_dict(area())
        doc["local_maps"][0]["images"][0]["factor_scores"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MapParseError, match="'factor_scores' must be an object"):
            load_link_area(path)
    del doc["local_maps"][0]["images"][0]["factor_scores"]
    path.write_text(json.dumps(doc))
    assert load_link_area(path).local_maps[0].images[0].factor_scores == {}


def _edit_area(tmp_path, edit):
    """An area file saved from ``area()`` after ``edit(doc)``."""
    doc = area_to_dict(area())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "edit, where, field",
    [
        (lambda d: d.update(local_maps=5), "<root>", "local_maps"),
        (lambda d: d.update(ground_truth=5), "ground_truth", "ground_truth"),
        (lambda d: d["local_maps"][0].update(lane_lines=5), "map[m0]", "lane_lines"),
        (lambda d: d["local_maps"][0].update(images=5), "map[m0]", "images"),
    ],
    ids=["local_maps", "ground_truth", "lane_lines", "images"],
)
def test_load_rejects_a_list_field_that_is_not_a_list(tmp_path, edit, where, field):
    path = _edit_area(tmp_path, edit)
    with pytest.raises(MapValidationError) as info:
        load_link_area(path)
    assert str(info.value) == f"{path}: at {where}: {field!r} must be a list, got 5"


@pytest.mark.parametrize(
    "edit, where, field, value",
    [
        (lambda d: d.update(link_id=7), "<root>", "link_id", 7),
        (lambda d: d["local_maps"][0].update(map_id=None), "<root>", "map_id", None),
        (lambda d: d["local_maps"][0].update(link_area_id=0), "map[m0]", "link_area_id", 0),
        (lambda d: d["local_maps"][0]["lane_lines"][0].update(lane_id=7), "map[m0]", "lane_id", 7),
        (lambda d: d["ground_truth"][0].update(lane_id=1.5), "ground_truth", "lane_id", 1.5),
        (lambda d: d["local_maps"][0]["images"][0].update(image_id=[1]), "map[m0]", "image_id",
         [1]),
    ],
    ids=["link_id", "map_id", "link_area_id", "lane_id", "truth-lane_id", "image_id"],
)
def test_load_rejects_an_id_that_is_not_a_string(tmp_path, edit, where, field, value):
    path = _edit_area(tmp_path, edit)
    with pytest.raises(MapValidationError) as info:
        load_link_area(path)
    assert str(info.value) == f"{path}: at {where}: {field!r} must be a string, got {value!r}"


def _rename(pick, key, new_key):
    """An edit that renames ``key`` of the object ``pick(doc)`` to ``new_key``."""
    return lambda d: pick(d).update({new_key: pick(d).pop(key)})


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (
            lambda d: d["local_maps"][0]["images"][0]["factor_scores"].update(glare=2),
            MapParseError,
            "at map[m0]: image 'm0_img': unknown factor 'glare'",
        ),
        (
            lambda d: d["local_maps"][0]["images"][0]["factor_scores"].update(lane_visibility=2),
            MapParseError,
            "at map[m0]: image 'm0_img': unknown factor 'lane_visibility'",
        ),
        (
            lambda d: d["local_maps"][0]["lane_lines"][1].update(lane_id="l0"),
            MapValidationError,
            "at map[m0]: map 'm0' has duplicate lane_ids",
        ),
        (
            lambda d: d["local_maps"][1].update(map_id="m0"),
            MapValidationError,
            "at <root>: link area 'link0' has duplicate map_ids",
        ),
        # Every key a writer does not emit, at each level of the document.
        (
            _rename(lambda d: d, "ground_truth", "groundtruth"),
            MapParseError,
            "at <root>: unknown key 'groundtruth'",
        ),
        (
            _rename(lambda d: d["local_maps"][1], "link_area_id", "link_area"),
            MapParseError,
            "at map[m1]: unknown key 'link_area'",
        ),
        (
            lambda d: d["local_maps"][0]["lane_lines"][1].update(width=0.15),
            MapParseError,
            "at map[m0]: lane 'l1': unknown key 'width'",
        ),
        (
            lambda d: d["ground_truth"][0].update(kind="solid"),
            MapParseError,
            "at ground_truth: lane 'g0': unknown key 'kind'",
        ),
        (
            _rename(lambda d: d["local_maps"][0]["images"][0], "timestamp", "timestmp"),
            MapParseError,
            "at map[m0]: image 'm0_img': unknown key 'timestmp'",
        ),
        # A map's link_area_id is the id of the area that holds it.
        (
            lambda d: d["local_maps"][1].pop("link_area_id"),
            MapValidationError,
            "at map[m1]: 'link_area_id' must be the area's link_id 'link0', it is missing",
        ),
        (
            lambda d: d["local_maps"][1].update(link_area_id="link9"),
            MapValidationError,
            "at map[m1]: 'link_area_id' must be the area's link_id 'link0', got 'link9'",
        ),
    ],
    ids=[
        "unknown-factor", "visibility-as-factor", "duplicate-lane", "duplicate-map",
        "area-key", "map-key", "lane-key", "truth-lane-key", "image-key",
        "link-area-missing", "link-area-different",
    ],
)
def test_load_rejects_what_no_writer_emits(tmp_path, edit, error, message):
    path = _edit_area(tmp_path, edit)
    with pytest.raises(error) as info:
        load_link_area(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_local_map_rejects_an_unknown_key(tmp_path):
    path = tmp_path / "map.json"
    save_local_map(LocalMap("fused", "link0", lane_lines=[lane()], images=[]), path)
    doc = json.loads(path.read_text())
    doc["source"] = "fusion"
    path.write_text(json.dumps(doc))
    with pytest.raises(MapParseError) as info:
        load_local_map(path)
    assert str(info.value) == f"{path}: at map[fused]: unknown key 'source'"


def test_load_local_map_has_no_area_to_match(tmp_path):
    # A standalone (fused) map belongs to no area file, so its link_area_id
    # may be missing, and then reads as "".
    path = tmp_path / "map.json"
    save_local_map(LocalMap("fused", "link0", lane_lines=[lane()], images=[]), path)
    doc = json.loads(path.read_text())
    del doc["link_area_id"]
    path.write_text(json.dumps(doc))
    assert load_local_map(path).link_area_id == ""


def test_load_local_map_rejects_a_non_string_lane_id(tmp_path):
    path = tmp_path / "map.json"
    save_local_map(area().local_maps[0], path)
    doc = json.loads(path.read_text())
    doc["lane_lines"][1]["lane_id"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(MapValidationError, match="'lane_id' must be a string, got 1"):
        load_local_map(path)


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


def test_atomic_writer_replaces_the_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_writer(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_writer_failed_block_leaves_target_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_writer(path) as fh:
            fh.write("partial")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_writer_failed_rename_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    with pytest.raises(ConfigError) as info:
        with atomic_writer(path) as fh:
            fh.write("text")
    assert str(info.value) == f"{path}: cannot write: Is a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    # A temp file that cannot be opened: the block never runs, and nothing is removed.
    target = tmp_path / "kept.txt"
    target.write_bytes(b"old\n")
    (tmp_path / "kept.txt.tmp").mkdir()
    with pytest.raises(ConfigError, match="kept.txt: cannot write: Is a directory"):
        with atomic_writer(target):
            raise AssertionError("the block ran")
    assert target.read_bytes() == b"old\n" and (tmp_path / "kept.txt.tmp").is_dir()


def test_scores_csv_layout(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores_csv([image("a", 7.6), image("b", None)], path)
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    assert rows[0][0] == "image_id"
    assert rows[0][1] == "blur_day"
    assert rows[0][-3:] == ["lane_visibility", "lane_confidence", "confidence"]
    assert rows[1][0] == "a"
    assert rows[1][-1] == "7.600000"
    assert rows[2][-1] == ""  # unscored image leaves the cell empty
