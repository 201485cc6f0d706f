"""One number rule for every JSON input and every numeric setting.

Each reader of a JSON document (area files, the synth config, modification
scripts, scorer responses) passes its numbers through ``scoring.exact_int`` or
``scoring.finite_number``; the area reader checks lane coordinates a lane at a
time by the same rule. A bool, a numeral string, NaN or an infinity is
rejected with the reader's own error class, and the message names the field.
Each parameter object and setting check reads its numbers through
``scoring.bounded_number``, which adds the setting's lower bound.
"""

import argparse
import json
import math

import pytest

from lanefuse.backends import (
    FACTOR_PROMPTS,
    LANE_CLARITY_PROMPT_ID,
    RemoteScorer,
    ReplayScorer,
    Scenario,
    ScorerRequest,
    SyntheticScorer,
)
from lanefuse.cli import cmd_evaluate, main
from lanefuse.clustering import DbscanParams
from lanefuse.confidence import CLEAR_DAY_CONTEXT, DEFAULT_WEIGHTS, WeightProfile
from lanefuse.config import PipelineConfig, load_pipeline_config
from lanefuse.errors import (
    ConfigError,
    InvalidInputError,
    LanefuseError,
    MapParseError,
    MapValidationError,
    ProtocolError,
)
from lanefuse.evaluation import SynthConfig, load_synth_config, run_experiment
from lanefuse.fusion import select_band
from lanefuse.mapmodel import load_link_area
from lanefuse.pipeline import load_modifications
from lanefuse.registration import IcpParams
from lanefuse.scoring import FactorKind

from replaylog import write_replay_log

# Python's JSON encoder writes NaN and Infinity, and its decoder reads them.
BAD_VALUES = {"bool": True, "numeral-string": "3", "nan": math.nan, "infinity": math.inf}
# The y of point 1 of lane l0, as the area reader names it.
COORDINATE = "point 1 of lane 'l0': point component y"


def _area_doc(image: dict) -> dict:
    return {
        "link_id": "a",
        "ground_truth": None,
        "local_maps": [
            {
                "map_id": "m0",
                "link_area_id": "a",
                "lane_lines": [{"lane_id": "l0", "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}],
                "images": [{"image_id": "m0_img", "timestamp": 0.0, **image}],
            }
        ],
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_area(tmp_path, field, value):
    if field == COORDINATE:
        doc = _area_doc({})
        doc["local_maps"][0]["lane_lines"][0]["points"][1][1] = value
    else:
        image = {"factor_scores": {field: value}} if field == "blur_day" else {field: value}
        doc = _area_doc(image)
    load_link_area(_write(tmp_path, "area.json", doc))


def read_synth(tmp_path, field, value):
    if field == "sigma":
        doc = {"scenarios": [{"sigma": value}]}
    elif field == "rain":
        doc = {"scenarios": [{"factors": {"rain": [value, 5]}}]}
    else:
        doc = {field: value}
    load_synth_config(_write(tmp_path, "synth.json", doc))


def read_script(tmp_path, field, value):
    if field == "offset":
        op = {"op": "add", "lane_a": "l0", "lane_b": "l1", "offset": value}
    else:
        op = {"op": "shift", "lane_id": "l0", field: value}
    load_modifications(_write(tmp_path, "script.json", [op]))


def read_response(tmp_path, field, value):
    request = ScorerRequest(image="a.jpg", prompt_id="Q2")
    body = {"mode": "direct", "score": 3, field: value}
    if field == "l_clear":
        request = ScorerRequest(image="a.jpg", prompt_id=LANE_CLARITY_PROMPT_ID)
        body = {"mode": "clarity", "l_clear": value}
    log = tmp_path / "log.jsonl"
    write_replay_log(log, [(request, body)])
    ReplayScorer(log).score(request)


# (reader, field, error class); the message must name the field.
FIELDS = [
    *[(read_area, field, MapValidationError)
      for field in ("timestamp", "blur_day", "lane_visibility", "lane_confidence", "confidence",
                    COORDINATE)],
    *[(read_synth, field, ConfigError)
      for field in ("seed", "link_areas", "maps_per_area", "lanes_per_area", "images_per_map",
                    "lane_spacing", "lane_length", "point_spacing", "sigma", "rain")],
    *[(read_script, field, LanefuseError) for field in ("dx", "dy", "offset")],
    *[(read_response, field, ProtocolError)
      for field in ("score", "l_clear", "latency_ms")],
]


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
@pytest.mark.parametrize(
    "reader,field,error", FIELDS, ids=[f"{r.__name__}-{f}" for r, f, _ in FIELDS]
)
def test_json_number_rule(tmp_path, reader, field, error, value):
    with pytest.raises(LanefuseError) as info:
        reader(tmp_path, field, value)
    assert type(info.value) is error
    assert field in str(info.value)


@pytest.mark.parametrize(
    "text", ["true", '"3"', "NaN", "Infinity", "null", "1e400", "1" + "0" * 400]
)
def test_lane_coordinate_faults_name_the_point_the_lane_and_the_component(tmp_path, text):
    # Written as JSON text: json.dumps writes neither 1e400 nor a bare NaN in a row.
    points = f"[[0.0, 0.0, 0.0], [1.0, {text}, 0.0]]"
    body = json.dumps(_area_doc({})).replace("[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]", points)
    path = tmp_path / "area.json"
    path.write_text(body)
    with pytest.raises(MapValidationError) as info:
        load_link_area(path)
    assert str(info.value).startswith(f"{path}: at map[m0]: {COORDINATE}")


def test_score_replay_nan_score_exits_3_without_a_traceback(tmp_path, capsys):
    area = _write(tmp_path, "area.json", _area_doc({}))
    factors = sorted(CLEAR_DAY_CONTEXT.active_factors, key=lambda f: f.value)
    entries = [
        (ScorerRequest(image="m0_img", prompt_id=FACTOR_PROMPTS[f]),
         {"mode": "direct", "score": math.nan if f is factors[0] else 1})
        for f in factors
    ]
    entries.append((ScorerRequest(image="m0_img", prompt_id=LANE_CLARITY_PROMPT_ID),
                    {"mode": "clarity", "l_clear": 0.0}))
    log = tmp_path / "log.jsonl"
    write_replay_log(log, entries)
    out = tmp_path / "out"
    args = ["score", area, "--backend", "replay", "--replay-log", log, "--context", "clear-day",
            "--output-dir", out]
    assert main([str(a) for a in args]) == 3
    assert "'score' must be an integer, got nan" in capsys.readouterr().err
    assert not out.exists()


# --- numeric settings -----------------------------------------------------------

RAIN = FactorKind.RAIN
WEIGHTS = DEFAULT_WEIGHTS.factor_weights
QUIET = Scenario(name="quiet", factor_ranges={})
URL = "http://127.0.0.1:9/score"


def evaluate_jobs(jobs):
    # The check comes before any area file is read: the one named here does
    # not exist, so a value that passes the check fails on reading it.
    args = argparse.Namespace(
        policies="band", jobs=jobs, area_files=["missing.json"], output_dir="unused"
    )
    with pytest.raises(MapParseError, match="missing.json"):
        cmd_evaluate(args, PipelineConfig())


# (where, field, build, lower bound, exclusive, error class). ``build(value)``
# makes the setting and returns the value it stored, or None where it stores
# none. An int bound makes an integer setting, and None is no bound.
SETTINGS = [
    ("IcpParams", "max_iterations", lambda v: IcpParams(max_iterations=v).max_iterations,
     1, False, InvalidInputError),
    ("IcpParams", "convergence_tol", lambda v: IcpParams(convergence_tol=v).convergence_tol,
     0.0, True, InvalidInputError),
    ("IcpParams", "max_correspondence_dist",
     lambda v: IcpParams(max_correspondence_dist=v).max_correspondence_dist,
     0.0, True, InvalidInputError),
    ("DbscanParams", "epsilon", lambda v: DbscanParams(epsilon=v).epsilon,
     0.0, True, InvalidInputError),
    ("DbscanParams", "min_samples", lambda v: DbscanParams(min_samples=v).min_samples,
     1, False, InvalidInputError),
    *[("SynthConfig", field, lambda v, field=field: getattr(SynthConfig(**{field: v}), field),
       low, low == 0.0, InvalidInputError)
      for field, low in (("seed", 0), ("link_areas", 1), ("maps_per_area", 1),
                         ("lanes_per_area", 1), ("images_per_map", 1), ("lane_spacing", 0.0),
                         ("lane_length", 0.0), ("point_spacing", 0.0))],
    ("Scenario", "noise_sigma", lambda v: Scenario("s", {}, noise_sigma=v).noise_sigma,
     0.0, False, InvalidInputError),
    ("SyntheticScorer", "seed", lambda v: SyntheticScorer(QUIET, seed=v).seed,
     None, False, InvalidInputError),
    *[("RemoteScorer", field,
       lambda v, field=field: getattr(RemoteScorer(URL, **{field: v}), field),
       low, exclusive, ConfigError)
      for field, low, exclusive in (("max_retries", 0, False), ("timeout", 0.0, True),
                                    ("max_in_flight", 1, False))],
    ("WeightProfile", "lane_weight", lambda v: WeightProfile(v, WEIGHTS).lane_weight,
     0.0, True, InvalidInputError),
    ("WeightProfile", "rain weight",
     lambda v: WeightProfile(1.0, {**WEIGHTS, RAIN: v}).factor_weights[RAIN],
     0.0, False, InvalidInputError),
    ("select_band", "k_cap", lambda v: select_band([("a", 9.0), ("b", 8.9)], k_cap=v) and None,
     1, False, InvalidInputError),
    ("load_pipeline_config", "--k-cap",
     lambda v: load_pipeline_config(None, {"k_cap": json.dumps(v)}).k_cap, 1, False, ConfigError),
    ("run_experiment", "jobs", lambda v: run_experiment([], ["band"], jobs=v) and None,
     1, False, InvalidInputError),
    ("cmd_evaluate", "--jobs", evaluate_jobs, 1, False, ConfigError),
]
SETTING_IDS = [f"{where}-{field}" for where, field, *_ in SETTINGS]


def bad_values(low, exclusive):
    """What every setting rejects, plus a fraction for an integer setting and
    the nearest value outside a bound."""
    values = {**BAD_VALUES, "neg-infinity": -math.inf}
    if low is None or isinstance(low, int):
        values["fraction"] = 2.5
    if isinstance(low, int):
        values["below"] = low - 1
    elif low is not None:
        values["below"] = low if exclusive else -1e-9
    return values


@pytest.mark.parametrize(
    "field,build,value,error",
    [
        pytest.param(field, build, value, error, id=f"{where}-{field}-{label}")
        for where, field, build, low, exclusive, error in SETTINGS
        for label, value in bad_values(low, exclusive).items()
    ],
)
def test_setting_number_rule(field, build, value, error):
    with pytest.raises(LanefuseError) as info:
        build(value)
    assert type(info.value) is error
    assert field in str(info.value)


@pytest.mark.parametrize("where,field,build,low,exclusive,error", SETTINGS, ids=SETTING_IDS)
def test_settings_store_plain_numbers(where, field, build, low, exclusive, error):
    if low is None or isinstance(low, int):
        stored = build(3.0)
        assert stored is None or (type(stored) is int and stored == 3)
    else:
        stored = build(3)
        assert type(stored) is float and stored == 3.0


def test_synthetic_scorer_takes_any_integer_seed():
    # The seed is hashed, not handed to numpy, so `score --seed -1` works.
    assert SyntheticScorer(QUIET, seed=-1).seed == -1
