"""One number rule for every JSON input.

Each reader of a JSON document (area files, the synth config, modification
scripts, scorer responses) passes its numbers through ``scoring.exact_int`` or
``scoring.finite_number``. A bool, a numeral string, NaN or an infinity is
rejected with the reader's own error class, and the message names the field.
"""

import json
import math

import pytest

from lanefuse.backends import (
    FACTOR_PROMPTS,
    LANE_CLARITY_PROMPT_ID,
    ReplayScorer,
    ScorerRequest,
)
from lanefuse.cli import main
from lanefuse.confidence import CLEAR_DAY_CONTEXT
from lanefuse.errors import ConfigError, LanefuseError, MapValidationError, ProtocolError
from lanefuse.evaluation import load_synth_config
from lanefuse.mapmodel import load_link_area
from lanefuse.pipeline import load_modifications

from replaylog import write_replay_log

# Python's JSON encoder writes NaN and Infinity, and its decoder reads them.
BAD_VALUES = {"bool": True, "numeral-string": "3", "nan": math.nan, "infinity": math.inf}


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
    image = {"factor_scores": {field: value}} if field == "blur_day" else {field: value}
    load_link_area(_write(tmp_path, "area.json", _area_doc(image)))


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
    request = ScorerRequest(image="a.jpg", prompt_id="Q2", mode="direct")
    body = {"mode": "direct", "score": 3, field: value}
    if field == "l_clear":
        request = ScorerRequest(image="a.jpg", prompt_id=LANE_CLARITY_PROMPT_ID, mode="clarity")
        body = {"mode": "clarity", "l_clear": value}
    elif field == "logit":
        request = ScorerRequest(image="a.jpg", prompt_id="Q2", mode="logits")
        body = {"mode": "logits", "logits": [value] + [0.0] * 10}
    log = tmp_path / "log.jsonl"
    write_replay_log(log, [(request, body)])
    ReplayScorer(log).score(request)


# (reader, field, error class); the message must name the field.
FIELDS = [
    *[(read_area, field, MapValidationError)
      for field in ("timestamp", "blur_day", "lane_visibility", "lane_confidence", "confidence")],
    *[(read_synth, field, ConfigError)
      for field in ("seed", "link_areas", "maps_per_area", "lanes_per_area", "images_per_map",
                    "lane_spacing", "lane_length", "point_spacing", "sigma", "rain")],
    *[(read_script, field, LanefuseError) for field in ("dx", "dy", "offset")],
    *[(read_response, field, ProtocolError)
      for field in ("score", "l_clear", "logit", "latency_ms")],
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


def test_score_replay_nan_score_exits_3_without_a_traceback(tmp_path, capsys):
    area = _write(tmp_path, "area.json", _area_doc({}))
    factors = sorted(CLEAR_DAY_CONTEXT.active_factors, key=lambda f: f.value)
    entries = [
        (ScorerRequest(image="m0_img", prompt_id=FACTOR_PROMPTS[f], mode="direct"),
         {"mode": "direct", "score": math.nan if f is factors[0] else 1})
        for f in factors
    ]
    entries.append((ScorerRequest(image="m0_img", prompt_id=LANE_CLARITY_PROMPT_ID, mode="clarity"),
                    {"mode": "clarity", "l_clear": 0.0}))
    log = tmp_path / "log.jsonl"
    write_replay_log(log, entries)
    out = tmp_path / "out"
    args = ["score", area, "--backend", "replay", "--replay-log", log, "--context", "clear-day",
            "--output-dir", out]
    assert main([str(a) for a in args]) == 3
    assert "'score' must be an integer, got nan" in capsys.readouterr().err
    assert not out.exists()
