"""End-to-end command behaviour: outputs, exit codes, determinism."""

import csv
import json
import math
import re
import tempfile
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lanefuse.backends import (
    FACTOR_PROMPTS,
    LANE_CLARITY_PROMPT_ID,
    RemoteScorer,
    ScorerRequest,
    synthetic_score,
)
from lanefuse.cli import COMMANDS, main
from lanefuse.confidence import gcs
from lanefuse.evaluation import (
    SCENARIOS_BY_NAME,
    ame,
    standard_config,
    synth_config_to_dict,
    synth_generate,
)
from lanefuse.fusion import rank_maps, select_band
from lanefuse.mapmodel import area_to_dict, load_link_area, load_local_map
from lanefuse.scoring import DEGRADATION_FACTORS, FactorKind

from replaylog import write_replay_log

F = FactorKind
ALL_WEIGHTS = "".join(f"{f.key} = 0.2\n" for f in DEGRADATION_FACTORS)


def run(args):
    return main([str(a) for a in args])


def small_synth_config(tmp_path, seed=0, link_areas=1, maps_per_area=3):
    import dataclasses

    cfg = dataclasses.replace(
        standard_config(seed),
        link_areas=link_areas,
        maps_per_area=maps_per_area,
        images_per_map=2,
        lane_length=20.0,
    )
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(synth_config_to_dict(cfg)))
    return path


def simulate(tmp_path, **kwargs):
    cfg_path = small_synth_config(tmp_path, **kwargs)
    out = tmp_path / "areas"
    assert run(["simulate", cfg_path, "--output-dir", out]) == 0
    return sorted(out.glob("area_*.json"))


# --- the worked three-image fixture ------------------------------------------
#
# Factor scores of the score-explanation table (blur/illumination/degradation/
# occlusion + visibility): confidences must come out 1.8, 6 and 9.6.
TABLE_ROWS = {
    "img_low": {"blur_day": 1, "illumination": 5, "degradation": 0, "occlusion": 0, "vis": 3},
    "img_mid": {"blur_day": 0, "illumination": 2, "degradation": 0, "occlusion": 1, "vis": 6},
    "img_high": {"blur_day": 0, "illumination": 1, "degradation": 0, "occlusion": 1, "vis": 10},
}


def clarity_logit(s_l):
    if s_l <= 0:
        return -40.0
    if s_l >= 10:
        return 40.0
    return math.log((s_l / 10.0) / (1.0 - s_l / 10.0))


def table_fixture(tmp_path):
    """Link-area file with the three table images plus a matching replay log."""
    area = {
        "link_id": "table",
        "ground_truth": None,
        "local_maps": [
            {
                "map_id": "m0",
                "link_area_id": "table",
                "lane_lines": [
                    {"lane_id": "l0", "points": [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]}
                ],
                "images": [
                    {"image_id": name, "timestamp": float(i)}
                    for i, name in enumerate(TABLE_ROWS)
                ],
            }
        ],
    }
    area_path = tmp_path / "table.json"
    area_path.write_text(json.dumps(area))
    entries = []
    for name, row in TABLE_ROWS.items():
        for factor in (F.BLUR_DAY, F.ILLUMINATION, F.DEGRADATION, F.OCCLUSION):
            req = ScorerRequest(image=name, prompt_id=FACTOR_PROMPTS[factor])
            entries.append((req, {"mode": "direct", "score": row[factor.key]}))
        entries.append(
            (
                ScorerRequest(image=name, prompt_id=LANE_CLARITY_PROMPT_ID),
                {"mode": "clarity", "l_clear": clarity_logit(row["vis"])},
            )
        )
    log_path = tmp_path / "table_log.jsonl"
    write_replay_log(log_path, entries)
    config = tmp_path / "pipeline.ini"
    config.write_text(
        """
[pipeline]
backend = replay
context = clear-day

[backend]
replay_log = {log}
""".format(log=log_path)
    )
    return area_path, config


def test_score_reproduces_table_confidences(tmp_path):
    area_path, config = table_fixture(tmp_path)
    out = tmp_path / "out"
    assert run(["score", area_path, "--config", config, "--output-dir", out]) == 0
    with open(out / "table_scores.csv") as fh:
        rows = {r["image_id"]: r for r in csv.DictReader(fh)}
    assert float(rows["img_low"]["confidence"]) == pytest.approx(1.8, abs=1e-9)
    assert float(rows["img_mid"]["confidence"]) == pytest.approx(6.0, abs=1e-9)
    assert float(rows["img_high"]["confidence"]) == pytest.approx(9.6, abs=1e-9)
    scored = load_link_area(out / "table_scored.json")
    confs = [img.confidence for img in scored.local_maps[0].images]
    assert confs == pytest.approx([1.8, 6.0, 9.6], abs=1e-9)


def test_score_replays_a_log_whose_records_carry_the_request(tmp_path):
    # Logs once held a "request" object beside the key; they replay the same.
    area_path, config = table_fixture(tmp_path)
    new, old = tmp_path / "key_and_body", tmp_path / "with_request"
    assert run(["score", area_path, "--config", config, "--output-dir", new]) == 0
    log = tmp_path / "table_log.jsonl"
    lines = []
    for record in map(json.loads, log.read_text().splitlines()):
        image, prompt_id, mode = record["key"].split("|")
        request = {"image": image, "prompt_id": prompt_id, "mode": mode}
        lines.append(json.dumps({"key": record["key"], "request": request, "body": record["body"]}))
    log.write_text("".join(f"{line}\n" for line in lines))
    assert run(["score", area_path, "--config", config, "--output-dir", old]) == 0
    assert (old / "table_scores.csv").read_bytes() == (new / "table_scores.csv").read_bytes()


def test_score_gcs_method_flags_formula_value(tmp_path):
    area_path, config = table_fixture(tmp_path)
    out = tmp_path / "out_gcs"
    assert run(
        ["score", area_path, "--config", config, "--output-dir", out, "--method", "gcs"]
    ) == 0
    with open(out / "table_scores.csv") as fh:
        rows = {r["image_id"]: r for r in csv.DictReader(fh)}
    assert float(rows["img_high"]["confidence"]) == pytest.approx(9.6, abs=1e-9)


def test_score_empty_images_exits_2(tmp_path):
    area = {
        "link_id": "x",
        "ground_truth": None,
        "local_maps": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(area))
    assert run(["score", path, "--output-dir", tmp_path]) == 2


def test_score_synthetic_twice_identical(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run(
            ["score", areas[0], "--backend", "synthetic", "--scenario", "clean",
             "--seed", 3, "--output-dir", out]
        ) == 0
    name = areas[0].stem
    assert (out1 / f"{name}_scores.csv").read_bytes() == (out2 / f"{name}_scores.csv").read_bytes()
    assert (out1 / f"{name}_scored.json").read_bytes() == (out2 / f"{name}_scored.json").read_bytes()


@pytest.mark.parametrize(
    "field, value", [("images", 5), ("lane_lines", None), ("image_id", [1]), ("lane_id", 7)]
)
def test_select_malformed_area_field_exits_2_naming_it(tmp_path, capsys, field, value):
    areas = simulate(tmp_path, maps_per_area=2)
    doc = json.loads(areas[0].read_text())
    first = doc["local_maps"][0]
    target = {"image_id": first["images"][0], "lane_id": first["lane_lines"][0]}.get(field, first)
    target[field] = value
    areas[0].write_text(json.dumps(doc))
    assert run(["select", areas[0], "--output-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"{field!r} must be a " in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["select", "update"])
@pytest.mark.parametrize(
    "misspell, message",
    [
        (lambda doc: doc.update(groundtruth=doc.pop("ground_truth")), "unknown key 'groundtruth'"),
        (
            lambda doc: doc["local_maps"][0]["images"][0].update(
                timestmp=doc["local_maps"][0]["images"][0].pop("timestamp")
            ),
            "unknown key 'timestmp'",
        ),
        (
            lambda doc: doc["local_maps"][0]["lane_lines"][0]["points"][0].__setitem__(0, 10**400),
            "point 0 of lane 'lane_00': point component x=inf not finite",
        ),
    ],
    ids=["ground_truth", "timestamp", "x_1e400"],
)
def test_area_that_no_writer_emits_exits_2_naming_the_fault(
    tmp_path, capsys, command, misspell, message
):
    areas = simulate(tmp_path, maps_per_area=2)
    doc = json.loads(areas[0].read_text())
    misspell(doc)
    areas[0].write_text(json.dumps(doc))
    (tmp_path / "script.json").write_text("[]")
    args = [areas[0], tmp_path / "script.json"] if command == "update" else [areas[0]]
    assert run([command, *args, "--output-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_score_missing_file_exits_2(tmp_path):
    assert run(["score", tmp_path / "ghost.json", "--output-dir", tmp_path]) == 2


def test_score_bad_backend_config_exits_1(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    assert run(["score", areas[0], "--backend", "replay", "--output-dir", tmp_path]) == 1


def test_score_unreachable_remote_exits_3(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    assert (
        run(
            ["score", areas[0], "--backend", "remote", "--endpoint",
             "http://127.0.0.1:9/score", "--output-dir", tmp_path]
        )
        == 3
    )


def _synthetic_answer(scenario_name):
    """Stub behaviour: the synthetic backend's answer for seed 0, after a
    delay that varies per request so responses arrive out of order."""
    scenario = SCENARIOS_BY_NAME[scenario_name]

    def answer(body):
        key = f"{body['image']}|{body['prompt_id']}".encode()
        time.sleep((zlib.crc32(key) % 5) * 0.002)
        resp = synthetic_score(scenario, 0, body["image"], body["prompt_id"], body["mode"])
        if resp.mode == "clarity":
            return 200, {"mode": "clarity", "l_clear": resp.l_clear}
        return 200, {"mode": "direct", "score": resp.score}

    return answer


def test_score_remote_outputs_and_log_independent_of_max_in_flight(tmp_path, stub_server):
    url, handler = stub_server
    answer = _synthetic_answer("murky")
    for prompt_id in [*FACTOR_PROMPTS.values(), LANE_CLARITY_PROMPT_ID]:
        handler.behaviors[prompt_id] = answer
    areas = simulate(tmp_path, maps_per_area=3)
    name = areas[0].stem
    outputs = {}
    for in_flight in (1, 2, 12):
        out = tmp_path / f"remote{in_flight}"
        config = tmp_path / f"remote{in_flight}.ini"
        config.write_text(
            f"[backend]\nendpoint = {url}\nmax_in_flight = {in_flight}\n"
            f"record_log = {out / 'replay.jsonl'}\n"
        )
        out.mkdir()
        assert run(["score", areas[0], "--config", config, "--backend", "remote",
                    "--output-dir", out]) == 0
        outputs[in_flight] = [
            (out / f).read_bytes()
            for f in (f"{name}_scores.csv", f"{name}_scored.json", "replay.jsonl")
        ]
    assert outputs[1] == outputs[2] == outputs[12]
    ref = tmp_path / "synthetic"
    assert run(["score", areas[0], "--backend", "synthetic", "--scenario", "murky",
                "--output-dir", ref]) == 0
    assert outputs[12][0] == (ref / f"{name}_scores.csv").read_bytes()


@pytest.mark.parametrize(
    "content, code",
    [
        (None, 1),  # a directory
        (b'\xff\xfe{"key": "k", "body": "{}"}\n', 1),
        (b"[1, 2]\n", 3),
        (b'{"key": "k", "body": 7}\n', 3),
    ],
    ids=["directory", "non-utf8", "array-record", "number-body"],
)
def test_score_unusable_replay_log_exits_with_its_code(tmp_path, capsys, content, code):
    areas = simulate(tmp_path, maps_per_area=2)
    log = tmp_path / "replay.jsonl"
    if content is None:
        log.mkdir()
    else:
        log.write_bytes(content)
    out = tmp_path / "out"
    assert run(["score", areas[0], "--backend", "replay", "--replay-log", log,
                "--output-dir", out]) == code
    err = capsys.readouterr().err
    assert str(log) in err
    if code == 3:
        assert f"{log}:1: bad replay record" in err
    assert not out.exists()


@pytest.mark.parametrize("latency", ["fast", None])
def test_score_replay_non_numeric_latency_exits_3(tmp_path, capsys, latency):
    area_path, config = table_fixture(tmp_path)
    log = tmp_path / "table_log.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for record in records:
        record["body"] = json.dumps({**json.loads(record["body"]), "latency_ms": latency})
    log.write_text("".join(json.dumps(record) + "\n" for record in records))
    out = tmp_path / "out"
    assert run(["score", area_path, "--config", config, "--output-dir", out]) == 3
    assert "'latency_ms' must be a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_score_unwritable_record_log_exits_1_before_any_request(
    tmp_path, stub_server, capsys, where
):
    url, handler = stub_server
    areas = simulate(tmp_path, maps_per_area=2)
    log = tmp_path / "log.jsonl"
    if where == "directory":
        log.mkdir()
    else:
        log = tmp_path / "missing" / "log.jsonl"
    config = tmp_path / "remote.ini"
    config.write_text(f"[backend]\nendpoint = {url}\nrecord_log = {log}\n")
    out = tmp_path / "out"
    assert run(["score", areas[0], "--config", config, "--backend", "remote",
                "--output-dir", out]) == 1
    assert "record log" in capsys.readouterr().err
    assert handler.calls == []
    assert not out.exists()


def _remote_config(tmp_path, url, handler, log):
    """An INI file for a remote ``score`` that records to ``log``, with the
    stub answering every prompt as the synthetic backend would."""
    answer = _synthetic_answer("murky")
    for prompt_id in [*FACTOR_PROMPTS.values(), LANE_CLARITY_PROMPT_ID]:
        handler.behaviors[prompt_id] = answer
    config = tmp_path / "remote.ini"
    config.write_text(f"[backend]\nendpoint = {url}\nmax_retries = 0\nrecord_log = {log}\n")
    return config


def test_score_remote_records_only_the_key_and_the_body(tmp_path, stub_server):
    url, handler = stub_server
    areas = simulate(tmp_path, maps_per_area=2)
    log = tmp_path / "replay.jsonl"
    config = _remote_config(tmp_path, url, handler, log)
    assert run(["score", areas[0], "--config", config, "--backend", "remote",
                "--output-dir", tmp_path / "out"]) == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == len(handler.calls) > 0
    assert all(list(record) == ["key", "body"] for record in records)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "failing_prompt, code", [(None, 1), (LANE_CLARITY_PROMPT_ID, 3)], ids=["log", "log-and-request"]
)
def test_score_record_log_that_cannot_be_written_exits_without_a_traceback(
    tmp_path, stub_server, capsys, failing_prompt, code
):
    # Writing to /dev/full fails with ENOSPC. A request that fails as well
    # keeps its own error, after the records of the requests before it.
    url, handler = stub_server
    areas = simulate(tmp_path, maps_per_area=2)
    config = _remote_config(tmp_path, url, handler, "/dev/full")
    if failing_prompt is not None:
        handler.behaviors[failing_prompt] = lambda body: (500, {"error": "down"})
    out = tmp_path / "out"
    assert run(["score", areas[0], "--config", config, "--backend", "remote",
                "--output-dir", out]) == code
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert ("record log /dev/full cannot be written" in err) == (code == 1)
    assert not out.exists()


@pytest.mark.parametrize(
    "setting", ["max_in_flight = 0", "max_retries = -1", "timeout = 0"]
)
def test_score_unusable_backend_settings_exit_1(tmp_path, setting, capsys):
    areas = simulate(tmp_path, maps_per_area=2)
    config = tmp_path / "bad.ini"
    config.write_text(f"[backend]\nendpoint = http://127.0.0.1:9/score\n{setting}\n")
    assert run(["score", areas[0], "--config", config, "--backend", "remote",
                "--output-dir", tmp_path]) == 1
    assert setting.split()[0] in capsys.readouterr().err


# The fourth does not parse as a URL; the fifth has a host label longer than IDNA allows.
@pytest.mark.parametrize(
    "endpoint", ["foo", "ftp://x/score", "http://", "http://[::1", "http://" + "\u00e9" * 64]
)
def test_score_malformed_endpoint_exits_1_without_a_request(
    tmp_path, capsys, monkeypatch, endpoint
):
    areas = simulate(tmp_path, maps_per_area=2)

    def no_exchange(self, request):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(RemoteScorer, "_exchange", no_exchange)
    out = tmp_path / "out"
    assert run(["score", areas[0], "--backend", "remote", "--endpoint", endpoint,
                "--output-dir", out]) == 1
    assert f"endpoint {endpoint!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["score", "select", "update", "evaluate", "simulate"])
def test_unusable_output_dir_exits_1_before_any_work(
    tmp_path, capsys, stub_server, command, under
):
    url, handler = stub_server
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "noop.json"
    script.write_text("[]")
    args = {
        "score": [areas[0], "--backend", "remote", "--endpoint", url],
        "select": [areas[0]],
        "update": [areas[0], script],
        "evaluate": [areas[0], "--policies", "band"],
        "simulate": [small_synth_config(tmp_path)],
    }[command]
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    assert run([command, *args, "--output-dir", out]) == 1
    assert f"--output-dir {out}: {blocker} is not a directory" in capsys.readouterr().err
    assert handler.calls == []
    assert blocker.read_text() == ""


def test_output_dir_that_cannot_be_looked_up_or_made_exits_1(tmp_path, capsys, monkeypatch):
    areas = simulate(tmp_path, maps_per_area=2)
    too_long = tmp_path / ("x" * 300)
    assert run(["select", areas[0], "--output-dir", too_long]) == 1
    assert f"--output-dir {too_long}: File name too long" in capsys.readouterr().err

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", denied)
    out = tmp_path / "out"
    assert run(["select", areas[0], "--output-dir", out]) == 1
    assert f"--output-dir {out}: Permission denied" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,blocked",
    [
        ("score", "area_000_scored.json"),
        ("select", "area_000_selection.csv"),
        ("update", "area_000_fused.json"),
        ("evaluate", "evaluation.csv"),
        ("simulate", "area_000.json"),
    ],
)
def test_output_file_that_cannot_be_written_exits_1(tmp_path, capsys, command, blocked):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "noop.json"
    script.write_text("[]")
    args = {
        "score": [areas[0]],
        "select": [areas[0]],
        "update": [areas[0], script],
        "evaluate": [areas[0], "--policies", "band"],
        "simulate": [small_synth_config(tmp_path)],
    }[command]
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    capsys.readouterr()
    assert run([command, *args, "--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / blocked}: cannot write: Is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == [blocked]


def test_select_band_and_k_cap(tmp_path):
    areas = simulate(tmp_path, maps_per_area=5)
    out = tmp_path / "sel"
    assert run(["select", areas[0], "--output-dir", out]) == 0
    sel_file = out / f"{areas[0].stem}_selection.csv"
    rows = list(csv.reader(sel_file.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == ["rank", "map_id", "avg_confidence", "selected"]
    ranks = [r for r in rows[1:] if len(r) == 4 and r[0].isdigit()]
    assert len(ranks) == 5
    averages = [float(r[2]) for r in ranks]
    assert averages == sorted(averages, reverse=True)
    assert run(["select", areas[0], "--output-dir", out, "--k-cap", 1]) == 0
    rows = list(csv.reader(sel_file.read_text(encoding="utf-8").splitlines()))
    assert sum(1 for r in rows if len(r) == 4 and r[3] == "yes") == 1


def test_select_single_map_area(tmp_path):
    areas = simulate(tmp_path, maps_per_area=1)
    out = tmp_path / "sel1"
    assert run(["select", areas[0], "--output-dir", out]) == 0
    text = (out / f"{areas[0].stem}_selection.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(text.splitlines()))
    assert sum(1 for r in rows if len(r) == 4 and r[3] == "yes") == 1


def test_update_noop_script_reproduces_truth(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "noop.json"
    script.write_text("[]")
    out = tmp_path / "upd"
    assert run(["update", areas[0], script, "--output-dir", out]) == 0
    fused = load_local_map(out / f"{areas[0].stem}_fused.json")
    truth = load_link_area(areas[0]).ground_truth
    result = ame(fused.lane_lines, truth, lateral_only=True)
    assert result.e_ame <= 0.05


def test_update_shift_delete_add_semantics(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    area = load_link_area(areas[0])
    lane_ids = sorted(l.lane_id for l in area.ground_truth)
    script = tmp_path / "mods.json"
    script.write_text(
        json.dumps(
            [
                {"op": "shift", "lane_id": lane_ids[0], "dx": 0.5, "dy": 0.35},
                {"op": "delete", "lane_id": lane_ids[1]},
                {"op": "add", "lane_a": lane_ids[2], "lane_b": lane_ids[3], "offset": 0.25},
            ]
        )
    )
    out = tmp_path / "upd2"
    assert run(["update", areas[0], script, "--output-dir", out]) == 0
    fused = load_local_map(out / f"{areas[0].stem}_fused.json")
    truth_ys = sorted(
        float(np.median(l.points_array()[:, 1])) for l in area.ground_truth
    )
    fused_ys = sorted(float(np.median(l.points_array()[:, 1])) for l in fused.lane_lines)
    # 4 truth lanes -> shift keeps lane count, delete removes one, add inserts one
    assert len(fused.lane_lines) == len(area.ground_truth)
    # the deleted lane's y (index 1) must be gone
    deleted_y = truth_ys[1]
    assert all(abs(y - deleted_y) > 0.5 for y in fused_ys)
    # the shifted lane sits at its new lateral position, not the old one
    assert any(abs(y - (truth_ys[0] + 0.35)) < 0.1 for y in fused_ys)
    assert all(abs(y - truth_ys[0]) > 0.2 for y in fused_ys)


@pytest.mark.parametrize("command", ["select", "update"])
def test_k_cap_below_one_exits_1(tmp_path, capsys, command):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "noop.json"
    script.write_text("[]")
    args = [areas[0], script] if command == "update" else [areas[0]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, *args, "--k-cap", 0, "--output-dir", out]) == 1
    assert capsys.readouterr().err == "error: --k-cap: bad value '0' (k_cap must be >= 1, got 0)\n"
    assert not out.exists()


# A flag that overrides an INI key is read by that key's parser: per flag, a
# command that takes it and the INI section and key it overrides.
SETTING_FLAGS = {
    "--backend": ("score", "pipeline", "backend"),
    "--method": ("score", "pipeline", "method"),
    "--k-cap": ("select", "selection", "k_cap"),
}


@pytest.mark.parametrize(
    "flag,value,reason",
    [
        ("--backend", "bogus", "not one of synthetic, remote, replay"),
        ("--method", "vibes", "not one of dpcs, gcs"),
        ("--method", "", "not one of dpcs, gcs"),
        ("--k-cap", "0", "k_cap must be >= 1, got 0"),
        ("--k-cap", "2.5", "k_cap must be an integer, got 2.5"),
        ("--k-cap", "1_0", "not a JSON number"),
        ("--k-cap", "true", "not a JSON number"),
    ],
    ids=["backend", "method", "method-empty", "k-cap-0", "k-cap-2.5", "k-cap-1_0", "k-cap-true"],
)
def test_a_bad_setting_exits_1_naming_its_flag_or_its_ini_key(
    tmp_path, capsys, flag, value, reason
):
    command, section, key = SETTING_FLAGS[flag]
    out = tmp_path / "out"
    assert run([command, "area.json", flag, value, "--output-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {flag}: bad value {value!r} ({reason})\n"
    config = tmp_path / "bad.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    assert run([command, "area.json", "--config", config, "--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {config}: [{section}] {key}: bad value {value!r} ({reason})\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--method", "GCS"), ("--backend", "Synthetic")])
def test_a_setting_name_is_case_insensitive_as_a_flag_and_in_the_ini(tmp_path, flag, value):
    areas = simulate(tmp_path, maps_per_area=2)
    _, section, key = SETTING_FLAGS[flag]
    config = tmp_path / "case.ini"
    config.write_text(f"[{section}]\n{key} = {value}\n")
    outputs = []
    for args in ([flag, value.lower()], [flag, value], ["--config", config]):
        out = tmp_path / f"out{len(outputs)}"
        assert run(["score", areas[0], *args, "--output-dir", out]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_an_empty_k_cap_means_no_cap_as_a_flag_and_in_the_ini(tmp_path):
    areas = simulate(tmp_path, maps_per_area=5)
    (tmp_path / "none.ini").write_text("[selection]\nk_cap =\n")
    (tmp_path / "one.ini").write_text("[selection]\nk_cap = 1\n")
    runs = {
        "default": [],
        "flag": ["--k-cap", ""],
        "ini": ["--config", tmp_path / "none.ini"],
        "flag over ini": ["--config", tmp_path / "one.ini", "--k-cap", ""],
        "capped": ["--config", tmp_path / "one.ini"],
    }
    selections = {}
    for name, args in runs.items():
        out = tmp_path / name
        assert run(["select", areas[0], *args, "--output-dir", out]) == 0
        selections[name] = (out / f"{areas[0].stem}_selection.csv").read_bytes()
    capped = selections.pop("capped")
    assert set(selections.values()) == {selections["default"]} != {capped}


def test_unknown_scenario_exits_1_for_every_command(tmp_path, capsys):
    areas = simulate(tmp_path, maps_per_area=2)
    config = tmp_path / "bogus.ini"
    config.write_text("[pipeline]\nscenario = bogus\n")
    out = tmp_path / "out"
    assert run(["select", areas[0], "--config", config, "--output-dir", out]) == 1
    assert "scenario 'bogus' not defined" in capsys.readouterr().err
    assert run(["score", areas[0], "--backend", "replay", "--scenario", "bogus",
                "--output-dir", out]) == 1
    assert "scenario 'bogus' not defined" in capsys.readouterr().err
    assert not out.exists()


def test_context_flag_replaces_an_undefined_ini_context(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    config = tmp_path / "ghost.ini"
    config.write_text("[pipeline]\ncontext = ghost\n")
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert run(["score", areas[0], "--config", config, "--output-dir", out]) == 1
    assert run(["score", areas[0], "--config", config, "--context", "all",
                "--output-dir", out]) == 0
    assert run(["score", areas[0], "--output-dir", ref]) == 0
    name = f"{areas[0].stem}_scores.csv"
    assert (out / name).read_bytes() == (ref / name).read_bytes()


@pytest.mark.parametrize(
    "command,flag",
    [("select", "--jobs"), ("select", "--seed"), ("update", "--jobs"), ("evaluate", "--seed")],
)
def test_flags_only_on_the_commands_that_read_them(tmp_path, command, flag):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "noop.json"
    script.write_text("[]")
    args = [areas[0], script] if command == "update" else [areas[0]]
    with pytest.raises(SystemExit) as info:
        run([command, *args, flag, 3, "--output-dir", tmp_path / "out"])
    assert info.value.code == 2


def _readme_synopsis() -> dict[str, set[str]]:
    """The long options the README's ``## CLI`` synopsis gives each command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags: dict[str, set[str]] = {}
    for line in section.split("```")[1].splitlines():
        if line.startswith("lanefuse "):
            command = line.split()[1]
            flags[command] = set()
        if line.strip():
            flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_exactly_the_readme_flags(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == _readme_synopsis()[command] | {"--config", "--output-dir", "--help"}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("simulate", "--seed", "\u0663"),
        ("simulate", "--seed", "1_0"),
        ("simulate", "--seed", "2.5"),
        ("score", "--seed", "+3"),
        ("evaluate", "--jobs", "\u0662"),
        ("evaluate", "--jobs", "02"),
    ],
)
def test_integer_flags_follow_the_number_rule(tmp_path, capsys, command, flag, value):
    args = {"update": ["area.json", "mods.json"]}.get(command, ["area.json"])
    with pytest.raises(SystemExit) as info:
        run([command, *args, flag, value, "--output-dir", tmp_path / "out"])
    assert info.value.code == 2
    assert f"argument {flag}: invalid integer value: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_update_unknown_lane_exits_2(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "bad.json"
    script.write_text(json.dumps([{"op": "delete", "lane_id": "ghost"}]))
    assert run(["update", areas[0], script, "--output-dir", tmp_path]) == 2


@pytest.mark.parametrize(
    "operation,message",
    [
        ({"op": "shift", "lane_id": "lane_00", "dX": 0.5}, "operation 1: unknown key 'dX'"),
        ({"op": "delete", "lane_id": 7}, "operation 1: lane_id must be a string, got 7"),
        ({"op": "add", "lane_a": "lane_00", "lane_b": None}, "operation 1: lane_b must be a string"),
        (5, "operation 1 must be a JSON object"),
    ],
    ids=["misspelt-key", "number-lane-id", "null-lane-id", "number-operation"],
)
def test_update_script_key_faults_exit_2_before_any_output(tmp_path, capsys, operation, message):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "bad.json"
    script.write_text(json.dumps([{"op": "delete", "lane_id": "lane_01"}, operation]))
    out = tmp_path / "out"
    assert run(["update", areas[0], script, "--output-dir", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_report_shape_and_policies(tmp_path):
    areas = simulate(tmp_path, link_areas=2, maps_per_area=4)
    out = tmp_path / "eval"
    assert run(
        ["evaluate", *areas, "--policies", "baseline,seq1,seq3,band", "--output-dir", out]
    ) == 0
    with open(out / "evaluation.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_area = {}
    for row in rows:
        by_area.setdefault(row["area"], []).append(row["policy"])
    assert set(by_area) == {"area_000", "area_001", "average"}
    assert set(by_area["area_000"]) == {"baseline", "seq1", "seq3", "band"}
    assert (out / "evaluation.txt").exists()


def test_evaluate_unknown_policy_exits_1(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    assert run(["evaluate", *areas, "--policies", "sequoia", "--output-dir", tmp_path]) == 1


@pytest.mark.parametrize("jobs", [0, -3])
def test_evaluate_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    areas = simulate(tmp_path, maps_per_area=2)
    out = tmp_path / "eval"
    assert run(["evaluate", *areas, "--jobs", jobs, "--output-dir", out]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_repeated_link_id_exits_2(tmp_path, capsys):
    paths = []
    for seed in (0, 1):
        (tmp_path / f"s{seed}").mkdir()
        paths += simulate(tmp_path / f"s{seed}", seed=seed, maps_per_area=2)
    out = tmp_path / "eval"
    assert run(["evaluate", *paths, "--output-dir", out]) == 2
    assert "link id 'area_000' appears in more than one area" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_repeated_policy_exits_1_before_reading_areas(tmp_path, capsys):
    out = tmp_path / "eval"
    args = ["evaluate", tmp_path / "ghost.json", "--policies", "band,BAND", "--output-dir", out]
    assert run(args) == 1
    assert "policy 'band' given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_empty_policy_list_exits_1(tmp_path, capsys):
    out = tmp_path / "eval"
    assert run(["evaluate", tmp_path / "ghost.json", "--policies", ",", "--output-dir", out]) == 1
    assert "no policies given" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_band_ignores_k_cap(tmp_path):
    # select and update cap the band at [selection] k_cap; evaluate's band
    # policy fuses the whole band, so at k_cap = 1 it still differs from seq1.
    areas = simulate(tmp_path, maps_per_area=5)
    assert len(select_band(rank_maps(load_link_area(areas[0]))).selected_map_ids) >= 2
    config = tmp_path / "cap.ini"
    config.write_text("[selection]\nk_cap = 1\n")
    outputs = []
    for extra in ([], ["--config", config]):
        out = tmp_path / f"eval{len(extra)}"
        args = ["evaluate", areas[0], "--policies", "band,seq1", "--output-dir", out, *extra]
        assert run(args) == 0
        outputs.append((out / "evaluation.csv").read_bytes())
    assert outputs[0] == outputs[1]
    band, seq1 = list(csv.DictReader(outputs[1].decode().splitlines()))[:2]
    assert (band["policy"], seq1["policy"]) == ("band", "seq1")
    assert band["e_ame"] != seq1["e_ame"]


def test_evaluate_jobs_parallel_matches_serial(tmp_path):
    areas = simulate(tmp_path, link_areas=3, maps_per_area=3)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run(["evaluate", *areas, "--output-dir", serial]) == 0
    assert run(["evaluate", *areas, "--output-dir", parallel, "--jobs", 3]) == 0
    assert (serial / "evaluation.csv").read_bytes() == (parallel / "evaluation.csv").read_bytes()


def test_simulate_is_byte_deterministic(tmp_path):
    cfg_path = small_synth_config(tmp_path, seed=4, link_areas=2)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["simulate", cfg_path, "--output-dir", out1]) == 0
    assert run(["simulate", cfg_path, "--output-dir", out2]) == 0
    for f1 in sorted(out1.glob("*.json")):
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg_path = small_synth_config(tmp_path, seed=4, link_areas=1)
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    assert run(["simulate", cfg_path, "--output-dir", out1, "--seed", 99]) == 0
    assert run(["simulate", cfg_path, "--output-dir", out2]) == 0
    # An integer flag is a JSON number with no fractional part.
    assert run(["simulate", cfg_path, "--output-dir", out3, "--seed", "99.0"]) == 0
    a = (out1 / "area_000.json").read_bytes()
    b = (out2 / "area_000.json").read_bytes()
    assert a != b
    assert (out3 / "area_000.json").read_bytes() == a


def test_simulate_scores_with_the_pipeline_method(tmp_path):
    cfg_path = small_synth_config(tmp_path, maps_per_area=7)
    config = tmp_path / "gcs.ini"
    config.write_text("[pipeline]\nmethod = gcs\n")
    dpcs_out, gcs_out = tmp_path / "dpcs", tmp_path / "gcs"
    assert run(["simulate", cfg_path, "--output-dir", dpcs_out]) == 0
    assert run(["simulate", cfg_path, "--config", config, "--output-dir", gcs_out]) == 0
    images = [img for m in load_link_area(gcs_out / "area_000.json").local_maps for img in m.images]
    expected = [gcs(img) for img in images]
    assert [img.confidence for img in images] == pytest.approx(expected, abs=1e-6)
    assert (dpcs_out / "area_000.json").read_bytes() != (gcs_out / "area_000.json").read_bytes()


@pytest.mark.parametrize(
    "command,change,code",
    [
        ("select", ("factor_scores", {"blur_day": 3.7}), 2),
        ("select", ("lane_visibility", True), 2),
        ("simulate", {"link_areas": 1.9}, 1),
        ("simulate", {"maps_per_area": True}, 1),
        ("simulate", {"scenarios": [{"name": "x", "factors": {"rain": [2.5, 7]}}]}, 1),
    ],
    ids=[
        "fractional-score", "bool-visibility", "fractional-count", "bool-count", "fractional-range"
    ],
)
def test_integer_fields_reject_bools_and_fractions_with_the_readers_code(
    tmp_path, capsys, command, change, code
):
    if command == "select":
        (area_path,) = simulate(tmp_path, maps_per_area=2)
        doc = json.loads(area_path.read_text())
        key, value = change
        doc["local_maps"][0]["images"][0][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
    else:
        path = small_synth_config(tmp_path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    out = tmp_path / "out"
    assert run([command, path, "--output-dir", out]) == code
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "option"])
def test_simulate_negative_seed_exits_1_before_any_area(tmp_path, capsys, source):
    path = small_synth_config(tmp_path)
    args = ["simulate", path, "--output-dir", tmp_path / "out"]
    if source == "config":
        path.write_text(json.dumps({**json.loads(path.read_text()), "seed": -1}))
    else:
        args += ["--seed", "-5"]
    assert run(args) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_missing_config_exits_1(tmp_path):
    assert run(["simulate", tmp_path / "ghost.json", "--output-dir", tmp_path]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"scenarios": [5]},
        {"scenarios": [{"name": "x", "factors": [["rain", 1, 2]]}]},
        {"link_area": 2},
        {"scenarios": [{"name": "x", "sigmaa": 0.1}]},
        {"scenarios": [{"name": "x", "factors": {"glare": [1, 2]}}]},
        {"scenarios": 5},
        {"scenarios": []},
    ],
)
def test_simulate_malformed_synth_config_exits_1(tmp_path, doc, capsys):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(doc))
    assert run(["simulate", path, "--output-dir", tmp_path / "out"]) == 1
    assert "synth.json" in capsys.readouterr().err


def test_select_config_typo_exits_1(tmp_path, capsys):
    areas = simulate(tmp_path, maps_per_area=2)
    config = tmp_path / "typo.ini"
    config.write_text("[selecton]\nk_cap = 2\n\n[pipeline]\nbackendd = remote\n")
    assert run(["select", areas[0], "--config", config, "--output-dir", tmp_path]) == 1
    assert "selecton" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["ini", "json"])
def test_non_finite_sigma_exits_1(tmp_path, form):
    if form == "ini":
        areas = simulate(tmp_path, maps_per_area=2)
        config = tmp_path / "nan.ini"
        config.write_text("[scenario.bad]\nsigma = nan\n")
        args = ["select", areas[0], "--config", config]
    else:
        doc = synth_config_to_dict(standard_config(0))
        doc["scenarios"][0]["sigma"] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        args = ["simulate", path]
    assert run([*args, "--output-dir", tmp_path / "out"]) == 1


def test_update_area_without_truth_exits_2(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    area = load_link_area(areas[0])
    doc = area_to_dict(area)
    doc["ground_truth"] = None
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    script = tmp_path / "noop2.json"
    script.write_text("[]")
    assert run(["update", bare, script, "--output-dir", tmp_path]) == 2


# (truth lanes, or None to keep them; an edit of every map's lanes; the error line)
UNFUSABLE = {
    "two_points": (
        None,
        lambda lanes: [{"lane_id": "l", "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}],
        r"link area 'area_000': map 'area_000_map_0\d': source has fewer than 3 points; "
        r"cannot align",
    ),
    "shift_1km": (
        None,
        lambda lanes: _offset(lanes, 1000.0, 0.0),
        r"link area 'area_000': map 'area_000_map_0\d': only 0 correspondences within 2\.0 m .*",
    ),
    "no_points": ([], lambda lanes: [], "no lane points to fuse"),
    "short_truth": (
        [{"lane_id": "g", "points": [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]}],
        lambda lanes: [],
        "clustering left no lane-sized groups",
    ),
}


@pytest.mark.parametrize("case", UNFUSABLE)
def test_update_that_cannot_fuse_exits_2_naming_the_fault(tmp_path, capsys, case):
    truth, edit, fault = UNFUSABLE[case]
    areas = simulate(tmp_path, maps_per_area=2)
    doc = json.loads(areas[0].read_text())
    if truth is not None:
        doc["ground_truth"] = truth
    for local_map in doc["local_maps"]:
        local_map["lane_lines"] = edit(local_map["lane_lines"])
    areas[0].write_text(json.dumps(doc))
    script = tmp_path / "noop.json"
    script.write_text("[]")
    capsys.readouterr()
    assert run(["update", areas[0], script, "--output-dir", tmp_path / "out"]) == 2
    assert re.fullmatch(f"input error: {fault}\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_simulate_six_by_five_under_ten_seconds(tmp_path):
    import time

    cfg_path = small_synth_config(tmp_path, seed=2, link_areas=6, maps_per_area=5)
    start = time.perf_counter()
    assert run(["simulate", cfg_path, "--output-dir", tmp_path / "fast"]) == 0
    assert time.perf_counter() - start < 10.0
    assert len(list((tmp_path / "fast").glob("area_*.json"))) == 6


def test_select_reported_average_row_keeps_three(tmp_path):
    averages = [8.30, 7.96, 7.62, 6.64, 5.89]
    area = {
        "link_id": "avgrow",
        "ground_truth": None,
        "local_maps": [
            {
                "map_id": f"m{i}",
                "link_area_id": "avgrow",
                "lane_lines": [
                    {"lane_id": "l0", "points": [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]}
                ],
                "images": [
                    {"image_id": f"m{i}_img", "timestamp": 0.0, "confidence": avg}
                ],
            }
            for i, avg in enumerate(averages)
        ],
    }
    path = tmp_path / "avgrow.json"
    path.write_text(json.dumps(area))
    out = tmp_path / "sel_avg"
    assert run(["select", path, "--output-dir", out]) == 0
    text = (out / "avgrow_selection.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(text.splitlines()))
    assert sum(1 for r in rows if len(r) == 4 and r[3] == "yes") == 3
    bound = [r for r in rows if r and r[0] == "lower_bound"][0]
    assert float(bound[1]) == pytest.approx(7.47, abs=1e-6)


@pytest.mark.parametrize("bad", ["directory", "not_utf8"])
@pytest.mark.parametrize("command,code", [("select", 2), ("update", 2), ("simulate", 1)])
def test_unreadable_json_input_exits_with_its_readers_code(tmp_path, capsys, bad, command, code):
    areas = simulate(tmp_path, maps_per_area=2)
    path = tmp_path / "bad.json"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe[]")
    args = [areas[0], path] if command == "update" else [path]
    assert run([command, *args, "--output-dir", tmp_path / "out"]) == code
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,source,body",
    [
        ("evaluate", "ini", "[dbscan]\nepsilon = nan\n"),
        ("evaluate", "ini", "[icp]\nmax_correspondence_dist = nan\n"),
        ("select", "ini", "[pipeline]\nweights = w\n[weights.w]\nlane_weight = nan\n"
         + ALL_WEIGHTS),
        ("simulate", "json", {"lane_length": math.nan}),
        ("simulate", "json", {"point_spacing": math.inf}),
        ("simulate", "json", {"lane_spacing": -math.inf}),
    ],
)
def test_non_finite_parameters_exit_1(tmp_path, capsys, command, source, body):
    areas = simulate(tmp_path, maps_per_area=2)
    if source == "ini":
        config = tmp_path / "nan.ini"
        config.write_text(body)
        args = [command, areas[0], "--config", config]
    else:
        doc = synth_config_to_dict(standard_config(0))
        doc.update(body)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        args = [command, path]
    assert run([*args, "--output-dir", tmp_path / "out"]) == 1
    assert "finite" in capsys.readouterr().err


# --- the exit-code contract under generated area edits ------------------------


def _offset(lanes, dx, dy):
    return [{**lane, "points": [[x + dx, y + dy, z] for x, y, z in lane["points"]]} for lane in lanes]


def _offset_area(doc, index):
    doc["ground_truth"] = _offset(doc["ground_truth"], 1e12, 1e12)
    for local_map in doc["local_maps"]:
        local_map["lane_lines"] = _offset(local_map["lane_lines"], 1e12, 1e12)


def _map_edit(edit):
    """An edit of the lane list of local map ``index``."""

    def apply(doc, index):
        local_map = doc["local_maps"][index]
        local_map["lane_lines"] = edit(local_map["lane_lines"])

    return apply


AREA_EDITS = {
    "shift_1km": _map_edit(lambda lanes: _offset(lanes, 1000.0, 0.0)),
    "no_lanes": _map_edit(lambda lanes: []),
    "one_lane": _map_edit(lambda lanes: lanes[:1]),
    # These two replace the first lane, or give a map without lanes one.
    "lane_1mm": _map_edit(
        lambda lanes: [
            {"lane_id": "lane_00", "points": [[0.0, 0.0, 0.0], [0.001, 0.0, 0.0]]}, *lanes[1:]
        ]
    ),
    "vertical_lane": _map_edit(
        lambda lanes: [
            {"lane_id": "lane_00", "points": [[5.0, 0.0, 0.0], [5.0, 0.0, 1.0], [5.0, 0.0, 2.0]]},
            *lanes[1:],
        ]
    ),
    "offset_1e12": _offset_area,  # every map and the ground truth
    # An integer beyond the float range, which JSON writes as its digits; in z,
    # which the offset edits leave as it is.
    "z_1e400": _map_edit(
        lambda lanes: [{"lane_id": "lane_00", "points": [[0.0, 0.0, 10**400], [1.0, 0.0, 0.0]]},
                       *lanes[1:]]
    ),
}
EXIT_CODES = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def fuzz_area():
    import dataclasses

    cfg = dataclasses.replace(
        standard_config(0), link_areas=1, maps_per_area=3, images_per_map=1, lane_length=20.0
    )
    (area,) = synth_generate(cfg)
    return area_to_dict(area)


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


def _run_twice(commands, work: Path, case) -> dict[str, Path]:
    """Run each command into a fresh output directory and hold it to the
    exit-code contract: a documented code and no exception; after a non-zero
    exit, no file; after exit 0, the same bytes again on a rerun. Returns the
    output directory of each command that exited 0."""
    done = {}
    for command, args in commands.items():
        first, again = work / f"{command}-1", work / f"{command}-2"
        code = run([*args, "--output-dir", first])
        assert code in EXIT_CODES
        if code != 0:
            assert _outputs(first) == {}, (command, case)
            continue
        assert run([*args, "--output-dir", again]) == 0
        assert _outputs(first) == _outputs(again), (command, case)
        done[command] = first
    return done


@given(
    edits=st.lists(
        st.tuples(st.sampled_from(sorted(AREA_EDITS)), st.integers(0, 2)), min_size=1, max_size=3
    )
)
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@example(edits=[("shift_1km", 0)])
@example(edits=[("no_lanes", 1)])
@example(edits=[("one_lane", 2)])
@example(edits=[("vertical_lane", 0)])
@example(edits=[("offset_1e12", 0)])
@example(edits=[("z_1e400", 1)])
def test_edited_areas_keep_the_exit_code_contract(fuzz_area, edits):
    doc = json.loads(json.dumps(fuzz_area))
    for name, index in edits:
        AREA_EDITS[name](doc, index)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        area, script = work / "area.json", work / "script.json"
        area.write_text(json.dumps(doc))
        script.write_text("[]")
        commands = {
            "update": ["update", area, script],
            "evaluate": ["evaluate", area, "--policies", "baseline,seq1,band"],
        }
        done = _run_twice(commands, work, edits)
        if "update" in done:
            load_local_map(done["update"] / "area_fused.json")
        if "evaluate" in done:
            rows = list(csv.reader((done["evaluate"] / "evaluation.csv").read_text().splitlines()))
            assert rows[0] == ["area", "policy", "e_ame", "n_points"] and len(rows) == 7


# --- the exit-code contract under generated script and INI edits --------------

SCRIPT = [
    {"op": "shift", "lane_id": "lane_00", "dx": 0.5, "dy": 0.0},
    {"op": "delete", "lane_id": "lane_01"},
    {"op": "add", "lane_a": "lane_02", "lane_b": "lane_03", "offset": 0.25},
]


def _operation_edit(edit):
    """An edit of operation ``index``; a script that is no longer a list
    stays as it is."""

    def apply(doc, index):
        if isinstance(doc, list):
            edit(doc[index])
        return doc

    return apply


def _id_edit(operation):
    operation["lane_id" if "lane_id" in operation else "lane_a"] = 7


# A number edit of an operation without that field adds a key it does not take.
BAD_SCRIPT_NUMBERS = {"nan": math.nan, "infinity": math.inf, "bool": True, "numeral": "0.5"}
SCRIPT_EDITS = {
    "unknown_op": _operation_edit(lambda operation: operation.update(op="rotate")),
    "missing_op": _operation_edit(lambda operation: operation.pop("op")),
    "extra_key": _operation_edit(lambda operation: operation.update(note="x")),
    "number_lane_id": _operation_edit(_id_edit),
    **{
        f"{field}_{label}": _operation_edit(
            lambda operation, field=field, value=value: operation.update({field: value})
        )
        for field in ("dx", "dy", "offset")
        for label, value in BAD_SCRIPT_NUMBERS.items()
    },
    "not_a_list": lambda doc, index: {"operations": doc},
}


@given(
    edits=st.lists(
        st.tuples(st.sampled_from(sorted(SCRIPT_EDITS)), st.integers(0, 2)), min_size=1, max_size=3
    )
)
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@example(edits=[])
@example(edits=[("dx_nan", 0)])
@example(edits=[("offset_numeral", 2)])
@example(edits=[("not_a_list", 0)])
def test_edited_scripts_keep_the_exit_code_contract(fuzz_area, edits):
    doc = json.loads(json.dumps(SCRIPT))
    for name, index in edits:
        doc = SCRIPT_EDITS[name](doc, index)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        area, script = work / "area.json", work / "script.json"
        area.write_text(json.dumps(fuzz_area))
        script.write_text(json.dumps(doc))
        done = _run_twice({"update": ["update", area, script]}, work, edits)
        if "update" in done:
            load_local_map(done["update"] / "area_fused.json")


INI = {
    "pipeline": {"method": "dpcs"},
    "icp": {"max_iterations": "50", "convergence_tol": "1e-6", "max_correspondence_dist": "2.0"},
    "dbscan": {"epsilon": "0.5", "min_samples": "4"},
    "selection": {"k_cap": "2"},
}
NUMBER_KEYS = [(section, key) for section in ("icp", "dbscan", "selection") for key in INI[section]]
BAD_NUMBERS = ["nan", "inf", "-1", "0", "2.5", "true", "1_0", '"3"', "abc", "1e400", ""]


def _ini_text(sections) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in items.items())
        for name, items in sections.items()
    )


ini_edits = st.one_of(
    st.tuples(st.just("unknown_section"), st.sampled_from(["icpp", "weights", "context."])),
    st.tuples(st.just("unknown_key"), st.sampled_from(sorted(INI))),
    st.tuples(st.just("bad_number"), st.sampled_from(NUMBER_KEYS), st.sampled_from(BAD_NUMBERS)),
    st.tuples(st.just("default"), st.sampled_from(["k_cap", "epsilon"])),
)


@given(edits=st.lists(ini_edits, min_size=1, max_size=3))
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@example(edits=[])
@example(edits=[("bad_number", ("icp", "max_iterations"), "nan")])
@example(edits=[("default", "k_cap")])
def test_edited_configs_keep_the_exit_code_contract(fuzz_area, edits):
    sections = json.loads(json.dumps(INI))
    for kind, *what in edits:
        if kind == "unknown_section":
            sections.setdefault(what[0], {})["x"] = "1"
        elif kind == "unknown_key":
            sections[what[0]]["typo"] = "1"
        elif kind == "bad_number":
            (section, key), value = what
            sections[section][key] = value
        else:  # a [DEFAULT] key is copied into every section
            sections = {"DEFAULT": {what[0]: "1"}, **sections}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        area, script, config = work / "area.json", work / "script.json", work / "lanefuse.ini"
        area.write_text(json.dumps(fuzz_area))
        script.write_text(json.dumps(SCRIPT))
        config.write_text(_ini_text(sections))
        commands = {
            "select": ["select", area, "--config", config],
            "update": ["update", area, script, "--config", config],
        }
        _run_twice(commands, work, edits)
