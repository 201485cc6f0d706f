"""End-to-end command behaviour: outputs, exit codes, determinism."""

import csv
import json
import math
import time
import zlib

import numpy as np
import pytest

from lanefuse.backends import (
    FACTOR_PROMPTS,
    LANE_CLARITY_PROMPT_ID,
    ScorerRequest,
    synthetic_score,
    write_replay_log,
)
from lanefuse.cli import main
from lanefuse.confidence import gcs
from lanefuse.evaluation import SCENARIOS_BY_NAME, ame, standard_config, synth_config_to_dict
from lanefuse.mapmodel import area_to_dict, load_link_area, load_local_map
from lanefuse.scoring import DEGRADATION_FACTORS, FactorKind

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
            req = ScorerRequest(image=name, prompt_id=FACTOR_PROMPTS[factor], mode="direct")
            entries.append((req, {"mode": "direct", "score": row[factor.key]}))
        entries.append(
            (
                ScorerRequest(image=name, prompt_id=LANE_CLARITY_PROMPT_ID, mode="clarity"),
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
    for in_flight in (1, 4):
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
    assert outputs[1] == outputs[4]
    ref = tmp_path / "synthetic"
    assert run(["score", areas[0], "--backend", "synthetic", "--scenario", "murky",
                "--output-dir", ref]) == 0
    assert outputs[4][0] == (ref / f"{name}_scores.csv").read_bytes()


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


def test_select_band_and_k_cap(tmp_path):
    areas = simulate(tmp_path, maps_per_area=5)
    out = tmp_path / "sel"
    assert run(["select", areas[0], "--output-dir", out]) == 0
    sel_file = out / f"{areas[0].stem}_selection.csv"
    rows = list(csv.reader(sel_file.open()))
    assert rows[0] == ["rank", "map_id", "avg_confidence", "selected"]
    ranks = [r for r in rows[1:] if len(r) == 4 and r[0].isdigit()]
    assert len(ranks) == 5
    averages = [float(r[2]) for r in ranks]
    assert averages == sorted(averages, reverse=True)
    assert run(["select", areas[0], "--output-dir", out, "--k-cap", 1]) == 0
    rows = list(csv.reader(sel_file.open()))
    assert sum(1 for r in rows if len(r) == 4 and r[3] == "yes") == 1


def test_select_single_map_area(tmp_path):
    areas = simulate(tmp_path, maps_per_area=1)
    out = tmp_path / "sel1"
    assert run(["select", areas[0], "--output-dir", out]) == 0
    rows = list(csv.reader((out / f"{areas[0].stem}_selection.csv").open()))
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
    assert run([command, *args, "--k-cap", 0, "--output-dir", out]) == 1
    assert "--k-cap must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_update_unknown_lane_exits_2(tmp_path):
    areas = simulate(tmp_path, maps_per_area=2)
    script = tmp_path / "bad.json"
    script.write_text(json.dumps([{"op": "delete", "lane_id": "ghost"}]))
    assert run(["update", areas[0], script, "--output-dir", tmp_path]) == 2


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
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["simulate", cfg_path, "--output-dir", out1, "--seed", 99]) == 0
    assert run(["simulate", cfg_path, "--output-dir", out2]) == 0
    a = (out1 / "area_000.json").read_bytes()
    b = (out2 / "area_000.json").read_bytes()
    assert a != b


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
    rows = list(csv.reader((out / "avgrow_selection.csv").open()))
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
