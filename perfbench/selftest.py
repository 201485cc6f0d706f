"""The benchmark's own tests: tiny-size smoke runs of every workload, exact
counts that must repeat between two traced runs, the span arithmetic, and
the BENCHMARK.json contract.

Run: python3 -m pytest -q perfbench/selftest.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import lanefuse.evaluation as ev  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = dict(maps_per_area=3, images_per_map=2, lane_length=12.0)
EXACT_COUNTS = (
    "registration.icp_calls",
    "clustering.points_in",
    "backends.requests",
    "mapmodel.point3_created",
    "evaluation.ame_pairs",
)


def tiny(name: str, work: Path):
    """The named workload shrunk to seconds; its digest table is 'tiny', so
    no recorded digest applies."""
    if name in ("experiment", "long_lane"):
        w = workloads.AreaEvaluation("tiny", [ev.SynthConfig(seed=3, link_areas=2, **TINY)])
    else:
        w = workloads.make(name, 3, work, f"selftest-{name}")
        w.name = "tiny"
        w.synth = ev.SynthConfig(seed=3, link_areas=1, **TINY)
    return w


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_untraced(name, tmp_path):
    w = tiny(name, tmp_path)
    try:
        metrics, extra, passes, problems = run.untraced_run(w, seconds=0)
    finally:
        w.close()
    assert problems == []
    assert set(metrics) == set(run.declared_metrics("end_to_end"))
    assert all(v > 0 for v in metrics.values()), metrics
    assert extra["failed_frac"] == 0


@pytest.mark.parametrize("name", ["experiment", "cli_pipeline", "remote_score"])
def test_traced_counts_repeat(name, tmp_path):
    counts = []
    for i in range(2):
        work = tmp_path / str(i)
        work.mkdir()
        w = tiny(name, work)
        try:
            metrics, _, _, problems, _ = run.traced_run(w, f"selftest-{i}")
        finally:
            w.close()
        assert problems == []
        assert set(metrics) == set(run.declared_metrics("per_layer"))
        counts.append({k: metrics[k] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    if name != "remote_score":
        assert counts[0]["registration.icp_calls"] > 0
        assert counts[0]["evaluation.ame_pairs"] > 0
    if name != "experiment":
        assert counts[0]["backends.requests"] > 0


def test_remote_stub_counts(tmp_path):
    w = tiny("remote_score", tmp_path)
    try:
        w.setup()
        result = w.run_pass()
        assert w.check([result]) == []
    finally:
        w.close()
    assert w.stats["attempts"] == w.requests
    assert w.stats["errors_5xx"] == 0
    assert w.stats["in_flight_max"] >= 1
    assert w.log_bytes > 0


def test_self_times_subtract_children_once():
    spans = [
        {"id": "r", "parent": None, "name": "bench.pass", "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "r", "name": "x.a", "start": 1.0, "end": 5.0},
        {"id": "b", "parent": "r", "name": "x.b", "start": 4.0, "end": 6.0},  # overlaps a
        {"id": "c", "parent": "a", "name": "y.c", "start": 2.0, "end": 3.0},
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"r": 5.0, "a": 3.0, "b": 2.0, "c": 1.0}
    assert {s["id"] for s in tracing.descendants(spans, "r")} == {"a", "b", "c"}


def test_fusion_self_is_fuse_maps_alone():
    tracer = tracing.Tracer("selftest")
    tracer.spans = [
        {"id": "p", "parent": None, "name": "bench.pass", "start": 0.0, "end": 20.0},
        {"id": "e", "parent": "p", "name": "evaluation.evaluate_area", "start": 0.0, "end": 19.0},
        {"id": "r", "parent": "e", "name": "fusion.rank_maps", "start": 0.0, "end": 1.0},
        {"id": "f", "parent": "e", "name": "fusion.fuse_maps", "start": 2.0, "end": 12.0},
        {"id": "i", "parent": "f", "name": "registration.icp_align", "start": 2.0, "end": 4.0},
        {"id": "t", "parent": "f", "name": "registration.apply_transform", "start": 4.0, "end": 5.0},
        {"id": "d", "parent": "f", "name": "clustering.dbscan", "start": 5.0, "end": 8.0},
        {"id": "l", "parent": "f", "name": "fusion.cluster_polyline", "start": 8.0, "end": 10.5},
    ]
    m = tracing.layer_metrics(tracer, "p", 0.0, {})
    fuse_self = tracing.self_times(tracer.spans)["f"]
    assert fuse_self == 1.5
    assert m["fusion.self_s"] == fuse_self
    assert m["fusion.polyline_s"] == 2.5
    assert m["fusion.layer_self_s"] == 1.5 + 2.5 + 1.0
    layers = sum(m[f"{layer}.layer_self_s"] for layer in tracing.LAYERS)
    assert layers + m["bench.self_s"] == 20.0


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    value, label = run.tail([float(v) for v in values])
    assert label == "p90 of 100"
    assert sum(v > value for v in values) >= 10
    assert run.tail([1.0, 5.0, 2.0])[0] == 5.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
